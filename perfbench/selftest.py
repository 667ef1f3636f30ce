"""Self-test of the output check: a corrupted expected digest is a failed op.

Runs one seeded pass of cold-optimize (all 41 pairs) twice through the
workload's own check path: against ``reference.json`` (no op may fail), and
against a copy in which one expected plan digest of one pair is altered
(exactly that op must fail, as a mismatch, and the run must read incorrect).
Run from the repository root; exits 0 when both hold::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(reference, seed=1):
    """One cold-optimize pass over every pair, checked against ``reference``."""
    from checks import Tally
    from configs import COLD_PAIRS
    from loop import WORK_DIR, Children
    from workloads import ColdOptimize, Phase

    tally = Tally(reference)
    children = Children()
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR, prefix="selftest-")
    try:
        workload = ColdOptimize(seed, tally, children, work_dir)
        phase = Phase()
        workload.setup(phase, traced=False)
        workload.run(phase, workload.requests(count=len(COLD_PAIRS)))
    finally:
        children.kill_all()
        shutil.rmtree(work_dir, ignore_errors=True)
    return tally


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from checks import load_reference
    from configs import COLD_PAIRS, request_key

    reference = load_reference()
    clean = run_pass(reference)
    corrupted = copy.deepcopy(reference)
    key = request_key(*COLD_PAIRS[0])
    digest = corrupted[key]["plan_digests"][0]
    corrupted[key]["plan_digests"][0] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    broken = run_pass(corrupted)

    problems = []
    if clean.failed or not clean.correct:
        problems.append(f"clean reference: {dict(clean.failures)} failed")
    if broken.attempted != clean.attempted:
        problems.append(f"attempted {broken.attempted} vs {clean.attempted}")
    if dict(broken.failures) != {"mismatch": 1} or broken.correct:
        problems.append(f"corrupted {key}: failures {dict(broken.failures)}, correct {broken.correct}")
    for problem in problems:
        print(f"selftest: FAIL: {problem}")
    if not problems:
        print(
            f"selftest: ok: {clean.attempted} ops pass the reference; "
            f"corrupting one digest of {key} fails exactly 1 op (mismatch)"
        )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
