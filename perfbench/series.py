"""Run sets of benchmark runs, alternating between sets run by run.

The host's CPU speed drifts by up to 2x for minutes at a time, so two sets
(two commits, or the same code twice) must be measured interleaved: for each
seed and workload, every set runs once, and which set goes first alternates
from seed to seed.  Each set is a directory holding a checkout; each run is
``python3 perfbench/run.py`` in that directory.  Results go to
``OUT_DIR/<set>.jsonl``, one record per run (the run's diagnostics line and
its result line), for ``compare.py``.  Runs are untraced and last
``run_seconds`` of ``BENCHMARK.json``::

    python3 perfbench/series.py --set parent=../parent --set change=. \\
        --seeds 1-10 --out-dir perfbench/results/mine
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--set", action="append", required=True, metavar="NAME=DIR", help="a set and its checkout"
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in benchmark["workloads"])
    )
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    sets = [tuple(item.split("=", 1)) for item in args.set]
    os.makedirs(args.out_dir, exist_ok=True)
    failed = 0
    for index, seed in enumerate(parse_seeds(args.seeds)):
        order = sets if index % 2 == 0 else list(reversed(sets))
        for workload in args.workloads.split(","):
            for name, directory in order:
                record = run_once(directory, workload, seed, benchmark["run_seconds"])
                record["set"] = name
                with open(os.path.join(args.out_dir, f"{name}.jsonl"), "a", encoding="utf-8") as out:
                    out.write(json.dumps(record) + "\n")
                result = record.get("result") or {}
                ok = record["exit_code"] == 0 and result.get("correct") and not result.get("failed")
                failed += not ok
                print(
                    f"{name:>10} {workload:<14} seed {seed:<3} exit {record['exit_code']}"
                    f" failed {result.get('failed')} wall {record['wall_s']:.1f}s",
                    flush=True,
                )
    return 1 if failed else 0


def run_once(directory, workload, seed, seconds):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=directory, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = {
        "workload": workload,
        "seed": seed,
        "exit_code": proc.returncode,
        "wall_s": time.perf_counter() - started,
    }
    try:
        record["result"] = json.loads(lines[-1])
        record["run"] = json.loads(lines[-2])["run"]
    except (IndexError, ValueError, KeyError):
        pass
    if proc.returncode != 0:
        record["stderr"] = proc.stderr  # a stalled run's thread-stack dump
    return record


if __name__ == "__main__":
    sys.exit(main())
