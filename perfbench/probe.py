"""Set-up probe of the in-process workloads, in a fresh interpreter.

Imports the program, builds the workload's catalogs and runs its own further
set-up (warm-optimize: the warm-up pass that fills the session caches), then
prints ``{"setup_s": ...}``: the CPU seconds this process used, interpreter
start included.  CPU time leaves out the time the host takes the vCPU away.
With ``--trace`` the span wrappers are installed after the imports, as in
the traced run.  Started by ``run.py``::

    python3 perfbench/probe.py cold-optimize|warm-optimize SEED [--trace]
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    sys.path.insert(0, HERE)
    from checks import Tally, load_reference
    from configs import build_catalogs
    from repro.service.protocol import WORKLOAD_BUILDERS
    from workloads import WORKLOADS

    name, seed = sys.argv[1], int(sys.argv[2])
    if "--trace" in sys.argv[3:]:
        from spans import SpanRecorder, install

        install(SpanRecorder())
    tally = Tally(load_reference())
    workload = WORKLOADS[name](seed, tally, None, None)
    workload.catalogs = build_catalogs(workload.pairs(), WORKLOAD_BUILDERS)
    workload.prepare()
    if tally.failed:
        raise SystemExit(f"set-up probe: {dict(tally.failures)} failed")
    print(json.dumps({"setup_s": time.process_time()}))


if __name__ == "__main__":
    main()
