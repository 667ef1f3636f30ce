"""Closed-loop benchmark of the C&B optimizer: one command per workload.

    python3 perfbench/run.py --workload cold-optimize|warm-optimize|warm-service|churn-socket \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The untraced run (``--trace 0``) sets up,
measures for ``--seconds`` and prints the end-to-end metrics.  The traced run
(``--trace 1``) measures a fixed request list untraced, with span wrappers
installed, and untraced again, and prints the per-layer metrics; the tracing
overhead on each end-to-end metric goes in the run record.  Every response is
checked against ``reference.json``.  The last line of standard output is the
result object; the line before it carries the run's noise diagnostics and
workload properties.

An untraced run of an in-process workload (cold-optimize, warm-optimize)
measures in :data:`PARTS` fresh processes, one after another, each for an
equal share of ``--seconds``, and reports each metric's median over them:
one process of this engine can run a third faster than the next for its
whole life, for reasons outside the program's Python-level work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Part processes of an untraced in-process run.
PARTS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=["cold-optimize", "warm-optimize", "warm-service", "churn-socket"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # One part of an in-process run: print the part's record instead of a result.
    parser.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            "perfbench: src/repro not found; run from the repository root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from checks import Tally, load_reference
    from loop import RUN_MARGIN_S, WORK_DIR, Children, Diagnostics, Stalled, Watchdog, abort
    from metrics import IN_PROCESS, end_to_end, properties, units
    from workloads import TRACED_REQUESTS, WORKLOADS, Phase

    work_dir = os.path.join(WORK_DIR, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    children = Children()
    watchdog = Watchdog(children, args.seconds + RUN_MARGIN_S)
    diagnostics = Diagnostics()
    tally = Tally(load_reference())
    workload = WORKLOADS[args.workload](args.seed, tally, children, work_dir)
    try:
        if args.trace:
            from layers import traced_run

            metrics, props = traced_run(workload, TRACED_REQUESTS[workload.name])
        else:
            if workload.name in IN_PROCESS and not args.part:
                values, props = in_parts(args, tally, children)
            else:
                phase = Phase()
                workload.setup(phase, traced=False)
                workload.run(
                    phase, workload.requests(), deadline=time.perf_counter() + args.seconds
                )
                values, props = end_to_end(workload.name, phase), properties(workload.name, phase)
            unit = units(workload.name)
            metrics = {name: {"value": value, "unit": unit[name]} for name, value in values.items()}
    except Stalled as stall:
        # abort() exits at once: a stalled service may never shut down.
        tally.missing(stall.pending)
        result = {"correct": False, "attempted": tally.attempted, "failed": tally.failed}
        print(json.dumps(dict(result, metrics={})), flush=True)
        workload.dump_stacks()
        abort(children, str(stall))
    except PartFailed as failure:
        result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed}
        print(json.dumps(dict(result, metrics={})), flush=True)
        abort(children, str(failure))
    finally:
        workload.close()
        children.kill_all()
        shutil.rmtree(work_dir, ignore_errors=True)
    watchdog.stop()
    if args.part:
        record = {
            "metrics": values,
            "properties": props,
            "attempted": tally.attempted,
            "failures": dict(tally.failures),
        }
        print(json.dumps({"part": record}))
        return 0
    run_record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "diagnostics": diagnostics.finish(),
        "properties": props,
        "failures": dict(tally.failures),
    }
    print(json.dumps({"run": run_record}))
    print(
        json.dumps(
            {
                "correct": tally.correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


class PartFailed(Exception):
    """A part process exited without its record."""


def in_parts(args, tally, children):
    """Run :data:`PARTS` part processes in turn; each metric is the median over them.

    ``setup_s`` is the median of all the parts' set-up samples, and
    ``peak_rss_mb`` the largest part's.  A part that exits without its
    record counts one missing op (the request it was running).
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds / PARTS), "--part"]
    parts = []
    for _ in range(PARTS):
        proc = children.spawn(argv, stdout=subprocess.PIPE)
        out, _ = proc.communicate()
        code = children.stop(proc)
        try:
            part = json.loads(out.decode().splitlines()[-1])["part"]
        except (IndexError, KeyError, ValueError):
            tally.missing(1)
            raise PartFailed(f"a part process exited {code} without its record")
        tally.attempted += part["attempted"]
        tally.failures.update(part["failures"])
        parts.append(part)
    values = {
        name: statistics.median(part["metrics"][name] for part in parts)
        for name in parts[0]["metrics"]
    }
    values["setup_s"] = statistics.median(
        sample for part in parts for sample in part["properties"]["setup_samples_s"]
    )
    values["peak_rss_mb"] = max(part["metrics"]["peak_rss_mb"] for part in parts)
    props = {
        "property_holds": all(part["properties"]["property_holds"] for part in parts),
        "requests": sum(part["properties"]["requests"] for part in parts),
        "parts": [dict(part["properties"], metrics=part["metrics"]) for part in parts],
    }
    if "cache_hits" in parts[0]["properties"]:
        props["cache_hits"] = sum(part["properties"]["cache_hits"] for part in parts)
    if "cache_hit_rate" in parts[0]["properties"]:
        props["cache_hit_rate"] = min(part["properties"]["cache_hit_rate"] for part in parts)
    return values, props


if __name__ == "__main__":
    sys.exit(main())
