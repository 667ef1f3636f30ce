"""Compare two sets of benchmark runs (the JSONL files ``series.py`` writes).

For every workload and end-to-end metric it prints each set's median and
quartiles, how many seed-paired runs the second set won, and a verdict by the
rule of the benchmark doc:

* ``improved``   -- the second set wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the first set's own spread
  (the distance between its quartiles);
* ``unresolved`` -- the spread of either set, as a share of its median, is
  wider than the metric's bound, unless every run of the second set reads
  better than every run of the first;
* ``regressed``  -- the second median is worse than the first by more than the
  metric's bound (``BENCHMARK.json``);
* ``unchanged``  -- otherwise.

It also prints every run, the failed-op counts and each run's workload
property (a run whose property does not hold is flagged), so a verdict can be
traced to its runs::

    python3 perfbench/compare.py results/parent.jsonl results/change.jsonl
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(first, second, better, bound):
    """Verdict of ``second`` against ``first``; see the module docstring."""
    q1a, mid_a, q3a = quartiles([value for _, value in first])
    q1b, mid_b, q3b = quartiles([value for _, value in second])
    sign = 1.0 if better == "lower" else -1.0
    by_seed = dict(first)
    wins = losses = 0
    for seed, value in second:
        if seed in by_seed and value != by_seed[seed]:
            if sign * (value - by_seed[seed]) < 0:
                wins += 1
            else:
                losses += 1
    pairs = wins + losses
    spread = max((q3a - q1a) / mid_a, (q3b - q1b) / mid_b)
    worse = sign * (mid_b - mid_a) / mid_a
    all_better = all(
        sign * (b - a) < 0 for _, b in second for _, a in first
    )
    if pairs and wins >= 0.9 * pairs and abs(mid_b - mid_a) > q3a - q1a and worse < 0:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "first": (q1a, mid_a, q3a),
        "second": (q1b, mid_b, q3b),
        "wins": wins,
        "pairs": pairs,
        "spread": spread,
        "change": worse,
        "verdict": outcome,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    first, second = load(argv[0]), load(argv[1])
    names = [os.path.basename(path).rsplit(".", 1)[0] for path in argv]
    worst = 0
    # The benchmark's workloads first, then any other workload the runs hold
    # (the service workloads are runnable but not in BENCHMARK.json).
    workloads = [w["name"] for w in benchmark["workloads"]]
    workloads += sorted({r["workload"] for r in first + second} - set(workloads))
    for workload in workloads:
        # Traced runs print per-layer metrics only; they are not compared.
        mine = {
            name: [
                r
                for r in records
                if r["workload"] == workload and not (r.get("run") or {}).get("trace")
            ]
            for name, records in zip(names, (first, second))
        }
        runs = {
            name: [r for r in records if (r.get("result") or {}).get("metrics")]
            for name, records in mine.items()
        }
        if not all(runs.values()):
            continue
        print(f"\n== {workload}: {len(runs[names[0]])} vs {len(runs[names[1]])} runs")
        for name in names:
            for record in mine[name]:
                if record not in runs[name] or record["exit_code"]:
                    worst = 1
                    failed = (record.get("result") or {}).get("failed")
                    print(
                        f"FAILED RUN {name} seed {record['seed']}: exit {record['exit_code']}, "
                        f"{failed} failed ops (left out of the statistics below)"
                    )
                elif (record.get("run") or {}).get("properties", {}).get("property_holds") is False:
                    worst = 1
                    print(f"PROPERTY BROKEN {name} seed {record['seed']}: not the stated workload")
        metrics = metric_specs(benchmark, runs[names[0]][0]["result"]["metrics"])
        print_runs(runs, names, metrics)
        print(
            f"{'metric':<16}{'bound':>6}  {names[0] + ' q1/med/q3':>28}  "
            f"{names[1] + ' q1/med/q3':>28}  {'wins':>6} {'spread':>7} {'change':>7}  verdict"
        )
        for metric in metrics:
            series = [
                [(r["seed"], r["result"]["metrics"][metric["name"]]["value"]) for r in runs[name]]
                for name in names
            ]
            outcome = verdict(series[0], series[1], metric["better"], metric["bound"])
            worst = max(worst, outcome["verdict"] in ("regressed", "unresolved"))
            print(
                f"{metric['name']:<16}{metric['bound']:>6.2f}  "
                f"{_fmt(outcome['first']):>28}  {_fmt(outcome['second']):>28}  "
                f"{outcome['wins']:>2}/{outcome['pairs']:<3} {outcome['spread']:>7.3f} "
                f"{outcome['change']:>+7.3f}  {outcome['verdict']}"
            )
    return 1 if worst else 0


def metric_specs(benchmark, printed):
    """The end-to-end metrics a workload printed, with their direction and bound.

    Metrics ``BENCHMARK.json`` declares take its bound; the service
    workloads' own metrics take the largest bound the contract allows.
    """
    declared = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    return [
        declared.get(name)
        or {"name": name, "better": "higher" if name.endswith("_rps") else "lower", "bound": 0.25}
        for name in printed
    ]


def print_runs(runs, names, metrics):
    metrics = [metric["name"] for metric in metrics]
    print(f"{'set':<10}{'seed':>5}{'fail':>5}  " + "".join(f"{m:>15}" for m in metrics) + "  property")
    for name in names:
        for record in sorted(runs[name], key=lambda r: r["seed"]):
            values = record["result"]["metrics"]
            props = (record.get("run") or {}).get("properties", {})
            prop = {
                key: round(props[key], 4) if isinstance(props[key], float) else props[key]
                for key in (
                    "property_holds",
                    "cache_hits",
                    "cache_hit_rate",
                    "miss_share",
                    "sessions_evicted_in_phase",
                )
                if key in props
            }
            print(
                f"{name:<10}{record['seed']:>5}{record['result']['failed']:>5}  "
                + "".join(f"{values[m]['value']:>15.4f}" for m in metrics)
                + f"  {prop}"
            )


def _fmt(triple):
    return "/".join(f"{value:.4g}" for value in triple)


if __name__ == "__main__":
    sys.exit(main())
