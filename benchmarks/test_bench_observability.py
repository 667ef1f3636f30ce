"""Observability benchmark: the per-stage latency breakdown of traced serving.

Runs the mixed EC1/EC2/EC3 request mix through a *traced*
:class:`~repro.service.OptimizerService` with one pool worker and records
where the wall clock goes, stage by stage (admission wait, shard queue,
chase fixpoints, containment checks, restrict calls, serialization), into
``BENCH_PR9.json``.  Two claims are checked:

* **bounded** — per request, the billed stage seconds sum to at most the
  measured request latency (one pool worker: stages are disjoint
  wall-clock slices);
* **attribution** — the engine stages (chase + containment + restrict)
  dominate the non-queueing time: tracing must explain where requests spend
  their time, not just wrap them.

``BENCH_QUICK=1`` shrinks the run to 2 rounds (14 requests).
"""

import os

from conftest import record_bench, report

from repro.experiments.figures import stage_breakdown

BENCH_FILE = "BENCH_PR9.json"


def test_stage_breakdown(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    repeats = 2 if quick else 6  # 6 x 7-config mix = 42 requests
    result = benchmark.pedantic(
        stage_breakdown,
        kwargs={"repeats": repeats, "shards": 1, "timeout": 60},
        iterations=1,
        rounds=1,
    )
    report(result)
    measurement = result.measurement

    # Every request carried a span tree, and every span tree respected the
    # tentpole invariant: sum(stage seconds) <= request duration.
    assert measurement.traced == measurement.request_count
    assert measurement.bounded
    assert measurement.errors == 0
    assert set(measurement.stage_seconds) == {
        "admission_wait",
        "queue_wait",
        "chase",
        "containment",
        "restrict",
        "serialize",
    }

    # Attribution: the engine stages explain most of the non-queue time
    # (queue_wait is load, not work — it scales with how fast the loop
    # submits, so it is excluded from the attribution bar).
    engine = sum(
        measurement.stage_seconds[stage] for stage in ("chase", "containment", "restrict")
    )
    overhead = (
        measurement.stage_seconds["admission_wait"]
        + measurement.stage_seconds["serialize"]
    )
    assert engine > overhead

    record_bench(
        "stage_breakdown",
        wall_clock=measurement.total_duration,
        counters={
            "requests": measurement.request_count,
            "distinct_configs": measurement.distinct_configs,
            "traced": measurement.traced,
            "accounted_fraction": round(measurement.accounted_fraction, 4),
            "bounded": measurement.bounded,
            "stage_seconds": {
                stage: round(seconds, 6)
                for stage, seconds in sorted(measurement.stage_seconds.items())
            },
            "stage_counts": dict(sorted(measurement.stage_counts.items())),
        },
        result=result,
        bench_file=BENCH_FILE,
    )
