"""Serving benchmark: warm sharded service vs. cold per-call optimization.

Runs the mixed EC1/EC2/EC3 request mix (7 distinct (workload, strategy)
configurations, interleaved) through a long-lived
:class:`~repro.service.OptimizerService` and compares it against the cold
baseline that builds a fresh :class:`~repro.chase.optimizer.CBOptimizer` per
request.  Two claims are checked and recorded into ``BENCH_PR4.json``:

* **correctness** — every service response's plan set is signature-identical
  to its cold single-shot twin (hard assertion);
* **throughput** — with ``repeats`` rounds over the same catalogs the warm
  caches turn most chases into hits, so service throughput must be at least
  1.5x the cold baseline (asserted at the default scale: >= 50 requests).

``BENCH_QUICK=1`` shrinks the run to 3 rounds (21 requests) and records the
numbers without the speedup assertion (too little warm-up to be meaningful).
"""

import os

from conftest import record_bench, report

from repro.experiments.figures import service_throughput

BENCH_FILE = "BENCH_PR4.json"


def test_service_throughput(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    repeats = 3 if quick else 8  # 8 x 7-config mix = 56 requests
    result = benchmark.pedantic(
        service_throughput,
        kwargs={"repeats": repeats, "shards": 2, "workers": 2, "timeout": 60},
        iterations=1,
        rounds=1,
    )
    report(result)
    measurement = result.measurement

    # Correctness: the service never changes a plan set.
    assert measurement.plans_match
    assert measurement.errors == 0

    if not quick:
        assert measurement.request_count >= 50
        # The acceptance bar: warm serving beats cold per-call by >= 1.5x on
        # this container (the mix revisits each catalog `repeats` times, so
        # all but the first round of chases are cache hits).
        assert measurement.speedup >= 1.5, (
            f"warm service speedup {measurement.speedup:.2f}x < 1.5x "
            f"(cold {measurement.cold_seconds:.2f}s, warm {measurement.warm_seconds:.2f}s)"
        )
        assert measurement.cache_hit_rate > 0.5

    record_bench(
        "service_throughput",
        wall_clock=measurement.cold_seconds + measurement.warm_seconds,
        counters={
            "requests": measurement.request_count,
            "distinct_configs": measurement.distinct_configs,
            "shards": measurement.shards,
            "workers": measurement.workers,
            "cold_qps": round(measurement.cold_qps, 3),
            "warm_qps": round(measurement.warm_qps, 3),
            "speedup_warm_vs_cold": round(measurement.speedup, 3),
            "cache_hit_rate": round(measurement.cache_hit_rate, 4),
            "cache_evictions": measurement.cache_evictions,
            "cold_p50_s": round(measurement.cold_p50, 6),
            "cold_p95_s": round(measurement.cold_p95, 6),
            "warm_p50_s": round(measurement.warm_p50, 6),
            "warm_p95_s": round(measurement.warm_p95, 6),
            "plans_match": measurement.plans_match,
            "quick_mode": quick,
        },
        result=result,
        bench_file=BENCH_FILE,
        cpu_count=os.cpu_count(),
    )
