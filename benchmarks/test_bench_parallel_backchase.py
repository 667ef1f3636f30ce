"""Scaling benchmark: wave-parallel backchase vs. the inline engine.

Chases one EC2 instance to its universal plan, runs the inline
:class:`FullBackchase` (the same level-wise walk, evaluated on the caller's
thread) as the baseline, then the wave-parallel
:class:`ParallelBackchase` (``processes`` executor) at 1/2/4/8 workers on the
same plan.  Two claims are checked and recorded into ``BENCH_PR2.json``:

* **correctness** — every parallel run produces a plan set
  signature-identical to the inline engine's (hard assertion);
* **scaling** — wall-clock speedup vs. the inline baseline per worker
  count, always recorded.  The >= 1.5x at 4 workers claim is only *asserted*
  when ``BENCH_ASSERT_SPEEDUP=1`` is set **and** the host exposes >= 4
  usable cores: shared CI runners and laptops under load make hard speedup
  assertions flaky, so the default run records the trajectory (alongside
  ``cpu_count``) without gating the suite on it.

``BENCH_QUICK=1`` (the ``make bench-quick`` target) shrinks the instance and
the worker grid so the benchmark finishes in a few seconds.
"""

import os

from conftest import record_bench, report

from repro.experiments.figures import parallel_backchase_scaling


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def test_parallel_backchase_scaling(benchmark):
    quick = bool(os.environ.get("BENCH_QUICK"))
    kwargs = (
        {"stars": 1, "corners": 4, "views": 2, "worker_counts": (1, 2, 4), "timeout": 60}
        if quick
        else {"stars": 2, "corners": 4, "views": 2, "worker_counts": (1, 2, 4, 8), "timeout": 90}
    )
    result = benchmark.pedantic(
        parallel_backchase_scaling,
        kwargs={**kwargs, "executor": "processes"},
        iterations=1,
        rounds=1,
    )
    report(result)

    by_workers = {row[0]: row for row in result.rows}
    speedups = {workers: row[3] for workers, row in by_workers.items()}
    record_bench(
        "parallel_backchase_ec2_quick" if quick else "parallel_backchase_ec2",
        result=result,
        bench_file="BENCH_PR2.json",
        counters={
            "serial_backchase_s": round(result.measurements[0].serial_time, 6),
            "speedup_by_workers": {str(w): s for w, s in sorted(speedups.items())},
        },
        executor="processes",
        cpu_count=os.cpu_count(),
        usable_cpus=_usable_cpus(),
        quick=quick,
    )

    # Correctness: the wave engine's plan sets are signature-identical to the
    # inline engine's at every worker count, and nothing timed out.  A
    # timed-out *serial* baseline would make the reference plan set partial
    # and every comparison meaningless, so that fails loudly on its own.
    for measurement in result.measurements:
        assert not measurement.serial_timed_out, "serial baseline timed out; raise the timeout"
        assert measurement.plans_match_serial
        assert not measurement.timed_out

    # Scaling: only asserted on explicit opt-in AND capable hardware (shared
    # CI runners make hard wall-clock assertions flaky).
    if os.environ.get("BENCH_ASSERT_SPEEDUP") and _usable_cpus() >= 4 and 4 in speedups:
        assert speedups[4] >= 1.5
