"""Drivers for every table and figure of the paper's evaluation (Section 5).

Each ``figureN_*`` / ``plans_table_*`` function runs the corresponding
experiment at a configurable (laptop-friendly) scale and returns a result
object with the measured rows and a ``render()`` method that prints the same
rows/series the paper reports.  The pytest-benchmark targets in
``benchmarks/`` call these drivers with their default parameters.

Absolute times are not expected to match the 1999 prototype; the *shapes*
are: chase time stays small and grows smoothly (Figure 5), FB's time per plan
explodes while OQF and OCS stay flat or grow much more slowly (Figures 6-7),
optimization time drops as strata shrink (Figure 8), and plans that use more
materialized views execute faster, yielding large positive Redux values
(Figures 9-10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chase.stratify import stratify_constraints
from repro.experiments.harness import (
    measure_chase,
    measure_crash_recovery,
    measure_execution,
    measure_parallel_scaling,
    measure_service_throughput,
    measure_stage_breakdown,
    measure_strategy,
    measure_warm_restart,
)
from repro.experiments.reporting import render_table
from repro.workloads.ec1 import build_ec1
from repro.workloads.ec2 import build_ec2
from repro.workloads.ec3 import build_ec3

#: Default timeout (seconds) applied to a single backchase run, mirroring the
#: two-minute timeout used in the paper's experiments.
DEFAULT_TIMEOUT = 120.0


@dataclass
class ExperimentResult:
    """A generic experiment result: labelled rows plus a rendering recipe."""

    name: str
    headers: list
    rows: list = field(default_factory=list)
    notes: str = ""

    def render(self):
        text = render_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += f"\n{self.notes}"
        return text


# ---------------------------------------------------------------------- #
# Figure 5: feasibility of the chase
# ---------------------------------------------------------------------- #
def figure5_ec1(settings=((5, 4), (7, 7), (10, 9))):
    """Chase time for EC1 as the number of indexes grows (Figure 5, left).

    ``settings`` is a sequence of ``(relations, secondary_indexes)`` pairs;
    the number of indexes is ``relations + secondary_indexes``.
    """
    result = ExperimentResult(
        "Figure 5 (EC1): time to chase vs #indexes",
        [
            "#indexes",
            "#constraints",
            "query size",
            "chase time (s)",
            "universal plan size",
            "closure queries",
        ],
    )
    for relations, secondary in settings:
        workload = build_ec1(relations, secondary)
        measurement = measure_chase(workload)
        result.rows.append(
            (
                relations + secondary,
                measurement.constraint_count,
                measurement.query_size,
                measurement.chase_time,
                measurement.universal_plan_size,
                measurement.closure_queries,
            )
        )
    return result


def figure5_ec2(stars=3, corner_range=(3, 4, 5, 6, 7), views_options=(2, 3)):
    """Chase time for EC2 as query size grows, one series per constraint count."""
    series = {}
    for views in views_options:
        label = f"{stars * views} views + {stars} keys = {stars * (1 + 2 * views)} constraints"
        points = []
        for corners in corner_range:
            if views > corners - 1:
                continue
            workload = build_ec2(stars, corners, views)
            measurement = measure_chase(workload)
            points.append((measurement.query_size, measurement.chase_time))
        series[label] = points
    result = ExperimentResult(
        "Figure 5 (EC2): time to chase vs query size",
        ["query size"] + list(series),
    )
    result.rows = _series_rows(series)
    return result


def figure5_ec3(class_counts=(2, 4, 6, 8, 10)):
    """Chase time for EC3 as the number of classes grows (Figure 5, right)."""
    result = ExperimentResult(
        "Figure 5 (EC3): time to chase vs #classes",
        ["#classes", "#constraints", "chase time (s)", "universal plan size", "closure queries"],
    )
    for classes in class_counts:
        asrs = max((classes - 1) // 2, 0)
        workload = build_ec3(classes, asrs)
        measurement = measure_chase(workload)
        result.rows.append(
            (
                classes,
                measurement.constraint_count,
                measurement.chase_time,
                measurement.universal_plan_size,
                measurement.closure_queries,
            )
        )
    return result


# ---------------------------------------------------------------------- #
# Section 5.3.1: number of generated plans (EC2 table)
# ---------------------------------------------------------------------- #
#: The parameter rows of the table in Section 5.3.1 together with the plan
#: counts the paper reports for FB/OQF and for OCS.
PLANS_TABLE_ROWS = (
    (1, 3, 1, 2, 2),
    (1, 3, 2, 4, 3),
    (1, 4, 3, 7, 5),
    (1, 5, 1, 2, 2),
    (1, 5, 2, 4, 3),
    (1, 5, 3, 7, 5),
    (1, 5, 4, 13, 8),
    (2, 5, 1, 4, 4),
    (3, 5, 1, 8, 8),
)


def plans_table_ec2(rows=PLANS_TABLE_ROWS, timeout=DEFAULT_TIMEOUT):
    """Number of plans generated by FB/OQF/OCS on EC2 (the Section 5.3.1 table)."""
    result = ExperimentResult(
        "Number of plans in EC2 (Section 5.3.1)",
        ["s", "c", "v", "FB", "OQF", "OCS", "paper FB/OQF", "paper OCS"],
        notes="s = stars, c = corners per star, v = views per star",
    )
    for stars, corners, views, paper_complete, paper_ocs in rows:
        workload = build_ec2(stars, corners, views)
        counts = {}
        for strategy in ("fb", "oqf", "ocs"):
            counts[strategy] = measure_strategy(workload, strategy, timeout=timeout).plan_count
        result.rows.append(
            (
                stars,
                corners,
                views,
                counts["fb"],
                counts["oqf"],
                counts["ocs"],
                paper_complete,
                paper_ocs,
            )
        )
    return result


# ---------------------------------------------------------------------- #
# Figures 6 and 7: optimization time per generated plan
# ---------------------------------------------------------------------- #
def figure6_ec1(settings=((3, 0), (3, 1), (3, 2), (4, 0), (4, 1)), timeout=60.0):
    """Time per plan for FB/OQF/OCS on EC1 (Figure 6, right)."""
    result = ExperimentResult(
        "Figure 6 (EC1): time per plan, [#relations, #secondary indexes]",
        ["[n, j]", "FB tpp (s)", "OQF tpp (s)", "OCS tpp (s)", "FB timed out"],
    )
    for relations, secondary in settings:
        workload = build_ec1(relations, secondary)
        measurements = {
            strategy: measure_strategy(workload, strategy, timeout=timeout)
            for strategy in ("fb", "oqf", "ocs")
        }
        result.rows.append(
            (
                f"[{relations},{secondary}]",
                measurements["fb"].time_per_plan,
                measurements["oqf"].time_per_plan,
                measurements["ocs"].time_per_plan,
                measurements["fb"].timed_out,
            )
        )
    return result


def figure6_ec3(class_counts=(2, 3, 4, 5), timeout=60.0, asrs=0):
    """Time per plan for FB(=OQF) vs OCS on EC3 (Figure 6, left)."""
    result = ExperimentResult(
        "Figure 6 (EC3): time per plan vs #classes traversed",
        ["#classes", "FB(=OQF) tpp (s)", "OCS tpp (s)", "FB plans", "OCS plans", "FB timed out"],
    )
    for classes in class_counts:
        workload = build_ec3(classes, min(asrs, max((classes - 1) // 2, 0)))
        fb = measure_strategy(workload, "fb", timeout=timeout)
        ocs = measure_strategy(workload, "ocs", timeout=timeout)
        result.rows.append(
            (classes, fb.time_per_plan, ocs.time_per_plan, fb.plan_count, ocs.plan_count, fb.timed_out)
        )
    return result


def figure7_ec2(points=((1, 1, 3), (1, 1, 5), (2, 1, 3), (1, 2, 3), (2, 2, 3), (1, 3, 3)), timeout=60.0):
    """Time per plan for FB/OQF/OCS on EC2 (Figure 7).

    ``points`` are ``(views per star, stars, corners per star)`` triples,
    following the paper's ``[#views per star, #stars, size of star]`` axis.
    """
    result = ExperimentResult(
        "Figure 7 (EC2): time per plan, [#views per star, #stars, star size]",
        [
            "[v, s, c]",
            "FB tpp (s)",
            "OQF tpp (s)",
            "OCS tpp (s)",
            "FB timed out",
            "FB queries",
            "OQF queries",
        ],
    )
    for views, stars, corners in points:
        workload = build_ec2(stars, corners, views)
        measurements = {
            strategy: measure_strategy(workload, strategy, timeout=timeout)
            for strategy in ("fb", "oqf", "ocs")
        }
        result.rows.append(
            (
                f"[{views},{stars},{corners}]",
                measurements["fb"].time_per_plan,
                measurements["oqf"].time_per_plan,
                measurements["ocs"].time_per_plan,
                measurements["fb"].timed_out,
                measurements["fb"].closure_queries,
                measurements["oqf"].closure_queries,
            )
        )
    return result


# ---------------------------------------------------------------------- #
# Figure 8: effect of stratification granularity
# ---------------------------------------------------------------------- #
def figure8_granularity(workloads=None, timeout=120.0):
    """Optimization time as a function of stratum size (Figure 8).

    For each workload the base strata are computed by Algorithm C.1; they are
    then merged into coarser groups of ``g`` base strata and the whole OCS
    pipeline is re-run, so ``g = 1`` is OCS proper and ``g = #strata`` is a
    single chase/backchase with every constraint (FB-like).  Times are
    normalised to the ``g = 1`` run of the same workload, as in the paper.
    """
    if workloads is None:
        workloads = [
            ("EC3 with 5 classes", build_ec3(5)),
            ("EC3 with 4 classes", build_ec3(4)),
            ("EC2 [3,3,1]", build_ec2(3, 3, 1)),
        ]
    series = {}
    for label, workload in workloads:
        base_strata = stratify_constraints(workload.catalog.constraints())
        optimizer = workload.optimizer(timeout=timeout)
        points = []
        baseline = None
        for group_size in range(1, len(base_strata) + 1):
            grouped = _group_strata(base_strata, group_size)
            run = optimizer.optimize_with_strata(workload.query, grouped)
            elapsed = run.total_time
            if baseline is None:
                baseline = elapsed if elapsed > 0 else 1e-9
            points.append((group_size, elapsed / baseline))
        series[label] = points
    result = ExperimentResult(
        "Figure 8: effect of stratification granularity (normalised time)",
        ["stratum size"] + list(series),
    )
    result.rows = _series_rows(series)
    return result


def _group_strata(strata, group_size):
    """Merge consecutive base strata into groups of ``group_size``."""
    grouped = []
    for start in range(0, len(strata), group_size):
        merged = []
        seen = set()
        for stratum in strata[start : start + group_size]:
            for dependency in stratum:
                if dependency.name not in seen:
                    seen.add(dependency.name)
                    merged.append(dependency)
        grouped.append(merged)
    return grouped


# ---------------------------------------------------------------------- #
# Parallel backchase scaling (post-paper: the PR 2 experiment)
# ---------------------------------------------------------------------- #
def parallel_backchase_scaling(
    stars=2,
    corners=4,
    views=2,
    worker_counts=(1, 2, 4, 8),
    executor="processes",
    timeout=DEFAULT_TIMEOUT,
    workers=None,
):
    """Wave-parallel backchase vs. the sequential engine on one EC2 instance.

    The chase runs once; the sequential :class:`FullBackchase` sets the
    baseline, then the wave engine runs at each worker count on the same
    universal plan.  Every row asserts the two engines' plan sets are
    signature-identical; the speedup column tracks the wall-clock win (bounded
    by the machine's usable cores — the ``serial`` executor and 1-worker rows
    quantify the wave engine's own overhead).

    ``workers`` (the CLI's ``--workers`` flag) overrides ``worker_counts``
    with the single count requested.
    """
    if workers is not None:
        worker_counts = (workers,)
    workload = build_ec2(stars, corners, views)
    measurements = measure_parallel_scaling(
        workload, worker_counts=worker_counts, executor=executor, timeout=timeout
    )
    serial_time = measurements[0].serial_time if measurements else 0.0
    result = ExperimentResult(
        f"Parallel backchase scaling on EC2 [{stars} stars, {corners} corners/star, {views} views/star]",
        ["workers", "executor", "backchase time (s)", "speedup vs serial", "plans", "waves", "matches serial"],
        notes=f"sequential FullBackchase baseline: {serial_time:.3f}s",
    )
    for measurement in measurements:
        result.rows.append(
            (
                measurement.workers,
                measurement.executor,
                measurement.backchase_time,
                round(measurement.speedup, 3),
                measurement.plan_count,
                measurement.waves,
                measurement.plans_match_serial,
            )
        )
    result.measurements = measurements
    return result


# ---------------------------------------------------------------------- #
# Service throughput (post-paper: the PR 4 experiment)
# ---------------------------------------------------------------------- #
def service_throughput(
    repeats=8,
    shards=2,
    workers=2,
    timeout=DEFAULT_TIMEOUT,
):
    """Warm sharded serving vs. cold per-call optimization on a mixed workload.

    Runs ``repeats`` interleaved rounds of the mixed EC1/EC2/EC3 request mix
    (:func:`~repro.experiments.harness.default_service_mix`) twice: cold —
    a fresh :class:`~repro.chase.optimizer.CBOptimizer` per request — and
    warm, through a long-lived :class:`~repro.service.OptimizerService`.
    Every warm response is asserted signature-identical to its cold twin;
    the table reports throughput, the cross-request cache-hit rate, and the
    latency percentiles.
    """
    measurement = measure_service_throughput(
        repeats=repeats, shards=shards, workers=workers, timeout=timeout
    )
    result = ExperimentResult(
        f"Optimizer service throughput [{measurement.request_count} requests, "
        f"{measurement.distinct_configs} configs, {measurement.shards} shards, "
        f"{measurement.workers} workers]",
        [
            "mode",
            "total (s)",
            "queries/s",
            "p50 (s)",
            "p95 (s)",
            "cache hit rate",
            "plans match",
        ],
        notes=(
            f"warm speedup {measurement.speedup:.2f}x; "
            f"{measurement.cache_evictions} evictions"
        ),
    )
    result.rows.append(
        ("cold per-call", round(measurement.cold_seconds, 3), round(measurement.cold_qps, 2),
         round(measurement.cold_p50, 4), round(measurement.cold_p95, 4), "-", True)
    )
    result.rows.append(
        ("warm service", round(measurement.warm_seconds, 3), round(measurement.warm_qps, 2),
         round(measurement.warm_p50, 4), round(measurement.warm_p95, 4),
         round(measurement.cache_hit_rate, 3), measurement.plans_match)
    )
    result.measurement = measurement
    return result


# ---------------------------------------------------------------------- #
# Stage breakdown (post-paper: the PR 9 observability experiment)
# ---------------------------------------------------------------------- #
def stage_breakdown(repeats=4, shards=1, timeout=DEFAULT_TIMEOUT):
    """Where traced requests spend their time, stage by stage.

    Runs ``repeats`` rounds of the mixed EC1/EC2/EC3 request mix through a
    traced :class:`~repro.service.OptimizerService` with one pool worker
    and aggregates every span tree: per stage, the total billed wall
    seconds, the span count and the share of the accounted time.  The
    ``bounded`` note asserts the tracing invariant — per request,
    ``sum(stages) <= duration``.
    """
    measurement = measure_stage_breakdown(repeats=repeats, shards=shards, timeout=timeout)
    result = ExperimentResult(
        f"Request stage breakdown [{measurement.request_count} requests, "
        f"{measurement.distinct_configs} configs, {measurement.shards} shard(s), 1 worker]",
        ["stage", "total (s)", "spans", "share of accounted"],
        notes=(
            f"{measurement.traced}/{measurement.request_count} traced; "
            f"stages account for {measurement.accounted_fraction:.1%} of "
            f"{measurement.total_duration:.3f}s total; "
            f"bounded (sum <= duration per request): {measurement.bounded}"
        ),
    )
    accounted = measurement.accounted_seconds or 1.0
    for stage, seconds in sorted(
        measurement.stage_seconds.items(), key=lambda item: -item[1]
    ):
        result.rows.append(
            (
                stage,
                round(seconds, 4),
                measurement.stage_counts[stage],
                round(seconds / accounted, 3),
            )
        )
    result.measurement = measurement
    return result


# ---------------------------------------------------------------------- #
# Warm restart (post-paper: the PR 5 cache-persistence experiment)
# ---------------------------------------------------------------------- #
def warm_restart(
    repeats=8,
    shards=2,
    workers=2,
    timeout=DEFAULT_TIMEOUT,
    snapshot=None,
):
    """Cold service vs. a restarted service loading a cache snapshot.

    The cold life runs the mixed request mix from empty caches and saves its
    warm sessions (chase fixpoints + containment-memo verdicts) with
    ``save_caches``; a brand-new service loads the snapshot and replays the
    same requests.  The table reports both lives' wall clock and hit rates;
    the speedup row is what persistence buys a redeployed server.
    """
    measurement = measure_warm_restart(
        repeats=repeats,
        shards=shards,
        workers=workers,
        timeout=timeout,
        snapshot_path=snapshot,
    )
    result = ExperimentResult(
        f"Warm restart from cache snapshot [{measurement.request_count} requests, "
        f"{measurement.distinct_configs} configs, {measurement.shards} shards, "
        f"{measurement.workers} workers]",
        [
            "life",
            "total (s)",
            "queries/s",
            "cache hit rate",
            "memo hit rate",
            "plans match",
        ],
        notes=(
            f"restart speedup {measurement.speedup:.2f}x; "
            f"{measurement.sessions_saved} sessions, "
            f"{measurement.snapshot_bytes / 1024:.0f} KiB snapshot"
        ),
    )
    result.rows.append(
        (
            "cold start",
            round(measurement.cold_seconds, 3),
            round(measurement.request_count / measurement.cold_seconds, 2)
            if measurement.cold_seconds > 0
            else float("inf"),
            round(measurement.cache_hit_rate_cold, 3),
            round(measurement.memo_hit_rate_cold, 3),
            True,
        )
    )
    result.rows.append(
        (
            "restarted (snapshot)",
            round(measurement.restart_seconds, 3),
            round(measurement.request_count / measurement.restart_seconds, 2)
            if measurement.restart_seconds > 0
            else float("inf"),
            round(measurement.cache_hit_rate_restart, 3),
            round(measurement.memo_hit_rate_restart, 3),
            measurement.plans_match,
        )
    )
    result.measurement = measurement
    return result


def crash_recovery(
    repeats=6,
    shards=2,
    workers=2,
    timeout=DEFAULT_TIMEOUT,
):
    """Crash restart vs. graceful restart, and what client retries cost.

    Three lives of the service run the mixed request list: a warming life
    (with a mid-life "periodic" snapshot and a drain-time "graceful" one), a
    crash-restart life recovering from the periodic snapshot — warm only for
    the sessions the last background snapshot caught — and a graceful-restart
    life replaying fully warm.  A final socket phase runs the records twice
    through the TCP front end, clean and under deterministic injected
    read/write faults with a retrying client, and reports the p50/p95 latency
    overhead retries cost.  Both differentials (crash and retry) must leave
    every plan digest unchanged.
    """
    measurement = measure_crash_recovery(
        repeats=repeats,
        shards=shards,
        workers=workers,
        timeout=timeout,
    )
    result = ExperimentResult(
        f"Crash recovery and retry overhead [{measurement.request_count} requests, "
        f"{measurement.distinct_configs} configs, {measurement.shards} shards, "
        f"{measurement.workers} workers]",
        [
            "life",
            "load (s)",
            "replay (s)",
            "cache hit rate",
            "memo hit rate",
            "cache misses",
            "plans match",
        ],
        notes=(
            f"periodic snapshot caught {measurement.sessions_periodic}/"
            f"{measurement.sessions_graceful} sessions; "
            f"{measurement.faults_injected} faults injected, "
            f"{measurement.retry_replays} replays over "
            f"{measurement.retry_requests} socket requests; "
            f"retry overhead p50 {measurement.retry_overhead_p50 * 1000:+.1f} ms, "
            f"p95 {measurement.retry_overhead_p95 * 1000:+.1f} ms "
            f"(digests identical: {measurement.retry_plans_match})"
        ),
    )
    result.rows.append(
        (
            "warming (cold)",
            0.0,
            round(measurement.warm_seconds, 3),
            0.0,
            0.0,
            "-",
            True,
        )
    )
    result.rows.append(
        (
            "crash restart (periodic snapshot)",
            round(measurement.crash_load_seconds, 3),
            round(measurement.crash_replay_seconds, 3),
            round(measurement.crash_cache_hit_rate, 3),
            round(measurement.crash_memo_hit_rate, 3),
            measurement.crash_cache_misses,
            measurement.plans_match,
        )
    )
    result.rows.append(
        (
            "graceful restart (drain snapshot)",
            round(measurement.graceful_load_seconds, 3),
            round(measurement.graceful_replay_seconds, 3),
            round(measurement.graceful_cache_hit_rate, 3),
            round(measurement.graceful_memo_hit_rate, 3),
            measurement.graceful_cache_misses,
            measurement.plans_match,
        )
    )
    result.measurement = measurement
    return result


# ---------------------------------------------------------------------- #
# Figure 9: plan detail for one EC2 instance
# ---------------------------------------------------------------------- #
def figure9_plan_detail(stars=3, corners=2, views=1, size=5000, seed=0, timeout=DEFAULT_TIMEOUT):
    """Execute every generated plan for one EC2 instance (Figure 9).

    The paper's instance uses 3 stars of 2 corners with one view per star,
    which yields 8 plans; each row reports the plan's execution time, the
    views it uses and the corner relations it still scans.
    """
    workload = build_ec2(stars, corners, views)
    measurement = measure_execution(workload, strategy="oqf", size=size, seed=seed, timeout=timeout)
    result = ExperimentResult(
        f"Figure 9: plans for EC2 [{stars} stars, {corners} corners/star, {views} view/star]",
        ["plan #", "execution time (s)", "views used", "corner relations used", "matches original"],
        notes=(
            f"{len(measurement.plan_rows)} plans generated; "
            f"optimization time {measurement.optimization_time:.2f}s; "
            f"original query execution time {measurement.original_execution_time:.3f}s"
        ),
    )
    for number, entry in enumerate(measurement.plan_rows, start=1):
        corners_used = [name for name in entry["relations_used"] if name.startswith("S")]
        result.rows.append(
            (
                number,
                entry["execution_time"],
                ", ".join(entry["views_used"]) or "-",
                ", ".join(corners_used) or "-",
                entry["matches_original"],
            )
        )
    result.measurement = measurement
    return result


# ---------------------------------------------------------------------- #
# Figure 10: end-to-end time reduction
# ---------------------------------------------------------------------- #
def figure10_time_reduction(
    points=((2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 3, 2), (3, 3, 1)),
    size=10000,
    seed=0,
    timeout=DEFAULT_TIMEOUT,
):
    """Redux and ReduxFirst over an EC2 parameter sweep (Figure 10).

    ``points`` are ``(stars, corners per star, views per star)`` triples, the
    paper's ``[#stars, #corner relations per star, #views per star]`` axis.
    """
    result = ExperimentResult(
        "Figure 10: time reduction [#stars, #corners/star, #views/star]",
        ["[s, c, v]", "OptT (s)", "ExT (s)", "ExTBest (s)", "#plans", "Redux", "ReduxFirst"],
        notes="Redux = (ExT - (ExTBest + OptT)) / ExT; ReduxFirst charges only OptT / #plans",
    )
    measurements = []
    for stars, corners, views in points:
        workload = build_ec2(stars, corners, views)
        measurement = measure_execution(workload, strategy="oqf", size=size, seed=seed, timeout=timeout)
        measurements.append(measurement)
        result.rows.append(
            (
                f"[{stars},{corners},{views}]",
                measurement.optimization_time,
                measurement.original_execution_time,
                measurement.best_execution_time,
                len(measurement.plan_rows),
                round(measurement.redux, 3),
                round(measurement.redux_first, 3),
            )
        )
    result.measurements = measurements
    return result


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _series_rows(series):
    xs = []
    for points in series.values():
        for x, _ in points:
            if x not in xs:
                xs.append(x)
    rows = []
    for x in sorted(xs):
        row = [x]
        for points in series.values():
            lookup = dict(points)
            row.append(lookup.get(x, ""))
        rows.append(row)
    return rows


__all__ = [
    "DEFAULT_TIMEOUT",
    "ExperimentResult",
    "PLANS_TABLE_ROWS",
    "figure10_time_reduction",
    "figure5_ec1",
    "figure5_ec2",
    "figure5_ec3",
    "figure6_ec1",
    "figure6_ec3",
    "figure7_ec2",
    "figure8_granularity",
    "figure9_plan_detail",
    "parallel_backchase_scaling",
    "plans_table_ec2",
    "service_throughput",
    "stage_breakdown",
    "warm_restart",
]
