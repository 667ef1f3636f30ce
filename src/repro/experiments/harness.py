"""Measurement helpers shared by the experiment drivers.

Every quantity the paper's evaluation reports is produced by one of the
helpers below:

* chase time as a function of query size and number of constraints
  (Section 5.2),
* optimization time per generated plan for a strategy (Section 5.3),
* end-to-end processing time of the generated plans on a populated database
  (Section 5.4), including the ``Redux`` / ``ReduxFirst`` indices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.chase.chase import chase
from repro.engine.executor import execute_timed


@dataclass
class ChaseMeasurement:
    """Outcome of one chase-feasibility measurement (Figure 5).

    Besides the paper's axes (time, sizes), the engine's work counters are
    recorded so the benchmark suite can track the perf trajectory across PRs
    (closure queries is the machine-independent proxy for chase effort).
    """

    params: dict
    query_size: int
    constraint_count: int
    chase_time: float
    universal_plan_size: int
    closure_queries: int = 0
    candidates_tried: int = 0
    deps_checked: int = 0
    deps_skipped: int = 0


def measure_chase(workload, **chase_kwargs):
    """Chase the workload's query with all constraints and record the cost."""
    constraints = workload.catalog.constraints()
    result = chase(workload.query, constraints, **chase_kwargs)
    return ChaseMeasurement(
        params=dict(workload.params),
        query_size=workload.query.size(),
        constraint_count=len(constraints),
        chase_time=result.elapsed,
        universal_plan_size=result.query.size(),
        closure_queries=result.counters.closure_queries,
        candidates_tried=result.counters.candidates_tried,
        deps_checked=result.counters.deps_checked,
        deps_skipped=result.counters.deps_skipped,
    )


@dataclass
class StrategyMeasurement:
    """Outcome of one optimizer run under a given strategy (Figures 6-7)."""

    params: dict
    strategy: str
    plan_count: int
    optimization_time: float
    time_per_plan: float
    subqueries_explored: int
    timed_out: bool
    result: object = field(repr=False, default=None)
    closure_queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


def measure_strategy(workload, strategy, timeout=None):
    """Optimize the workload's query under ``strategy`` and record the cost."""
    optimizer = workload.optimizer(timeout=timeout)
    result = optimizer.optimize(workload.query, strategy=strategy)
    return StrategyMeasurement(
        params=dict(workload.params),
        strategy=strategy,
        plan_count=result.plan_count,
        optimization_time=result.total_time,
        time_per_plan=result.time_per_plan(),
        subqueries_explored=result.subqueries_explored,
        timed_out=result.timed_out,
        result=result,
        closure_queries=result.closure_queries,
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
    )


@dataclass
class ServiceThroughputMeasurement:
    """Warm sharded service vs. cold per-call optimization (the PR 4 experiment).

    ``cold_seconds`` runs every request through a *fresh*
    :class:`~repro.chase.optimizer.CBOptimizer` sequentially (per-call
    caches — the library-call baseline); ``warm_seconds`` runs the
    same request list through a long-lived
    :class:`~repro.service.OptimizerService`.  ``plans_match`` is the
    correctness half: every service response's plan set must be
    signature-identical to its cold twin.  ``cache_hit_rate`` is measured
    *across* requests (the warm caches are exactly what the cold baseline
    lacks).
    """

    request_count: int
    distinct_configs: int
    shards: int
    workers: int
    cold_seconds: float
    warm_seconds: float
    cold_qps: float
    warm_qps: float
    speedup: float
    cache_hit_rate: float
    cache_evictions: int
    cold_p50: float
    cold_p95: float
    warm_p50: float
    warm_p95: float
    plans_match: bool
    errors: int = 0


def default_service_mix():
    """The mixed EC1/EC2/EC3 request mix the serving benchmarks use.

    Seven distinct (workload, strategy) configurations — small enough that a
    single cold call stays sub-second, varied enough that routing spreads
    them over shards and every strategy's stage pipeline is exercised.
    """
    from repro.workloads import build_ec1, build_ec2, build_ec3

    return [
        (build_ec1(2, 1), "fb"),
        (build_ec1(3, 0), "ocs"),
        (build_ec2(1, 3, 1), "fb"),
        (build_ec2(1, 3, 2), "oqf"),
        (build_ec2(2, 2, 1), "oqf"),
        (build_ec3(3, 0), "fb"),
        (build_ec3(3, 1), "ocs"),
    ]


def measure_service_throughput(
    mix=None,
    repeats=8,
    shards=2,
    workers=2,
    max_inflight=4,
    timeout=None,
):
    """Measure the warm service against the cold per-call baseline.

    The request list interleaves ``repeats`` rounds of the configuration
    ``mix`` (round-robin, so concurrently in-flight requests come from
    different catalogs and share each shard's worker pool).
    """
    from repro.service import OptimizerService

    mix = mix if mix is not None else default_service_mix()
    requests = [config for _ in range(repeats) for config in mix]

    cold_latencies = []
    cold_signatures = []
    cold_start = time.perf_counter()
    for workload, strategy in requests:
        call_start = time.perf_counter()
        result = workload.optimizer(timeout=timeout).optimize(workload.query, strategy=strategy)
        cold_latencies.append(time.perf_counter() - call_start)
        cold_signatures.append({plan.signature() for plan in result.plans})
    cold_seconds = time.perf_counter() - cold_start

    with OptimizerService(
        shards=shards,
        workers=workers,
        max_inflight=max_inflight,
        default_timeout=timeout,
    ) as service:
        warm_start = time.perf_counter()
        futures = [
            service.submit(workload.query, strategy=strategy, catalog=workload.catalog)
            for workload, strategy in requests
        ]
        responses = [future.result() for future in futures]
        warm_seconds = time.perf_counter() - warm_start
        stats = service.stats()

    plans_match = all(
        response.ok
        and {plan.signature() for plan in response.result.plans} == cold_signatures[index]
        for index, response in enumerate(responses)
    )
    from repro.service.metrics import percentile
    from repro.service.shard import resolve_worker_count

    return ServiceThroughputMeasurement(
        request_count=len(requests),
        distinct_configs=len(mix),
        shards=len(stats.shards),
        workers=resolve_worker_count(workers),
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        cold_qps=len(requests) / cold_seconds if cold_seconds > 0 else float("inf"),
        warm_qps=len(requests) / warm_seconds if warm_seconds > 0 else float("inf"),
        speedup=cold_seconds / warm_seconds if warm_seconds > 0 else float("inf"),
        cache_hit_rate=stats.cache_hit_rate,
        cache_evictions=stats.cache_evictions,
        cold_p50=percentile(cold_latencies, 0.50),
        cold_p95=percentile(cold_latencies, 0.95),
        warm_p50=stats.p50_latency,
        warm_p95=stats.p95_latency,
        plans_match=plans_match,
        errors=stats.errors,
    )


@dataclass
class StageBreakdownMeasurement:
    """Per-stage latency breakdown of traced service requests (PR 9).

    Every request runs through a traced
    :class:`~repro.service.OptimizerService` with **one** pool worker per
    shard, so each span tree's stage seconds are disjoint wall-clock slices
    of its request: ``sum(stages) <= duration`` holds per trace, and
    ``accounted_fraction`` (billed seconds / total traced wall seconds) says
    how much of the pipeline the six stages explain — the remainder is
    framework overhead (routing, future plumbing, metrics).
    """

    request_count: int
    distinct_configs: int
    shards: int
    traced: int
    stage_seconds: dict
    stage_counts: dict
    total_duration: float
    accounted_seconds: float
    accounted_fraction: float
    bounded: bool
    errors: int = 0


def measure_stage_breakdown(mix=None, repeats=4, shards=1, timeout=None):
    """Trace ``repeats`` rounds of the mixed workload and aggregate stages.

    One pool worker on purpose (see :class:`StageBreakdownMeasurement`):
    with more, a stage's workers run concurrently and the trace accumulates
    CPU-seconds, which can exceed the request's wall clock — fine for
    attribution, wrong for a breakdown that should sum to (at most) the
    latency.
    """
    from repro.service import OptimizerService, Tracer

    mix = mix if mix is not None else default_service_mix()
    requests = [config for _ in range(repeats) for config in mix]
    tracer = Tracer(ring_size=len(requests))
    stage_seconds = {}
    stage_counts = {}
    total_duration = 0.0
    traced = 0
    bounded = True
    with OptimizerService(
        shards=shards, workers=1, default_timeout=timeout, tracer=tracer
    ) as service:
        futures = [
            service.submit(workload.query, strategy=strategy, catalog=workload.catalog)
            for workload, strategy in requests
        ]
        responses = [future.result() for future in futures]
        stats = service.stats()
    for response in responses:
        if response.trace is None:
            continue
        traced += 1
        record = response.trace.as_dict()
        total_duration += record["duration_s"]
        billed = 0.0
        for span in record["stages"]:
            stage_seconds[span["stage"]] = (
                stage_seconds.get(span["stage"], 0.0) + span["seconds"]
            )
            stage_counts[span["stage"]] = (
                stage_counts.get(span["stage"], 0) + span["count"]
            )
            billed += span["seconds"]
        if billed > record["duration_s"]:
            bounded = False
    accounted = sum(stage_seconds.values())
    return StageBreakdownMeasurement(
        request_count=len(requests),
        distinct_configs=len(mix),
        shards=len(stats.shards),
        traced=traced,
        stage_seconds=stage_seconds,
        stage_counts=stage_counts,
        total_duration=total_duration,
        accounted_seconds=accounted,
        accounted_fraction=accounted / total_duration if total_duration > 0 else 0.0,
        bounded=bounded,
        errors=stats.errors,
    )


@dataclass
class WarmRestartMeasurement:
    """Cache-persistence experiment: a restarted service vs. a cold start.

    Three lives of the same mixed workload:

    * **cold** — a fresh :class:`~repro.service.OptimizerService` with empty
      caches runs the full request list (its later rounds warm up in
      process, which is where the within-life ``memo_hit_rate_cold`` and
      ``cache_hit_rate_cold`` come from);
    * **snapshot** — the cold service's sessions (chase-cache entries with
      their restriction tables + containment verdicts) are written as
      session documents with ``save_caches``;
    * **restarted** — a brand-new service loads the snapshot
      (``load_caches``) and replays the same request list.  Every chase is a
      cache hit and every containment verdict a memo hit, so
      ``speedup = cold_seconds / restart_seconds`` measures exactly what
      cache persistence buys a redeployed server.

    ``plans_match`` asserts the restarted plan sets are signature-identical
    to the cold ones (persistence must never change a plan).
    """

    request_count: int
    distinct_configs: int
    shards: int
    workers: int
    cold_seconds: float
    restart_seconds: float
    speedup: float
    cache_hit_rate_cold: float
    memo_hit_rate_cold: float
    cache_hit_rate_restart: float
    memo_hit_rate_restart: float
    memo_hits_cold: int
    memo_hits_restart: int
    sessions_saved: int
    snapshot_bytes: int
    plans_match: bool
    errors: int = 0


def measure_warm_restart(
    mix=None,
    repeats=8,
    shards=2,
    workers=2,
    max_inflight=4,
    timeout=None,
    snapshot_path=None,
):
    """Measure what cache persistence buys a restarted optimizer service.

    Runs the interleaved mixed request list (as
    :func:`measure_service_throughput`) through a cold service, snapshots its
    warm state, loads the snapshot into a *new* service, and replays the same
    list.  ``snapshot_bytes`` is the size of the :mod:`repro.service.snapshots`
    file (one data-only session document per catalog); ``snapshot_path=None``
    uses a temporary file (removed afterwards).
    """
    import os
    import tempfile

    from repro.service import OptimizerService
    from repro.service.shard import resolve_worker_count

    mix = mix if mix is not None else default_service_mix()
    requests = [config for _ in range(repeats) for config in mix]
    service_kwargs = dict(
        shards=shards,
        workers=workers,
        max_inflight=max_inflight,
        default_timeout=timeout,
    )

    cleanup = snapshot_path is None
    if snapshot_path is None:
        handle = tempfile.NamedTemporaryFile(prefix="repro-warm-", suffix=".snap", delete=False)
        handle.close()
        snapshot_path = handle.name

    def run_life(service):
        start = time.perf_counter()
        futures = [
            service.submit(workload.query, strategy=strategy, catalog=workload.catalog)
            for workload, strategy in requests
        ]
        responses = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
        signatures = [
            {plan.signature() for plan in response.result.plans} if response.ok else None
            for response in responses
        ]
        return elapsed, signatures, service.stats()

    try:
        with OptimizerService(**service_kwargs) as cold_service:
            cold_seconds, cold_signatures, cold_stats = run_life(cold_service)
            sessions_saved = cold_service.save_caches(snapshot_path)
        snapshot_bytes = os.path.getsize(snapshot_path)

        # Both lives run in one process, but a genuinely redeployed server
        # starts with the module-level congruence caches empty — clear them
        # so the restarted life is served only by what the snapshot actually
        # persisted (chase fixpoints, containment verdicts, and the
        # restriction tables the codec writes with each fixpoint).
        from repro.cq.query import _shared_congruence, _shared_saturated_congruence

        _shared_congruence.cache_clear()
        _shared_saturated_congruence.cache_clear()

        with OptimizerService(**service_kwargs) as restarted_service:
            loaded = restarted_service.load_caches(snapshot_path)
            assert loaded == sessions_saved
            restart_seconds, restart_signatures, restart_stats = run_life(restarted_service)
    finally:
        if cleanup and os.path.exists(snapshot_path):
            os.unlink(snapshot_path)

    plans_match = all(
        cold is not None and cold == restarted
        for cold, restarted in zip(cold_signatures, restart_signatures)
    )
    return WarmRestartMeasurement(
        request_count=len(requests),
        distinct_configs=len(mix),
        shards=shards,
        workers=resolve_worker_count(workers),
        cold_seconds=cold_seconds,
        restart_seconds=restart_seconds,
        speedup=cold_seconds / restart_seconds if restart_seconds > 0 else float("inf"),
        cache_hit_rate_cold=cold_stats.cache_hit_rate,
        memo_hit_rate_cold=cold_stats.memo_hit_rate,
        cache_hit_rate_restart=restart_stats.cache_hit_rate,
        memo_hit_rate_restart=restart_stats.memo_hit_rate,
        memo_hits_cold=cold_stats.memo_hits,
        memo_hits_restart=restart_stats.memo_hits,
        sessions_saved=sessions_saved,
        snapshot_bytes=snapshot_bytes,
        plans_match=plans_match,
        errors=cold_stats.errors + restart_stats.errors,
    )


@dataclass
class ExecutionMeasurement:
    """Execution of every generated plan on a populated database (Figure 9)."""

    params: dict
    optimization_time: float
    plan_rows: list
    original_execution_time: float
    best_execution_time: float

    @property
    def redux(self):
        """Time reduction with the full optimization cost charged (Section 5.4)."""
        ext = self.original_execution_time
        if ext <= 0:
            return 0.0
        return (ext - (self.best_execution_time + self.optimization_time)) / ext

    @property
    def redux_first(self):
        """Time reduction assuming the best plan is produced first."""
        ext = self.original_execution_time
        if ext <= 0:
            return 0.0
        per_plan = self.optimization_time / max(1, len(self.plan_rows))
        return (ext - (self.best_execution_time + per_plan)) / ext


def measure_execution(workload, strategy="oqf", size=1000, seed=0, timeout=None):
    """Optimize, execute every plan, and compute the Section 5.4 indices.

    The original query is always among the generated plans, so its execution
    time (``ExT``) is the maximum of a plan that scans only logical
    collections; ``ExTBest`` is the fastest plan overall.
    """
    optimizer = workload.optimizer(timeout=timeout)
    result = optimizer.optimize(workload.query, strategy=strategy)
    database = workload.database(size=size, seed=seed)
    catalog = workload.catalog

    reference_rows, original_time = execute_timed(workload.query, database)
    plan_rows = []
    for plan in result.plans:
        rows, elapsed = execute_timed(plan.query, database)
        plan_rows.append(
            {
                "plan": plan,
                "execution_time": elapsed,
                "row_count": len(rows),
                "views_used": plan.physical_structures_used(catalog),
                "relations_used": plan.logical_collections_used(catalog),
                "matches_original": _same_bag(rows, reference_rows),
            }
        )
    plan_rows.sort(key=lambda entry: entry["execution_time"])
    best_time = plan_rows[0]["execution_time"] if plan_rows else original_time
    return ExecutionMeasurement(
        params=dict(workload.params),
        optimization_time=result.total_time,
        plan_rows=plan_rows,
        original_execution_time=original_time,
        best_execution_time=best_time,
    )


def _same_bag(left, right):
    """Compare two bags of output rows irrespective of order."""

    def canonical(rows):
        return sorted(tuple(sorted(row.items())) for row in rows)

    return canonical(left) == canonical(right)


@dataclass
class CrashRecoveryMeasurement:
    """Fault-tolerance experiment: crash restart, graceful restart, retries.

    Three service lives plus a socket phase:

    * **warming** — a fresh service runs the mixed request list; a
      *periodic* snapshot is taken mid-life (after the first
      ``sessions_periodic`` catalogs warmed, simulating the background
      :class:`~repro.service.snapshots.SnapshotManager` loop firing between
      requests) and a *graceful* snapshot at drain time;
    * **crash restart** — a new service recovers from the periodic snapshot
      (what a ``kill -9`` leaves behind) and replays the full list: warm for
      every session the snapshot caught, cold for the tail it missed;
    * **graceful restart** — a new service loads the drain-time snapshot and
      replays fully warm.

    The socket phase runs the same records twice through the TCP front end —
    once clean, once under deterministic injected read/write faults with a
    retrying client — and reports the p50/p95 latency overhead that retries
    cost.  ``plans_match`` / ``retry_plans_match`` assert the differential:
    neither crashes nor retries may change a single plan digest.
    """

    request_count: int
    distinct_configs: int
    shards: int
    workers: int
    warm_seconds: float
    warm_cache_misses: int
    sessions_periodic: int
    sessions_graceful: int
    crash_load_seconds: float
    crash_replay_seconds: float
    crash_cache_hit_rate: float
    crash_memo_hit_rate: float
    crash_cache_misses: int
    graceful_load_seconds: float
    graceful_replay_seconds: float
    graceful_cache_hit_rate: float
    graceful_memo_hit_rate: float
    graceful_cache_misses: int
    plans_match: bool
    retry_requests: int
    retry_replays: int
    faults_injected: int
    retry_clean_p50: float
    retry_clean_p95: float
    retry_faulty_p50: float
    retry_faulty_p95: float
    retry_plans_match: bool
    errors: int = 0

    @property
    def retry_overhead_p50(self):
        return self.retry_faulty_p50 - self.retry_clean_p50

    @property
    def retry_overhead_p95(self):
        return self.retry_faulty_p95 - self.retry_clean_p95


def measure_crash_recovery(
    mix=None,
    repeats=6,
    shards=2,
    workers=2,
    max_inflight=4,
    timeout=None,
    retry_rounds=2,
    fault_seed=11,
):
    """Measure crash-restart vs. graceful-restart recovery and retry cost.

    See :class:`CrashRecoveryMeasurement` for the protocol.  All fault
    schedules are deterministic (seeded), so the plan-digest differentials
    are hard assertions, not luck.
    """
    import os
    import tempfile

    from repro.service import FaultInjector, OptimizerClient, OptimizerServer, OptimizerService
    from repro.service.metrics import percentile
    from repro.service.protocol import plan_digest
    from repro.service.shard import resolve_worker_count

    mix = mix if mix is not None else default_service_mix()
    requests = [config for _ in range(repeats) for config in mix]
    service_kwargs = dict(
        shards=shards,
        workers=workers,
        max_inflight=max_inflight,
        default_timeout=timeout,
    )
    # The "periodic" snapshot fires mid-warm-up: only the catalogs of the
    # first part of round 1 made it in — exactly what a kill -9 between
    # background snapshots leaves behind.
    periodic_cut = max(1, (len(mix) + 1) // 2)

    def run_requests(service, configs):
        futures = [
            service.submit(workload.query, strategy=strategy, catalog=workload.catalog)
            for workload, strategy in configs
        ]
        responses = [future.result() for future in futures]
        for response in responses:
            response.raise_for_error()
        return [plan_digest(response.result.plans) for response in responses]

    def clear_process_caches():
        # Both lives run in one process; a truly redeployed server starts with
        # the module-level congruence caches empty, so recovery must be
        # served only by what the snapshot persisted.
        from repro.cq.query import _shared_congruence, _shared_saturated_congruence

        _shared_congruence.cache_clear()
        _shared_saturated_congruence.cache_clear()

    handles = [
        tempfile.NamedTemporaryFile(prefix=f"repro-{kind}-", suffix=".snap", delete=False)
        for kind in ("periodic", "graceful")
    ]
    for handle in handles:
        handle.close()
    periodic_path, graceful_path = (handle.name for handle in handles)
    try:
        with OptimizerService(**service_kwargs) as warming:
            warm_start = time.perf_counter()
            baseline = run_requests(warming, requests[:periodic_cut])
            sessions_periodic = warming.save_caches(periodic_path)
            baseline += run_requests(warming, requests[periodic_cut:])
            warm_seconds = time.perf_counter() - warm_start
            sessions_graceful = warming.save_caches(graceful_path)
            warming_stats = warming.stats()

        def restart(path):
            clear_process_caches()
            with OptimizerService(**service_kwargs) as restarted:
                load_start = time.perf_counter()
                restored, error = restarted.recover_caches(path)
                load_seconds = time.perf_counter() - load_start
                assert error is None, f"recovery failed: {error}"
                replay_start = time.perf_counter()
                digests = run_requests(restarted, requests)
                replay_seconds = time.perf_counter() - replay_start
                stats = restarted.stats()
            return load_seconds, replay_seconds, digests, stats

        crash_load, crash_replay, crash_digests, crash_stats = restart(periodic_path)
        graceful_load, graceful_replay, graceful_digests, graceful_stats = restart(
            graceful_path
        )
    finally:
        for path in (periodic_path, graceful_path):
            if os.path.exists(path):
                os.unlink(path)

    plans_match = baseline == crash_digests == graceful_digests

    # Socket phase: the same records clean vs. under injected faults with a
    # retrying client — the latency delta is the price of resilience.
    records = [
        {"workload": workload.name.lower(), "params": workload.params, "strategy": strategy}
        for workload, strategy in mix
    ] * retry_rounds

    def run_socket(faults):
        latencies, digests, replays = [], [], 0
        with OptimizerServer(fault_injector=faults, **service_kwargs) as server:
            with OptimizerClient(
                port=server.port, retries=8, backoff_base=0.01, backoff_seed=0
            ) as client:
                for record in records:
                    start = time.perf_counter()
                    response = client.request(dict(record))
                    latencies.append(time.perf_counter() - start)
                    assert response["status"] == "ok", response
                    digests.append(response["plan_digests"])
                replays = client.replays
        return latencies, digests, replays

    clean_latencies, clean_digests, _ = run_socket(None)
    faults = (
        FaultInjector(seed=fault_seed)
        .rule("server.write", probability=0.3, times=3)
        .rule("server.read", probability=0.3, times=2, after=1)
    )
    faulty_latencies, faulty_digests, retry_replays = run_socket(faults)

    return CrashRecoveryMeasurement(
        request_count=len(requests),
        distinct_configs=len(mix),
        shards=shards,
        workers=resolve_worker_count(workers),
        warm_seconds=warm_seconds,
        warm_cache_misses=warming_stats.cache_misses,
        sessions_periodic=sessions_periodic,
        sessions_graceful=sessions_graceful,
        crash_load_seconds=crash_load,
        crash_replay_seconds=crash_replay,
        crash_cache_hit_rate=crash_stats.cache_hit_rate,
        crash_memo_hit_rate=crash_stats.memo_hit_rate,
        crash_cache_misses=crash_stats.cache_misses,
        graceful_load_seconds=graceful_load,
        graceful_replay_seconds=graceful_replay,
        graceful_cache_hit_rate=graceful_stats.cache_hit_rate,
        graceful_memo_hit_rate=graceful_stats.memo_hit_rate,
        graceful_cache_misses=graceful_stats.cache_misses,
        plans_match=plans_match,
        retry_requests=len(records),
        retry_replays=retry_replays,
        faults_injected=faults.total_injected(),
        retry_clean_p50=percentile(clean_latencies, 0.50),
        retry_clean_p95=percentile(clean_latencies, 0.95),
        retry_faulty_p50=percentile(faulty_latencies, 0.50),
        retry_faulty_p95=percentile(faulty_latencies, 0.95),
        retry_plans_match=clean_digests == faulty_digests,
        errors=warming_stats.errors + crash_stats.errors + graceful_stats.errors,
    )


__all__ = [
    "ChaseMeasurement",
    "CrashRecoveryMeasurement",
    "ExecutionMeasurement",
    "ServiceThroughputMeasurement",
    "StageBreakdownMeasurement",
    "StrategyMeasurement",
    "WarmRestartMeasurement",
    "default_service_mix",
    "measure_chase",
    "measure_crash_recovery",
    "measure_execution",
    "measure_service_throughput",
    "measure_stage_breakdown",
    "measure_strategy",
    "measure_warm_restart",
]
