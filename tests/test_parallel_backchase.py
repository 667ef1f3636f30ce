"""The shard-pool backchase: plan sets and counters equal the inline engine's.

Both engines run one pruning walk, so the load-bearing property is that
its pruning does not depend on where a wave is evaluated:
:class:`ParallelBackchase` over a :class:`ScheduledPool` at 1, 2 and 4 pool
workers produces plan sets *signature-identical* to the inline
:class:`FullBackchase` on the paper's workloads (the fig5/EC2 instances and
EC1), with identical exploration counters.  The independent reference for
the plan sets themselves is the brute-force backchase of
``tests/test_backchase_reference.py``.  The remaining tests cover the
pool's chunking and stage fan-out and the mergeable :class:`ChaseCache`.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.chase.backchase import FullBackchase, ParallelBackchase
from repro.chase.chase import chase
from repro.chase.implication import ChaseCache
from repro.chase.optimizer import CBOptimizer
from repro.cq.query import PCQuery
from repro.service.scheduler import ScheduledPool, size_ordered_chunks
from repro.workloads.ec1 import build_ec1
from repro.workloads.ec2 import build_ec2


def _signatures(result):
    return {plan.signature() for plan in result.plans}


def _chased(workload):
    constraints = workload.catalog.constraints()
    universal = chase(workload.query, constraints).query
    return constraints, universal


@contextmanager
def _shard_pool(workers):
    """A :class:`ScheduledPool` over a pool of ``workers`` threads, as a shard builds it."""
    executor = ThreadPoolExecutor(max_workers=workers)
    try:
        yield ScheduledPool(executor, workers)
    finally:
        executor.shutdown(wait=True)


class TestSerialEquivalence:
    """Plan sets and counters match the inline engine exactly."""

    @pytest.mark.parametrize("workers", [1, 2, 4], ids=lambda workers: f"threads-{workers}")
    @pytest.mark.parametrize(
        "build,args",
        [(build_ec2, (1, 3, 2)), (build_ec2, (2, 2, 1)), (build_ec1, (2, 1))],
    )
    def test_plan_sets_match(self, build, args, workers):
        workload = build(*args)
        constraints, universal = _chased(workload)
        serial = FullBackchase(workload.query, constraints).run(universal)
        with _shard_pool(workers) as pool:
            parallel = ParallelBackchase(workload.query, constraints, pool).run(universal)
        assert _signatures(parallel) == _signatures(serial)
        assert parallel.plan_count == serial.plan_count
        assert parallel.subqueries_explored == serial.subqueries_explored
        assert parallel.equivalence_checks == serial.equivalence_checks
        assert parallel.closure_queries == serial.closure_queries
        assert not parallel.timed_out

    def test_result_records_executor_and_workers(self):
        workload = build_ec2(1, 3, 1)
        constraints, universal = _chased(workload)
        with _shard_pool(3) as pool:
            result = ParallelBackchase(workload.query, constraints, pool).run(universal)
        assert result.executor == "scheduled"
        assert result.workers == 3
        assert result.waves >= 1

    def test_optimizer_fb_matches_across_executors(self):
        workload = build_ec2(1, 3, 2)
        baseline = workload.optimizer().optimize(workload.query, strategy="fb")
        assert (baseline.executor, baseline.workers) == ("serial", 1)
        with _shard_pool(2) as pool:
            result = CBOptimizer(workload.catalog, pool=pool).optimize(
                workload.query, strategy="fb"
            )
        assert _signatures(result) == _signatures(baseline)
        assert result.equivalence_checks == baseline.equivalence_checks
        assert (result.executor, result.workers) == ("scheduled", 2)

    @pytest.mark.parametrize("strategy", ["oqf", "ocs"])
    def test_optimizer_stage_fanout_matches(self, strategy):
        workload = build_ec2(2, 2, 1)
        baseline = workload.optimizer().optimize(workload.query, strategy=strategy)
        with _shard_pool(2) as pool:
            pooled = CBOptimizer(workload.catalog, pool=pool).optimize(
                workload.query, strategy=strategy
            )
        assert _signatures(pooled) == _signatures(baseline)
        assert pooled.equivalence_checks == baseline.equivalence_checks


class TestSizeOrderedChunking:
    """Waves are split by estimated chase size (LPT), not round-robin."""

    def test_chunks_are_size_balanced_and_deterministic(self):
        keys = [
            frozenset({"a", "b", "c", "d"}),
            frozenset({"e"}),
            frozenset({"f", "g", "h"}),
            frozenset({"i", "j"}),
            frozenset({"k", "l", "m", "n", "o"}),
        ]
        chunks = size_ordered_chunks(keys, 2)
        assert chunks == size_ordered_chunks(list(reversed(keys)), 2)
        # largest subsets are dealt first, round-robin over the buckets
        assert chunks[0][0] == frozenset({"k", "l", "m", "n", "o"})
        assert chunks[1][0] == frozenset({"a", "b", "c", "d"})
        flattened = [key for chunk in chunks for key in chunk]
        assert sorted(flattened, key=sorted) == sorted(keys, key=sorted)

    def test_never_more_chunks_than_buckets_or_items(self):
        keys = [frozenset({"a"}), frozenset({"b"})]
        assert len(size_ordered_chunks(keys, 8)) == 2
        assert size_ordered_chunks([], 4) == []


class TestSharedChaseCache:
    def test_warm_cache_reuse_preserves_plan_sets(self):
        """A second run over a warm shared cache chases nothing and matches."""
        workload = build_ec2(1, 3, 2)
        constraints, universal = _chased(workload)
        shared = ChaseCache(constraints)
        cold = FullBackchase(workload.query, constraints, chase_cache=shared).run(universal)
        assert cold.cache_misses > 0
        warm = FullBackchase(workload.query, constraints, chase_cache=shared).run(universal)
        assert _signatures(warm) == _signatures(cold)
        assert warm.cache_misses == 0
        with _shard_pool(2) as pool:
            wave = ParallelBackchase(
                workload.query, constraints, pool, chase_cache=shared
            ).run(universal)
        assert _signatures(wave) == _signatures(cold)
        assert wave.cache_misses == 0

    def test_external_pool_is_not_closed(self):
        """The shard's thread pool outlives a run and serves the next one."""
        workload = build_ec2(1, 3, 1)
        constraints, universal = _chased(workload)
        with _shard_pool(2) as pool:
            first = ParallelBackchase(workload.query, constraints, pool).run(universal)
            second = ParallelBackchase(workload.query, constraints, pool).run(universal)
            assert pool.pool.submit(len, "ab").result() == 2
        assert _signatures(first) == _signatures(second)
        assert first.executor == "scheduled"


class TestExecutors:
    def test_pool_map_preserves_order(self):
        with _shard_pool(2) as pool:
            assert pool.map(len, ["a", "bb", "ccc"]) == [1, 2, 3]


class TestChaseCacheMerging:
    def _cache_with_entries(self, workload):
        constraints = workload.catalog.constraints()
        cache = ChaseCache(constraints)
        universal = chase(workload.query, constraints).query
        for var in sorted(universal.variable_set):
            subquery = universal.restrict_to(universal.variable_set - {var})
            if subquery is not None:
                cache.chase(subquery)
        return cache

    def test_export_and_merge(self):
        workload = build_ec2(1, 3, 1)
        cache = self._cache_with_entries(workload)
        assert len(cache) > 0
        exported = cache.export()
        assert len(exported) == len(cache)

        fresh = ChaseCache(workload.catalog.constraints())
        fresh.merge(exported)
        assert fresh.export() == exported
        # Accounting describes this cache's own traffic, not the donor's.
        assert (fresh.hits, fresh.misses) == (0, 0)
        assert fresh.counters.closure_queries == 0

    def test_merged_entries_hit(self):
        workload = build_ec2(1, 3, 1)
        cache = self._cache_with_entries(workload)
        fresh = ChaseCache(workload.catalog.constraints())
        fresh.merge(cache.export())
        universal = chase(workload.query, workload.catalog.constraints()).query
        first_var = sorted(universal.variable_set)[0]
        subquery = universal.restrict_to(universal.variable_set - {first_var})
        if subquery is not None:
            before = fresh.misses
            fresh.chase(subquery)
            assert fresh.misses == before  # served from the merged entries

    def test_merge_does_not_overwrite(self):
        query = PCQuery.parse("select struct(A: r.A) from R r").validate()
        left = ChaseCache([])
        chased = left.chase(query)
        right = ChaseCache([])
        right.merge([(query.signature(), None)])
        right.merge([(query.signature(), chased)])
        # setdefault semantics: the first stored value wins.
        assert right.export() == [(query.signature(), None)]
