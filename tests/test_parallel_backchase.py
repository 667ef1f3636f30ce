"""The wave-parallel backchase: executor plumbing and serial equivalence.

Both engines run one pruning walk, so the load-bearing property is that
its pruning does not depend on where a wave is evaluated:
:class:`ParallelBackchase` — under every executor kind — produces plan sets
*signature-identical* to the inline :class:`FullBackchase` on the paper's
workloads (the fig5/EC2 instances and EC1), with identical exploration
counters.  The independent reference for the plan sets themselves is the
brute-force backchase of ``tests/test_backchase_reference.py``.  The
remaining tests cover the executor abstraction and the mergeable
:class:`ChaseCache`.
"""

import pytest

from repro.chase.backchase import (
    EXECUTORS,
    FullBackchase,
    ParallelBackchase,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    size_ordered_chunks,
)
from repro.chase.chase import chase
from repro.chase.implication import ChaseCache
from repro.cq.query import PCQuery
from repro.workloads.ec1 import build_ec1
from repro.workloads.ec2 import build_ec2


def _signatures(result):
    return {plan.signature() for plan in result.plans}


def _chased(workload):
    constraints = workload.catalog.constraints()
    universal = chase(workload.query, constraints).query
    return constraints, universal


class TestSerialEquivalence:
    """Plan sets and counters match the inline engine exactly."""

    @pytest.mark.parametrize(
        "executor,workers",
        [("serial", 1), ("threads", 2), ("threads", 4), ("processes", 2)],
    )
    @pytest.mark.parametrize(
        "build,args",
        [(build_ec2, (1, 3, 2)), (build_ec2, (2, 2, 1)), (build_ec1, (2, 1))],
    )
    def test_plan_sets_match(self, build, args, executor, workers):
        workload = build(*args)
        constraints, universal = _chased(workload)
        serial = FullBackchase(workload.query, constraints).run(universal)
        parallel = ParallelBackchase(
            workload.query, constraints, executor=executor, workers=workers
        ).run(universal)
        assert _signatures(parallel) == _signatures(serial)
        assert parallel.plan_count == serial.plan_count
        assert parallel.subqueries_explored == serial.subqueries_explored
        assert parallel.equivalence_checks == serial.equivalence_checks
        assert not parallel.timed_out

    def test_result_records_executor_and_workers(self):
        workload = build_ec2(1, 3, 1)
        constraints, universal = _chased(workload)
        result = ParallelBackchase(
            workload.query, constraints, executor="threads", workers=3
        ).run(universal)
        assert result.executor == "threads"
        assert result.workers == 3
        assert result.waves >= 1

    def test_optimizer_fb_matches_across_executors(self):
        workload = build_ec2(1, 3, 2)
        baseline = workload.optimizer().optimize(workload.query, strategy="fb")
        for executor in ("threads", "processes"):
            result = workload.optimizer(workers=2, executor=executor).optimize(
                workload.query, strategy="fb"
            )
            assert _signatures(result) == _signatures(baseline)
            assert result.executor == executor

    @pytest.mark.parametrize("strategy", ["oqf", "ocs"])
    def test_optimizer_stage_fanout_matches(self, strategy):
        workload = build_ec2(2, 2, 1)
        baseline = workload.optimizer().optimize(workload.query, strategy=strategy)
        pooled = workload.optimizer(workers=2, executor="processes").optimize(
            workload.query, strategy=strategy
        )
        assert _signatures(pooled) == _signatures(baseline)


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

    def test_chunk_policy_recorded_on_result(self):
        workload = build_ec2(1, 3, 1)
        constraints, universal = _chased(workload)
        threaded = ParallelBackchase(
            workload.query, constraints, executor="threads", workers=2
        ).run(universal)
        assert threaded.chunk_policy == "size-ordered"
        inline = ParallelBackchase(workload.query, constraints).run(universal)
        assert inline.chunk_policy == "inline"


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
        wave = ParallelBackchase(
            workload.query, constraints, executor="threads", workers=2, chase_cache=shared
        ).run(universal)
        assert _signatures(wave) == _signatures(cold)
        assert wave.cache_misses == 0

    def test_external_pool_is_not_closed(self):
        workload = build_ec2(1, 3, 1)
        constraints, universal = _chased(workload)
        pool = make_executor("threads", workers=2)
        try:
            first = ParallelBackchase(workload.query, constraints, pool=pool).run(universal)
            # the pool survives the run and can serve another engine
            second = ParallelBackchase(workload.query, constraints, pool=pool).run(universal)
        finally:
            pool.close()
        assert _signatures(first) == _signatures(second)
        assert first.executor == "threads"


class TestExecutors:
    def test_make_executor_kinds(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("threads", workers=2), ThreadExecutor)
        assert isinstance(make_executor("processes", workers=2), ProcessExecutor)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            make_executor("gpu")
        with pytest.raises(ValueError):
            ParallelBackchase(None, [], executor="gpu")
        with pytest.raises(ValueError):
            build_ec2(1, 3, 1).optimizer(executor="gpu")

    def test_serial_executor_is_single_worker(self):
        assert make_executor("serial", workers=8).workers == 1
        assert "serial" in EXECUTORS

    def test_pool_map_preserves_order(self):
        pool = make_executor("threads", workers=2)
        try:
            assert pool.map(len, ["a", "bb", "ccc"]) == [1, 2, 3]
        finally:
            pool.close()


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

    def test_export_since_and_merge(self):
        workload = build_ec2(1, 3, 1)
        cache = self._cache_with_entries(workload)
        assert len(cache) > 0
        marker = cache.snapshot()
        assert cache.export_since(marker) == {}
        assert len(cache.export_since(0)) == len(cache)

        fresh = ChaseCache(workload.catalog.constraints())
        fresh.merge_exported(
            cache.export_since(0), misses=cache.misses, counters=cache.counters
        )
        assert len(fresh) == len(cache)
        assert fresh.misses == cache.misses
        assert fresh.counters.closure_queries == cache.counters.closure_queries

    def test_merged_entries_hit(self):
        workload = build_ec2(1, 3, 1)
        cache = self._cache_with_entries(workload)
        fresh = ChaseCache(workload.catalog.constraints())
        fresh.merge_exported(cache.export_since(0))
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
        right.merge_exported({query.signature(): None})
        right.merge_exported({query.signature(): chased})
        # setdefault semantics: the first stored value wins.
        assert right.export_since(0)[query.signature()] is None
