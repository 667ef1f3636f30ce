"""Long-lived :class:`ChaseCache` behaviour: LRU bounds and concurrent sharing.

Satellite coverage for the serving PR: once caches outlive a single optimize
call they need (a) a bound — the LRU ``max_entries`` knob with eviction
counters — and (b) safe concurrent sharing: interleaved ``merge`` /
``export`` / ``chase`` calls from multiple service requests must never
lose entries and must never store a truncated (timed-out) fixpoint.
"""

import threading
import time

import pytest

from repro.chase.chase import chase
from repro.chase.implication import ChaseCache, ChaseCacheRegistry, constraint_signature
from repro.errors import ChaseTimeout
from repro.workloads import build_ec1, build_ec2


def _workload_cache(build=build_ec2, args=(1, 3, 1), **kwargs):
    workload = build(*args)
    constraints = list(workload.catalog.constraints())
    return workload, constraints, ChaseCache(constraints, **kwargs)


class TestLRUBound:
    def test_unbounded_by_default(self):
        workload, constraints, cache = _workload_cache()
        assert cache.max_entries is None
        cache.chase(workload.query)
        assert cache.evictions == 0
        assert len(cache) == 1

    def test_rejects_non_positive_bounds(self):
        _, constraints, _ = _workload_cache()
        with pytest.raises(ValueError):
            ChaseCache(constraints, max_entries=0)

    def test_evicts_least_recently_used(self):
        workload, constraints, cache = _workload_cache(max_entries=2)
        universal = cache.chase(workload.query)
        # Chase three distinct subqueries of the universal plan through the
        # bounded cache; only two fixpoints may survive.
        variables = sorted(universal.variable_set)
        subqueries = []
        for drop in variables:
            subquery = universal.restrict_to(frozenset(universal.variable_set) - {drop})
            if subquery is not None:
                subqueries.append(subquery)
            if len(subqueries) == 3:
                break
        assert len(subqueries) == 3, "workload too small for the eviction scenario"
        for subquery in subqueries:
            cache.chase(subquery)
        assert len(cache) == 2
        assert cache.evictions >= 2  # the original chase + the oldest subquery

    def test_hit_refreshes_recency(self):
        workload, constraints, cache = _workload_cache(max_entries=2)
        universal = cache.chase(workload.query)
        keep_key = workload.query.signature()
        variables = sorted(universal.variable_set)
        filled = 0
        for drop in variables:
            subquery = universal.restrict_to(frozenset(universal.variable_set) - {drop})
            if subquery is None:
                continue
            cache.chase(workload.query)  # refresh the entry we want to keep
            cache.chase(subquery)
            filled += 1
            if filled == 2:
                break
        assert filled == 2
        # The refreshed entry survived both insertions; hits keep it warm.
        assert keep_key in cache._cache

    def test_eviction_counters_flow_through_registry(self):
        workload = build_ec2(1, 3, 2)
        registry = ChaseCacheRegistry(max_entries=1)
        constraints = list(workload.catalog.constraints())
        cache = registry.for_constraints(constraints)
        universal = cache.chase(workload.query)
        subquery = universal.restrict_to(
            frozenset(universal.variable_set) - {sorted(universal.variable_set)[0]}
        )
        if subquery is not None:
            cache.chase(subquery)
        stats = registry.stats()
        assert stats["evictions"] >= 1
        assert stats["entries"] <= 1


class TestTruncatedFixpointsNeverCached:
    def test_timed_out_chase_is_not_stored(self):
        workload, constraints, cache = _workload_cache(build=build_ec2, args=(2, 3, 1))
        expired = time.perf_counter() - 1.0
        with pytest.raises(ChaseTimeout):
            cache.chase(workload.query, deadline=expired)
        assert len(cache) == 0
        assert workload.query.signature() not in cache._cache
        # A later call with budget redoes the chase and caches the real fixpoint.
        full = cache.chase(workload.query)
        reference = chase(workload.query, constraints).query
        assert full.signature() == reference.signature()
        assert len(cache) == 1

    def test_chase_result_returns_partial_without_storing(self):
        workload, constraints, cache = _workload_cache(build=build_ec2, args=(2, 3, 1))
        expired = time.perf_counter() - 1.0
        result = cache.chase_result(workload.query, deadline=expired)
        assert result.timed_out
        assert len(cache) == 0


class TestConcurrentSharing:
    """Interleaved merge/export/chase from many threads loses nothing."""

    def test_merge_and_export_race(self):
        _, constraints, shared = _workload_cache()
        # Pre-compute disjoint entry batches of (signature, fixpoint) pairs
        # from separate caches, as decoded session files would arrive.
        workload2 = build_ec2(1, 4, 1)
        donor = ChaseCache(constraints)
        universal = donor.chase(workload2.query)
        keys = sorted(universal.variable_set)
        batches = []
        for drop in keys:
            subquery = universal.restrict_to(frozenset(universal.variable_set) - {drop})
            if subquery is not None:
                local = ChaseCache(constraints)
                local.chase(subquery)
                batches.append(local.export())
        assert len(batches) >= 3
        expected_keys = set()
        for batch in batches:
            expected_keys.update(key for key, _ in batch)

        errors = []
        exported = []

        def merger(batch):
            try:
                for _ in range(50):
                    shared.merge(batch)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        def exporter():
            try:
                for _ in range(100):
                    exported.append(shared.export())
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=merger, args=(batch,)) for batch in batches]
        threads += [threading.Thread(target=exporter) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        # No entry was lost and every stored fixpoint is the full one.
        assert expected_keys <= set(shared._cache)
        full_export = dict(shared.export())
        for batch in batches:
            for key, value in batch:
                assert full_export[key].signature() == value.signature()

    def test_concurrent_chases_on_a_shared_cache(self):
        workload, constraints, shared = _workload_cache(build=build_ec2, args=(1, 3, 2))
        reference = chase(workload.query, constraints).query
        results = []
        errors = []

        def worker():
            try:
                for _ in range(5):
                    results.append(shared.chase(workload.query))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 20
        assert all(result.signature() == reference.signature() for result in results)
        assert shared.hits + shared.misses == 20
        assert len(shared) == 1

    def test_bounded_merge_respects_the_cap(self):
        workload = build_ec2(1, 3, 2)
        constraints = list(workload.catalog.constraints())
        donor = ChaseCache(constraints)
        universal = donor.chase(workload.query)
        for drop in sorted(universal.variable_set):
            subquery = universal.restrict_to(frozenset(universal.variable_set) - {drop})
            if subquery is not None:
                donor.chase(subquery)
        bounded = ChaseCache(constraints, max_entries=2)
        bounded.merge(donor.export())
        assert len(bounded) <= 2
        assert bounded.evictions >= len(donor) - 2


class TestRegistry:
    def test_caches_are_keyed_by_exact_constraint_set(self):
        ec2 = build_ec2(1, 3, 1)
        ec1 = build_ec1(2, 0)
        registry = ChaseCacheRegistry()
        first = registry.for_constraints(ec2.catalog.constraints())
        again = registry.for_constraints(list(ec2.catalog.constraints()))
        other = registry.for_constraints(ec1.catalog.constraints())
        assert first is again
        assert first is not other
        assert len(registry) == 2

    def test_signature_ignores_order_and_duplicates_nothing(self):
        ec2 = build_ec2(1, 3, 1)
        constraints = list(ec2.catalog.constraints())
        assert constraint_signature(constraints) == constraint_signature(
            sorted(constraints, key=lambda dep: dep.name, reverse=True)
        )
