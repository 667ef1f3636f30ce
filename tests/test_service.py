"""The long-lived optimizer service: equivalence, warmth, sharding, pools.

The load-bearing property is **plan-set equivalence**: every plan list that
comes back through :class:`~repro.service.OptimizerService` — any strategy,
any workload, warm or cold caches, sharing the shard's worker pool with
other requests or alone — must be signature-identical to a fresh
single-shot :meth:`~repro.chase.optimizer.CBOptimizer.optimize` with the
same knobs.  The remaining tests cover the admission/sharding layer, the
warm-cache behaviour across requests, failures inside the worker pool, the
metrics surface and the lifecycle.
"""

import threading

import pytest

from repro.chase.implication import constraint_signature
from repro.service import OptimizerService, shard_index
from repro.workloads import build_ec1, build_ec2, build_ec3


def _signatures(plans):
    return {plan.signature() for plan in plans}


def _single_shot(workload, strategy, timeout=None):
    return workload.optimizer(timeout=timeout).optimize(workload.query, strategy=strategy)


class TestPlanSetEquivalence:
    """Service plans == fresh single-shot plans, for every strategy."""

    @pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
    @pytest.mark.parametrize(
        "build,args",
        [(build_ec2, (1, 3, 2)), (build_ec1, (2, 1)), (build_ec3, (3, 0))],
    )
    def test_matches_single_shot(self, build, args, strategy):
        workload = build(*args)
        baseline = _single_shot(workload, strategy)
        with OptimizerService(shards=1, workers=2) as service:
            response = service.submit(
                workload.query, strategy=strategy, catalog=workload.catalog
            ).result()
        assert response.ok
        assert _signatures(response.result.plans) == _signatures(baseline.plans)
        assert response.result.plan_count == baseline.plan_count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_at_each_pool_size(self, workers):
        workload = build_ec2(1, 3, 1)
        baseline = _single_shot(workload, "fb")
        with OptimizerService(shards=1, workers=workers) as service:
            response = service.submit(workload.query, catalog=workload.catalog).result()
        assert _signatures(response.result.plans) == _signatures(baseline.plans)

    def test_warm_repeat_requests_still_match(self):
        """The second (fully cache-hit) request returns the same plan set."""
        workload = build_ec2(1, 3, 2)
        baseline = _single_shot(workload, "fb")
        with OptimizerService(shards=1, workers=2) as service:
            first = service.submit(workload.query, catalog=workload.catalog).result()
            second = service.submit(workload.query, catalog=workload.catalog).result()
        assert _signatures(first.result.plans) == _signatures(baseline.plans)
        assert _signatures(second.result.plans) == _signatures(baseline.plans)

    def test_concurrent_mixed_batch_matches(self):
        """Interleaved multi-catalog traffic on shared pools stays exact."""
        configs = [
            (build_ec2(1, 3, 2), "fb"),
            (build_ec1(2, 1), "fb"),
            (build_ec3(3, 0), "ocs"),
            (build_ec2(2, 2, 1), "oqf"),
        ]
        baselines = [_single_shot(w, s) for w, s in configs]
        with OptimizerService(shards=2, workers=2, max_inflight=4) as service:
            futures = [
                service.submit(w.query, strategy=s, catalog=w.catalog)
                for w, s in configs
                for _ in range(2)
            ]
            responses = [future.result() for future in futures]
        for index, response in enumerate(responses):
            assert response.ok, response.error
            baseline = baselines[index // 2]
            assert _signatures(response.result.plans) == _signatures(baseline.plans)


class TestWarmCaches:
    def test_second_request_hits_the_warm_cache(self):
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=2) as service:
            first = service.submit(workload.query, catalog=workload.catalog).result()
            second = service.submit(workload.query, catalog=workload.catalog).result()
        assert first.metrics.cache_misses > 0
        assert second.metrics.cache_misses == 0
        assert second.metrics.cache_hits > 0
        # ...and it is cheaper than the cold first call because it redoes no
        # containment search either: every verdict is read from the memo.
        assert second.metrics.memo_misses == 0
        assert second.metrics.memo_hits > 0

    def test_sessions_are_per_constraint_set(self):
        ec2 = build_ec2(1, 3, 1)
        ec1 = build_ec1(2, 0)
        with OptimizerService(shards=1) as service:
            service.submit(ec2.query, catalog=ec2.catalog).result()
            service.submit(ec1.query, catalog=ec1.catalog).result()
            stats = service.stats()
        assert sum(shard.sessions for shard in stats.shards) == 2

    def test_bounded_sessions_evict_lru(self):
        """max_sessions keeps the per-shard session registry bounded."""
        workloads = [build_ec2(1, 2, 1), build_ec1(2, 0), build_ec3(3, 0)]
        with OptimizerService(shards=1, max_sessions=2, max_inflight=1) as service:
            for workload in workloads:
                assert service.submit(workload.query, catalog=workload.catalog).result().ok
            stats = service.stats()
        assert stats.shards[0].sessions == 2
        assert stats.shards[0].sessions_evicted == 1
        assert stats.as_dict()["sessions_evicted"] == 1

    def test_evicted_session_restarts_cold_but_exact(self):
        first = build_ec2(1, 3, 1)
        second = build_ec1(2, 0)
        baseline = _single_shot(first, "fb")
        with OptimizerService(shards=1, max_sessions=1, max_inflight=1) as service:
            service.submit(first.query, catalog=first.catalog).result()
            service.submit(second.query, catalog=second.catalog).result()  # evicts `first`
            again = service.submit(first.query, catalog=first.catalog).result()
        assert again.metrics.cache_misses > 0  # cold again after eviction
        assert _signatures(again.result.plans) == _signatures(baseline.plans)

    def test_bounded_caches_report_evictions(self):
        workload = build_ec2(1, 3, 2)
        with OptimizerService(shards=1, max_cache_entries=2) as service:
            service.submit(workload.query, catalog=workload.catalog).result()
            stats = service.stats()
        assert stats.cache_evictions > 0
        assert all(shard.cache_entries <= 2 * shard.cache_caches for shard in stats.shards)


class TestShardingAndAdmission:
    def test_routing_is_deterministic(self):
        workload = build_ec2(1, 3, 1)
        constraints = list(workload.catalog.constraints())
        assert shard_index(constraints, 4) == shard_index(list(reversed(constraints)), 4)
        with OptimizerService(shards=4) as service:
            expected = service.shard_for(catalog=workload.catalog)
            response = service.submit(workload.query, catalog=workload.catalog).result()
        assert response.metrics.shard == expected

    def test_same_catalog_always_lands_on_the_same_shard(self):
        workload = build_ec3(3, 0)
        with OptimizerService(shards=3) as service:
            shards = {
                service.submit(workload.query, catalog=workload.catalog).result().metrics.shard
                for _ in range(3)
            }
        assert len(shards) == 1

    def test_submit_validates_strategy_and_constraints(self):
        workload = build_ec1(2, 0)
        with OptimizerService() as service:
            with pytest.raises(ValueError):
                service.submit(workload.query, strategy="nope", catalog=workload.catalog)
            with pytest.raises(ValueError):
                service.submit(workload.query)

    def test_engine_failures_resolve_as_error_responses(self):
        workload = build_ec1(2, 0)
        with OptimizerService() as service:
            # A broken query object makes the optimizer raise inside the
            # shard; the error comes back on the response instead of
            # poisoning the service.
            response = service.submit(object(), catalog=workload.catalog).result()
            assert not response.ok
            assert response.error
            with pytest.raises(RuntimeError):
                response.raise_for_error()
            # the service keeps serving afterwards
            ok = service.submit(workload.query, catalog=workload.catalog).result()
            assert ok.ok
            assert service.stats().errors == 1

    def test_submit_after_shutdown_raises(self):
        workload = build_ec1(2, 0)
        service = OptimizerService()
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit(workload.query, catalog=workload.catalog)
        service.shutdown()  # idempotent


class TestWorkerPool:
    @pytest.mark.parametrize(
        "strategy,module,name",
        [
            ("fb", "repro.service.scheduler", "_evaluate_chunk"),
            ("oqf", "repro.chase.optimizer", "_run_stage_task"),
        ],
        ids=["backchase-chunk", "stage-task"],
    )
    def test_pool_failure_resolves_its_request_and_the_shard_keeps_serving(
        self, monkeypatch, strategy, module, name
    ):
        """A backchase chunk or stage task that raises on a pool worker fails
        only its own request; the next request on the shard is served."""
        workload = build_ec2(1, 3, 1)
        baseline = _single_shot(workload, strategy)

        def boom(*args, **kwargs):
            raise RuntimeError("kaput")

        with OptimizerService(shards=1, workers=2) as service:
            with monkeypatch.context() as patch:
                patch.setattr(f"{module}.{name}", boom)
                failed = service.submit(
                    workload.query, strategy=strategy, catalog=workload.catalog
                ).result(timeout=30)
            served = service.submit(
                workload.query, strategy=strategy, catalog=workload.catalog
            ).result(timeout=30)
            stats = service.stats()
        assert not failed.ok
        assert "kaput" in failed.error
        assert served.ok, served.error
        assert _signatures(served.result.plans) == _signatures(baseline.plans)
        assert stats.errors == 1
        assert stats.runner_failures == 0


class TestBatchingAndMetrics:
    def test_stats_surface(self):
        workload = build_ec1(2, 1)
        with OptimizerService(shards=2) as service:
            service.submit(workload.query, catalog=workload.catalog).result()
            stats = service.stats()
        assert stats.requests == 1
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert stats.p50_latency > 0
        assert stats.p95_latency >= stats.p50_latency
        summary = stats.as_dict()
        assert summary["requests"] == 1
        assert summary["shards"] == 2
        assert summary["sessions"] == 1

    def test_result_records_scheduled_executor(self):
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=3) as service:
            response = service.submit(workload.query, catalog=workload.catalog).result()
        assert response.result.executor == "scheduled"
        assert response.result.workers == 3


class TestMetricsCollector:
    def test_latency_reservoir_is_bounded(self):
        from repro.service.metrics import MetricsCollector, RequestMetrics

        collector = MetricsCollector(max_samples=2)
        for number in range(5):
            collector.record(
                RequestMetrics(
                    request_id=number, shard=0, session="s", strategy="fb", latency=float(number)
                )
            )
        requests, errors, rejected, latencies = collector.snapshot()
        assert requests == 5  # exact totals
        assert errors == 0
        assert rejected == 0
        assert latencies == [3.0, 4.0]  # only the recent window is kept


class TestConstraintSignature:
    def test_order_insensitive(self):
        workload = build_ec2(1, 3, 1)
        constraints = list(workload.catalog.constraints())
        assert constraint_signature(constraints) == constraint_signature(
            list(reversed(constraints))
        )

    def test_rebuilt_workload_shares_a_session(self):
        """Two builds of the same config route to one warm session."""
        first = build_ec2(1, 3, 1)
        second = build_ec2(1, 3, 1)
        assert constraint_signature(first.catalog.constraints()) == constraint_signature(
            second.catalog.constraints()
        )
        with OptimizerService(shards=1) as service:
            service.submit(first.query, catalog=first.catalog).result()
            warm = service.submit(second.query, catalog=second.catalog).result()
            stats = service.stats()
        assert sum(shard.sessions for shard in stats.shards) == 1
        assert warm.metrics.cache_misses == 0


class TestSubmitMany:
    def test_submit_many_preserves_order(self):
        workload = build_ec1(2, 0)
        other = build_ec3(3, 0)
        with OptimizerService(shards=2, workers=2) as service:
            responses = service.submit_many(
                [
                    {"query": workload.query, "catalog": workload.catalog, "request_id": "a"},
                    {"query": other.query, "catalog": other.catalog, "request_id": "b"},
                    {"query": workload.query, "catalog": workload.catalog, "request_id": "c"},
                ]
            )
        assert [response.request_id for response in responses] == ["a", "b", "c"]
        assert all(response.ok for response in responses)


class TestConcurrentSubmitters:
    def test_many_client_threads(self):
        """Admission is thread-safe: N client threads hammer one service."""
        workload = build_ec2(1, 3, 1)
        baseline = _single_shot(workload, "fb")
        errors = []
        results = []
        with OptimizerService(shards=1, workers=2, max_inflight=4) as service:
            def client():
                try:
                    response = service.submit(
                        workload.query, catalog=workload.catalog
                    ).result()
                    results.append(response)
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == 6
        for response in results:
            assert _signatures(response.result.plans) == _signatures(baseline.plans)
