"""End-to-end timeout semantics: budgets are honoured and plans never vanish.

The documented invariants (see ``OptimizationResult``):

* with a finite ``timeout``, fb/oqf/ocs optimize calls finish within the
  budget plus a small epsilon — the chase phase included, since the deadline
  is threaded into :func:`repro.chase.chase.chase` as well;
* a timed-out run still returns at least one plan (falling back to the
  original query / fragment queries), flagged with ``timed_out=True``.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chase.backchase import FullBackchase, ParallelBackchase
from repro.chase.chase import chase, deadline_passed
from repro.chase.implication import ChaseCache
from repro.errors import ChaseTimeout
from repro.service import OptimizerClient, OptimizerServer, OptimizerService
from repro.service.scheduler import ScheduledPool
from repro.workloads.ec2 import build_ec2

#: Grace allowed on top of the budget: deadline checks sit between dependency
#: checks / lattice nodes, and the engines still collapse bindings and dedupe
#: the partial plan list after expiry.
EPSILON = 1.0


class TestOptimizerBudgets:
    @pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
    def test_tiny_budget_partial_plans_within_epsilon(self, strategy):
        # The budget is a tenth of the request's own unbudgeted time, so the
        # request cannot meet it however fast the engine gets (EC2(2,4,2)
        # takes from about 0.04 s under oqf to about 1.5 s under fb on a
        # 2-vCPU host).
        workload = build_ec2(2, 4, 2)
        start = time.perf_counter()
        unbudgeted = workload.optimizer().optimize(workload.query, strategy=strategy)
        budget = (time.perf_counter() - start) / 10
        assert not unbudgeted.timed_out
        optimizer = workload.optimizer(timeout=budget)
        start = time.perf_counter()
        result = optimizer.optimize(workload.query, strategy=strategy)
        elapsed = time.perf_counter() - start
        assert result.timed_out
        assert result.plan_count >= 1
        assert elapsed <= budget + EPSILON

    @pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
    def test_zero_budget_falls_back_to_original(self, strategy):
        workload = build_ec2(1, 3, 1)
        result = workload.optimizer(timeout=0.0).optimize(workload.query, strategy=strategy)
        assert result.timed_out
        assert result.plan_count >= 1
        # The fallback covers the original query: some plan scans exactly the
        # original's collections (for oqf, reassembled from the fragments).
        scans = {frozenset(plan.collections_used()) for plan in result.plans}
        assert frozenset(workload.query.collections_used()) in scans

    def test_parallel_backchase_honours_budget(self):
        workload = build_ec2(2, 4, 2)
        constraints = workload.catalog.constraints()
        universal = chase(workload.query, constraints).query
        with ThreadPoolExecutor(max_workers=2) as executor:
            engines = [
                FullBackchase(workload.query, constraints, timeout=0.05),
                ParallelBackchase(
                    workload.query, constraints, ScheduledPool(executor, 2), timeout=0.05
                ),
            ]
            for engine in engines:
                start = time.perf_counter()
                result = engine.run(universal)
                elapsed = time.perf_counter() - start
                assert result.timed_out
                assert elapsed <= 0.05 + EPSILON

    def test_untimed_runs_do_not_time_out(self):
        workload = build_ec2(1, 3, 1)
        result = workload.optimizer().optimize(workload.query, strategy="fb")
        assert not result.timed_out


class TestChaseDeadline:
    def test_expired_deadline_short_circuits(self):
        workload = build_ec2(2, 4, 2)
        result = chase(
            workload.query, workload.catalog.constraints(), deadline=time.perf_counter()
        )
        assert result.timed_out
        assert result.applied == 0

    def test_no_deadline_reaches_fixpoint(self):
        workload = build_ec2(1, 3, 1)
        result = chase(workload.query, workload.catalog.constraints())
        assert not result.timed_out

    def test_restart_engine_honours_deadline(self):
        workload = build_ec2(2, 4, 2)
        result = chase(
            workload.query,
            workload.catalog.constraints(),
            incremental=False,
            deadline=time.perf_counter(),
        )
        assert result.timed_out

    def test_deadline_passed_helper(self):
        assert not deadline_passed(None)
        assert not deadline_passed(time.perf_counter() + 60)
        assert deadline_passed(time.perf_counter() - 1)

    def test_cache_raises_and_does_not_poison(self):
        workload = build_ec2(2, 4, 2)
        cache = ChaseCache(workload.catalog.constraints())
        with pytest.raises(ChaseTimeout):
            cache.chase(workload.query, deadline=time.perf_counter())
        assert len(cache) == 0  # the truncated result was not cached
        # With a fresh (unlimited) budget the same query chases fine.
        chased = cache.chase(workload.query)
        assert chased.size() >= workload.query.size()

    def test_full_backchase_timeout_flag(self):
        workload = build_ec2(2, 4, 2)
        constraints = workload.catalog.constraints()
        universal = chase(workload.query, constraints).query
        result = FullBackchase(workload.query, constraints, timeout=0.02).run(universal)
        assert result.timed_out
        assert result.elapsed <= 0.02 + EPSILON


class TestServiceTimeouts:
    """Timed-out requests through the serving paths still carry >= 1 plan.

    The regression this pins down: a warm session answers the chase phase
    from its cache (hit, zero cost), so the *backchase* is what runs out of
    budget — a timed-out response must still fall back to >= 1 plan exactly
    like the cold single-shot path, on the in-process service and through
    the socket front end alike.
    """

    @pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
    def test_in_process_service_zero_budget_keeps_plans(self, strategy):
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=1) as service:
            # Warm the session first (no timeout), then hit it with a zero
            # budget: the chase is a cache hit, the backchase times out.
            service.submit(
                workload.query, strategy=strategy, catalog=workload.catalog
            ).result().raise_for_error()
            for _ in range(2):
                response = service.submit(
                    workload.query,
                    strategy=strategy,
                    catalog=workload.catalog,
                    timeout=0.0,
                ).result()
                assert response.ok, response.error
                assert response.result.timed_out
                assert response.result.plan_count >= 1

    @pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
    def test_socket_server_zero_budget_keeps_plans(self, strategy):
        request = {
            "workload": "ec2",
            "params": {"stars": 1, "corners": 3, "views": 1},
            "strategy": strategy,
            "timeout": 0.0,
        }
        with OptimizerServer(shards=1, workers=1) as server:
            with OptimizerClient(port=server.port) as client:
                # Cold then warm: both zero-budget responses must carry plans.
                for _ in range(2):
                    record = client.request(dict(request), timeout=60)
                    assert record["status"] == "ok", record
                    assert record["timed_out"] is True
                    assert record["plan_count"] >= 1
                    assert record["plan_digests"]

    def test_default_timeout_is_applied_by_the_server(self):
        """A server-side default budget reaches requests that carry none."""
        request = {
            "workload": "ec2",
            "params": {"stars": 1, "corners": 3, "views": 1},
            "strategy": "fb",
        }
        with OptimizerServer(shards=1, workers=1, default_timeout=0.0) as server:
            with OptimizerClient(port=server.port) as client:
                record = client.request(request, timeout=60)
        assert record["status"] == "ok", record
        assert record["timed_out"] is True
        assert record["plan_count"] >= 1
