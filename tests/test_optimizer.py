"""Integration tests for the C&B optimizer: motivating examples and strategies."""

import pytest

from repro.chase.backchase import FullBackchase, ParallelBackchase
from repro.chase.implication import ChaseCache, ChaseCacheRegistry, equivalent_under
from repro.chase.optimizer import CBOptimizer
from repro.cq.memo import ContainmentMemo
from repro.cq.query import PCQuery
from repro.schema.catalog import Catalog
from repro.service.scheduler import ScheduledPool
from repro.workloads.ec1 import build_ec1, expected_plan_count
from repro.workloads.ec2 import build_ec2
from repro.workloads.ec3 import build_ec3


def q(text):
    return PCQuery.parse(text).validate()


class TestMotivatingExample21:
    """Example 2.1: index introduction enabled by a referential integrity constraint."""

    @pytest.fixture
    def catalog(self):
        catalog = Catalog()
        catalog.add_relation("R", ["A", "B", "C", "E"])
        catalog.add_relation("S", ["A"])
        catalog.add_foreign_key("R", ["A"], "S", ["A"])
        catalog.add_primary_index("I", "R", ["A", "B", "C"])
        return catalog

    @pytest.fixture
    def query(self):
        return q("select struct(A: r.A, E: r.E) from R r where r.B = 1 and r.C = 2")

    def test_index_plan_is_generated(self, catalog, query):
        result = CBOptimizer(catalog).optimize(query, strategy="fb")
        scans = [plan.collections_used() for plan in result.plans]
        # A plan that answers the query from the composite index alone.
        assert any(used == {"I"} for used in scans)

    def test_original_scan_plan_is_also_generated(self, catalog, query):
        result = CBOptimizer(catalog).optimize(query, strategy="fb")
        assert any(plan.collections_used() == {"R"} for plan in result.plans)

    def test_all_plans_equivalent_under_constraints(self, catalog, query):
        constraints = catalog.constraints()
        result = CBOptimizer(catalog).optimize(query, strategy="fb")
        for plan in result.plans:
            assert equivalent_under(plan.query, query, constraints)

    def test_rewrite_with_s_join_requires_the_foreign_key(self, catalog, query):
        # The crux of Example 2.1: Q' (the extra join with S) is equivalent to
        # Q only because of the referential integrity constraint.
        rewritten = q(
            "select struct(A: r.A, E: r.E) from R r, S s "
            "where r.B = 1 and r.C = 2 and r.A = s.A"
        )
        assert equivalent_under(rewritten, query, catalog.constraints())
        no_fk = Catalog()
        no_fk.add_relation("R", ["A", "B", "C", "E"])
        no_fk.add_relation("S", ["A"])
        assert not equivalent_under(rewritten, query, no_fk.constraints())


class TestMotivatingExample22:
    """Example 2.2: rewriting with views enabled by a key constraint."""

    def _catalog(self, with_key):
        catalog = Catalog()
        for star in (1, 2):
            catalog.add_relation(f"R{star}", ["K", "F", "A1", "A2"], key=["K"])
            if with_key:
                catalog.add_key(f"R{star}", ["K"])
            for corner in (1, 2):
                catalog.add_relation(f"S{star}{corner}", ["A", "B"])
            catalog.add_materialized_view(
                f"V{star}",
                q(
                    f"select struct(K: r.K, B1: s1.B, B2: s2.B) "
                    f"from R{star} r, S{star}1 s1, S{star}2 s2 "
                    f"where r.A1 = s1.A and r.A2 = s2.A"
                ),
            )
        return catalog

    def _query(self):
        return q(
            "select struct(B11: s11.B, B12: s12.B, B21: s21.B, B22: s22.B) "
            "from R1 r1, S11 s11, S12 s12, R2 r2, S21 s21, S22 s22 "
            "where r1.F = r2.K and r1.A1 = s11.A and r1.A2 = s12.A "
            "and r2.A1 = s21.A and r2.A2 = s22.A"
        )

    def test_with_key_both_views_usable(self):
        result = CBOptimizer(self._catalog(with_key=True)).optimize(self._query(), "fb")
        plans = [plan.collections_used() for plan in result.plans]
        # Q'' from the paper: both views used, star 1 keeps R1 for the F link.
        assert any({"V1", "V2", "R1"} <= used and "S11" not in used for used in plans)
        assert result.plan_count == 4

    def test_without_key_v1_cannot_replace_star_one(self):
        result = CBOptimizer(self._catalog(with_key=False)).optimize(self._query(), "fb")
        plans = [plan.collections_used() for plan in result.plans]
        assert not any("V1" in used and "S11" not in used for used in plans)
        # V2 still replaces the second star (no attribute of R2 is needed
        # beyond what the view exposes).
        assert any("V2" in used for used in plans)


class TestStrategiesOnWorkloads:
    def test_ec1_all_strategies_complete_small(self):
        workload = build_ec1(relations=2, secondary_indexes=0)
        optimizer = workload.optimizer()
        expected = expected_plan_count(2, 0)
        for strategy in ("fb", "oqf", "ocs"):
            assert optimizer.optimize(workload.query, strategy).plan_count == expected

    def test_ec1_with_secondary_index(self):
        workload = build_ec1(relations=2, secondary_indexes=1)
        optimizer = workload.optimizer()
        assert optimizer.optimize(workload.query, "fb").plan_count == expected_plan_count(2, 1)
        assert optimizer.optimize(workload.query, "oqf").plan_count == expected_plan_count(2, 1)

    def test_ec2_paper_plan_counts_small_rows(self):
        for stars, corners, views, complete, ocs in [(1, 3, 1, 2, 2), (1, 3, 2, 4, 3)]:
            workload = build_ec2(stars, corners, views)
            optimizer = workload.optimizer()
            assert optimizer.optimize(workload.query, "fb").plan_count == complete
            assert optimizer.optimize(workload.query, "oqf").plan_count == complete
            assert optimizer.optimize(workload.query, "ocs").plan_count == ocs

    def test_ec2_oqf_matches_fb_plan_sets(self):
        workload = build_ec2(stars=2, corners=2, views=1)
        optimizer = workload.optimizer()
        fb = optimizer.optimize(workload.query, "fb")
        oqf = optimizer.optimize(workload.query, "oqf")
        assert fb.plan_count == oqf.plan_count
        fb_scans = {frozenset(plan.collections_used()) for plan in fb.plans}
        oqf_scans = {frozenset(plan.collections_used()) for plan in oqf.plans}
        assert fb_scans == oqf_scans

    def test_ec3_flip_plans(self):
        workload = build_ec3(classes=3)
        optimizer = workload.optimizer()
        fb = optimizer.optimize(workload.query, "fb")
        ocs = optimizer.optimize(workload.query, "ocs")
        assert fb.plan_count == 4
        assert ocs.plan_count == 4

    def test_ec3_with_asr_generates_asr_plan(self):
        workload = build_ec3(classes=3, asrs=1)
        result = workload.optimizer().optimize(workload.query, "fb")
        assert any("ASR1" in plan.collections_used() for plan in result.plans)

    def test_all_plans_always_include_an_original_equivalent(self):
        workload = build_ec2(stars=1, corners=3, views=1)
        optimizer = workload.optimizer()
        result = optimizer.optimize(workload.query, "fb")
        original_scans = workload.query.collections_used()
        assert any(plan.collections_used() == original_scans for plan in result.plans)


class TestOptimizerAPI:
    def test_unknown_strategy_rejected(self, star_catalog, star_query):
        with pytest.raises(ValueError):
            CBOptimizer(star_catalog).optimize(star_query, strategy="magic")

    def test_needs_catalog_or_constraints(self):
        with pytest.raises(ValueError):
            CBOptimizer()

    def test_memo_without_a_cache_is_rejected(self, star_catalog, star_query):
        # Only checks that run on a chase cache read the memo: a memo alone
        # would be accepted and never consulted.
        memo = ContainmentMemo()
        with pytest.raises(ValueError):
            CBOptimizer(star_catalog, containment_memo=memo)
        with pytest.raises(ValueError):
            FullBackchase(star_query, [], containment_memo=memo)
        pool = ScheduledPool(None, 1)
        with pytest.raises(ValueError):
            ParallelBackchase(star_query, [], pool, containment_memo=memo)
        CBOptimizer(star_catalog, cache_registry=ChaseCacheRegistry(), containment_memo=memo)
        FullBackchase(star_query, [], chase_cache=ChaseCache([]), containment_memo=memo)
        ParallelBackchase(star_query, [], pool, chase_cache=ChaseCache([]), containment_memo=memo)

    def test_explicit_constraints_override_catalog(self, star_catalog, star_query):
        optimizer = CBOptimizer(star_catalog, constraints=[])
        result = optimizer.optimize(star_query, "fb")
        assert result.plan_count == 1

    def test_result_accounting(self, star_catalog, star_query):
        result = CBOptimizer(star_catalog).optimize(star_query, "fb")
        assert result.total_time == pytest.approx(result.chase_time + result.backchase_time)
        assert result.time_per_plan() > 0
        assert result.universal_plan is not None
        assert len(result.plan_queries()) == result.plan_count

    def test_best_plan_uses_cost_function(self, star_catalog, star_query):
        result = CBOptimizer(star_catalog).optimize(star_query, "fb")
        best = result.best_plan(lambda query: query.size())
        assert best.query.size() == min(plan.query.size() for plan in result.plans)
        assert best.cost == best.query.size()

    def test_optimize_with_strata(self, star_catalog, star_query):
        optimizer = CBOptimizer(star_catalog)
        from repro.chase.stratify import stratify_constraints

        strata = stratify_constraints(star_catalog.constraints())
        result = optimizer.optimize_with_strata(star_query, strata)
        assert result.plan_count == 2
        assert result.stratum_count == len(strata)
