"""Unit tests for the chase, dependency implication and the backchase."""

import pytest

from repro.errors import ChaseError
from repro.chase.backchase import FullBackchase
from repro.chase.chase import chase, chase_step, collapse_duplicate_bindings
from repro.chase.implication import contained_under, equivalent_under, implies
from repro.cq.containment import is_equivalent
from repro.cq.query import PCQuery
from repro.schema.compile import foreign_key_dependency, key_dependency
from repro.schema.constraints import Dependency


def q(text):
    return PCQuery.parse(text).validate()


class TestChaseStep:
    def test_tgd_step_adds_bindings(self):
        query = q("select struct(A: r.A) from R r")
        dependency = foreign_key_dependency("R", ["A"], "S", ["A"])
        chased, step = chase_step(query, dependency)
        assert chased.size() == 2
        assert step.dependency == dependency.name
        assert chased.collections_used() == {"R", "S"}

    def test_satisfied_tgd_does_not_fire(self):
        query = q("select struct(A: r.A) from R r, S s where r.A = s.A")
        dependency = foreign_key_dependency("R", ["A"], "S", ["A"])
        assert chase_step(query, dependency) is None

    def test_egd_step_adds_equality(self):
        query = q("select struct(K: r1.K) from R r1, R r2 where r1.K = r2.K")
        dependency = key_dependency("R", ["K"])
        chased, _ = chase_step(query, dependency)
        assert chased.implies_equality(
            PCQuery.parse("select struct(X: r1.A) from R r1").output_path("X").base,
            PCQuery.parse("select struct(X: r2.A) from R r2").output_path("X").base,
        )

    def test_satisfied_egd_does_not_fire(self):
        query = q("select struct(K: r1.K) from R r1, R r2 where r1 = r2")
        dependency = key_dependency("R", ["K"])
        assert chase_step(query, dependency) is None

    def test_fresh_variables_avoid_collisions(self):
        query = q("select struct(A: r.A, B: s.A) from R r, S s")
        dependency = foreign_key_dependency("R", ["A"], "S", ["A"])
        chased, step = chase_step(query, dependency)
        assert len(set(chased.variables)) == chased.size()
        assert step.added_variables[0] not in ("r", "s")


class TestChaseFixpoint:
    def test_chase_is_idempotent(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        first = chase(star_query, constraints).query
        second = chase(first, constraints).query
        assert first.signature() == second.signature()

    def test_chase_result_is_equivalent_under_constraints(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        assert equivalent_under(universal, star_query, constraints)

    def test_universal_plan_mentions_applicable_views(self, star_catalog, star_query):
        universal = chase(star_query, star_catalog.constraints()).query
        assert "V11" in universal.collections_used()

    def test_inapplicable_view_is_not_added(self, star_catalog):
        query = q("select struct(B3: s3.B) from R1 r, S13 s3 where r.A3 = s3.A")
        universal = chase(query, star_catalog.constraints()).query
        assert "V11" not in universal.collections_used()

    def test_chase_records_steps_and_rounds(self, star_catalog, star_query):
        result = chase(star_query, star_catalog.constraints())
        assert result.applied >= 1
        assert result.rounds >= 1
        assert result.elapsed >= 0

    def test_divergent_chase_is_stopped(self):
        # R(A) with a constraint forcing an infinite chain of fresh S tuples.
        growing = Dependency.parse(
            "GROW", "forall s in S implies exists t in S where t.A = s.B"
        )
        seed = Dependency.parse("SEED", "forall r in R implies exists s in S where s.A = r.A")
        query = q("select struct(A: r.A) from R r")
        with pytest.raises(ChaseError):
            chase(query, [seed, growing], max_rounds=5, max_size=30)

    def test_collapse_merges_duplicate_bindings(self):
        query = q(
            "select struct(A: r1.A) from R r1, R r2 where r1 = r2 and r1.A = r2.A"
        )
        collapsed = collapse_duplicate_bindings(query)
        assert collapsed.size() == 1

    def test_collapse_keeps_distinct_bindings(self, chain_query):
        assert collapse_duplicate_bindings(chain_query).size() == chain_query.size()


class TestImplication:
    def test_key_implies_itself(self):
        key = key_dependency("R", ["K"])
        assert implies([key], key)

    def test_fk_does_not_imply_key(self):
        key = key_dependency("R", ["K"])
        fk = foreign_key_dependency("R", ["A"], "S", ["A"])
        assert not implies([fk], key)

    def test_transitive_foreign_keys(self):
        first = foreign_key_dependency("R", ["A"], "S", ["A"], name="FK1")
        second = foreign_key_dependency("S", ["A"], "T", ["A"], name="FK2")
        composed = foreign_key_dependency("R", ["A"], "T", ["A"], name="FK3")
        assert implies([first, second], composed)
        assert not implies([first], composed)

    def test_contained_under_with_foreign_key(self, simple_catalog):
        # Example 2.1: Q' (with the extra join against S) is equivalent to Q
        # only because of the foreign key R.A -> S.A.
        original = q("select struct(A: r.A, E: r.E) from R r where r.B = 1 and r.C = 2")
        rewritten = q(
            "select struct(A: r.A, E: r.E) from R r, S s "
            "where r.B = 1 and r.C = 2 and r.A = s.A"
        )
        constraints = simple_catalog.constraints()
        assert equivalent_under(original, rewritten, constraints)
        assert not is_equivalent(original, rewritten)
        assert not equivalent_under(original, rewritten, [])

    def test_contained_under_is_directional(self):
        larger = q("select struct(A: r.A) from R r")
        smaller = q("select struct(A: r.A) from R r where r.A = 1")
        assert contained_under(smaller, larger, [])
        assert not contained_under(larger, smaller, [])


class TestBackchase:
    def test_no_constraints_returns_minimized_original(self):
        redundant = q("select struct(X: r1.A) from R r1, R r2 where r1.A = r2.A")
        backchaser = FullBackchase(redundant, [])
        result = backchaser.run(redundant)
        # Tableau minimization: the redundant self-join collapses to a single
        # scan (isomorphic duplicates reached through either copy are merged).
        assert result.plan_count == 1
        assert result.plans[0].query.size() == 1

    def test_minimal_query_is_its_own_plan(self, chain_query):
        backchaser = FullBackchase(chain_query, [])
        result = backchaser.run(chain_query)
        assert result.plan_count == 1
        assert result.plans[0].query.size() == 2

    def test_every_plan_is_equivalent_to_the_original(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        result = FullBackchase(star_query, constraints).run(universal)
        assert result.plan_count == 2
        for plan in result.plans:
            assert equivalent_under(plan.query, star_query, constraints)

    def test_plans_are_minimal(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        result = FullBackchase(star_query, constraints).run(universal)
        for plan in result.plans:
            variables = plan.query.variable_set
            for var in variables:
                subquery = universal.restrict_to(variables - {var})
                if subquery is None:
                    continue
                assert not equivalent_under(subquery, star_query, constraints)

    def test_timeout_returns_partial_results(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        result = FullBackchase(star_query, constraints, timeout=0.0).run(universal)
        assert result.timed_out

    def test_counters_are_populated(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        result = FullBackchase(star_query, constraints).run(universal)
        assert result.subqueries_explored > 0
        assert result.equivalence_checks > 0
        assert result.elapsed > 0
        assert result.time_per_plan() > 0


class TestIncrementalEngine:
    """The semi-naive engine is a pure optimization of the restart engine."""

    def _assert_identical(self, query, constraints):
        incremental = chase(query, constraints, incremental=True)
        restart = chase(query, constraints, incremental=False, use_index=False)
        assert incremental.query == restart.query
        assert [
            (step.dependency, step.added_variables, step.added_conditions)
            for step in incremental.steps
        ] == [
            (step.dependency, step.added_variables, step.added_conditions)
            for step in restart.steps
        ]
        assert incremental.counters.trigger_misses == 0
        return incremental, restart

    def test_star_workload_bit_identical(self, star_catalog, star_query):
        self._assert_identical(star_query, star_catalog.constraints())

    def test_simple_foreign_key_bit_identical(self, simple_catalog):
        query = q("select struct(A: r.A, E: r.E) from R r where r.B = 1")
        self._assert_identical(query, simple_catalog.constraints())

    def test_egd_merges_bit_identical(self):
        query = q("select struct(K: r1.K) from R r1, R r2 where r1.K = r2.K")
        self._assert_identical(query, [key_dependency("R", ["K"])])

    def test_trigger_index_skips_dependencies(self, star_catalog, star_query):
        result = chase(star_query, star_catalog.constraints())
        assert result.counters.deps_checked > 0
        assert result.counters.deps_skipped > 0

    def test_incremental_engine_does_less_closure_work(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        incremental = chase(star_query, constraints, incremental=True)
        restart = chase(star_query, constraints, incremental=False, use_index=False)
        assert (
            incremental.counters.closure_queries < restart.counters.closure_queries
        )

    def test_divergent_chase_is_stopped_incrementally(self):
        growing = Dependency.parse(
            "GROW", "forall s in S implies exists t in S where t.A = s.B"
        )
        seed = Dependency.parse("SEED", "forall r in R implies exists s in S where s.A = r.A")
        query = q("select struct(A: r.A) from R r")
        with pytest.raises(ChaseError):
            chase(query, [seed, growing], max_rounds=5, max_size=30, incremental=True)


class TestChaseCounters:
    def test_counters_are_deterministic(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        first = chase(star_query, constraints).counters
        second = chase(star_query, constraints).counters
        assert first == second

    def test_counters_are_populated(self, star_catalog, star_query):
        counters = chase(star_query, star_catalog.constraints()).counters
        assert counters.closure_queries > 0
        assert counters.candidates_tried > 0
        assert counters.conditions_checked > 0
        assert counters.deps_checked > 0
        assert counters.trigger_misses == 0

    def test_satisfied_set_needs_one_quiet_pass(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        rechase = chase(universal, constraints)
        assert rechase.applied == 0
        # Every dependency is checked exactly once and nothing is re-verified.
        assert rechase.counters.deps_checked == len(constraints)
        assert rechase.rounds == 1


class TestChaseCacheAccounting:
    def test_hits_and_misses(self, star_catalog, star_query):
        from repro.chase.implication import ChaseCache

        constraints = star_catalog.constraints()
        cache = ChaseCache(constraints)
        cache.chase(star_query)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.chase(star_query)
        assert (cache.hits, cache.misses) == (1, 1)
        # The aggregated counters reflect only the single cache-miss chase.
        direct = chase(star_query, constraints).counters
        assert cache.counters == direct

    def test_renamed_duplicate_is_a_miss(self, star_catalog, star_query):
        from repro.chase.implication import ChaseCache

        cache = ChaseCache(star_catalog.constraints())
        cache.chase(star_query)
        renamed = star_query.rename_variables({"r": "other"})
        cache.chase(renamed)
        assert (cache.hits, cache.misses) == (0, 2)


class TestBackchaseCounters:
    def test_backchase_counters_are_populated(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        result = FullBackchase(star_query, constraints).run(universal)
        assert result.cache_misses > 0
        assert result.cache_hits >= 0
        assert result.closure_queries > 0
        assert result.candidates_tried > 0

    def test_backchase_counters_are_deterministic(self, star_catalog, star_query):
        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        first = FullBackchase(star_query, constraints).run(universal)
        second = FullBackchase(star_query, constraints).run(universal)
        fields = (
            "subqueries_explored",
            "equivalence_checks",
            "cache_hits",
            "cache_misses",
            "closure_queries",
            "candidates_tried",
        )
        assert {name: getattr(first, name) for name in fields} == {
            name: getattr(second, name) for name in fields
        }

    def test_repeated_run_reuses_the_instance_cache(self, star_catalog, star_query):
        from repro.chase.implication import ChaseCache

        constraints = star_catalog.constraints()
        universal = chase(star_query, constraints).query
        backchaser = FullBackchase(star_query, constraints, chase_cache=ChaseCache(constraints))
        first = backchaser.run(universal)
        second = backchaser.run(universal)
        # Per-run accounting: the second run hits the warm chase cache.
        assert second.cache_misses == 0
        assert second.cache_hits == first.cache_hits + first.cache_misses

    def test_optimizer_surfaces_engine_counters(self, star_catalog, star_query):
        from repro.chase.optimizer import CBOptimizer

        result = CBOptimizer(star_catalog).optimize(star_query, strategy="fb")
        assert result.closure_queries > 0
        assert result.cache_misses > 0
