"""Property-based tests (hypothesis) for the core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.chase.backchase import FullBackchase
from repro.chase.chase import chase
from repro.chase.implication import ChaseCache, equivalent_under
from repro.cq.congruence import CongruenceClosure
from repro.cq.containment import find_containment_mapping, is_equivalent
from repro.cq.homomorphism import find_homomorphisms
from repro.cq.memo import ContainmentMemo
from repro.cq.query import PCQuery
from repro.engine.database import Database
from repro.engine.executor import execute
from repro.lang.ast import Attr, Binding, Const, Eq, SchemaRef, Var
from repro.lang.parser import parse_query
from repro.lang.pretty import format_query
from repro.schema.catalog import Catalog


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
variables = st.sampled_from(["x", "y", "z", "u", "v"])
attributes = st.sampled_from(["A", "B", "K"])


@st.composite
def simple_paths(draw):
    var = Var(draw(variables))
    if draw(st.booleans()):
        return Attr(var, draw(attributes))
    return var


@st.composite
def equalities(draw):
    left = draw(simple_paths())
    if draw(st.booleans()):
        right = draw(simple_paths())
    else:
        right = Const(draw(st.integers(min_value=0, max_value=3)))
    return Eq(left, right)


@st.composite
def random_chain_queries(draw):
    """Random conjunctive queries over a fixed 3-relation schema."""
    relations = ["T1", "T2", "T3"]
    size = draw(st.integers(min_value=1, max_value=3))
    bindings = []
    for position in range(size):
        bindings.append(Binding(f"b{position}", SchemaRef(draw(st.sampled_from(relations)))))
    conditions = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        first = draw(st.integers(min_value=0, max_value=size - 1))
        second = draw(st.integers(min_value=0, max_value=size - 1))
        conditions.append(
            Eq(
                Attr(Var(f"b{first}"), draw(attributes)),
                Attr(Var(f"b{second}"), draw(attributes)),
            )
        )
    output = [("O0", Attr(Var("b0"), "A"))]
    return PCQuery.create(output, bindings, conditions).validate()


# ---------------------------------------------------------------------- #
# congruence closure
# ---------------------------------------------------------------------- #
@given(st.lists(equalities(), max_size=8), simple_paths(), simple_paths(), simple_paths())
@settings(max_examples=60, deadline=None)
def test_congruence_is_an_equivalence_relation(eqs, a, b, c):
    closure = CongruenceClosure(eqs)
    assert closure.equal(a, a)
    if closure.equal(a, b):
        assert closure.equal(b, a)
    if closure.equal(a, b) and closure.equal(b, c):
        assert closure.equal(a, c)


@given(st.lists(equalities(), max_size=8), simple_paths(), simple_paths())
@settings(max_examples=60, deadline=None)
def test_congruence_propagates_to_attributes(eqs, a, b):
    closure = CongruenceClosure(eqs)
    if closure.equal(a, b):
        assert closure.equal(Attr(a, "Z"), Attr(b, "Z"))


@given(st.lists(equalities(), max_size=8))
@settings(max_examples=60, deadline=None)
def test_congruence_classes_partition_terms(eqs):
    closure = CongruenceClosure(eqs)
    classes = closure.classes()
    seen = []
    for cls in classes:
        seen.extend(id(term) for term in cls)
    assert len(seen) == len(closure.terms())


@given(st.lists(equalities(), max_size=8), simple_paths(), simple_paths())
@settings(max_examples=60, deadline=None)
def test_asserted_equalities_hold(eqs, a, b):
    closure = CongruenceClosure(eqs)
    for equality in eqs:
        assert closure.equal(equality.left, equality.right)
    # Merging two arbitrary terms makes them equal.
    closure.merge(a, b)
    assert closure.equal(a, b)


# ---------------------------------------------------------------------- #
# queries: round-trips and restriction
# ---------------------------------------------------------------------- #
@given(random_chain_queries())
@settings(max_examples=50, deadline=None)
def test_query_text_round_trip(query):
    assert PCQuery.from_sfw(parse_query(format_query(query))) == query


@given(random_chain_queries())
@settings(max_examples=40, deadline=None)
def test_restriction_yields_contained_subquery(query):
    # Every restriction that succeeds is a superset (as a query result) of the
    # original: the original is contained in the subquery.
    from repro.cq.containment import is_contained_in

    for var in query.variables:
        restricted = query.restrict_to(query.variable_set - {var})
        if restricted is not None:
            restricted.validate()
            assert is_contained_in(query, restricted)


@given(random_chain_queries())
@settings(max_examples=40, deadline=None)
def test_homomorphism_identity_always_exists(query):
    mappings = list(find_homomorphisms(query.bindings, query.conditions, query))
    assert {var: Var(var) for var in query.variables} in mappings


@given(random_chain_queries())
@settings(max_examples=30, deadline=None)
def test_backchase_without_constraints_minimizes(query):
    result = FullBackchase(query, []).run(query)
    assert result.plan_count >= 1
    for plan in result.plans:
        assert is_equivalent(plan.query, query)
        assert plan.query.size() <= query.size()


# ---------------------------------------------------------------------- #
# containment memo soundness (the serving layer's cross-request reuse)
# ---------------------------------------------------------------------- #
def _fresh_verdict(source, target):
    """The reference semantics a memoised verdict must always reproduce."""
    return find_containment_mapping(source, target) is not None


@given(
    st.lists(
        st.tuples(random_chain_queries(), random_chain_queries()), min_size=1, max_size=10
    )
)
@settings(max_examples=40, deadline=None)
def test_memoised_verdict_equals_fresh_verdict(pairs):
    # A tiny LRU bound forces evictions mid-sequence: verdicts answered from
    # the memo, recomputed after eviction, and recomputed-then-rememoised must
    # all equal the fresh find_containment_mapping verdict.
    memo = ContainmentMemo(max_entries=3)
    for source, target in pairs:
        fresh = _fresh_verdict(source, target)
        assert memo.check(source, target) == fresh
        # Immediate re-query: answered from the memo (or rememoised), same verdict.
        assert memo.check(source, target) == fresh
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == 2 * len(pairs)
    assert stats["entries"] <= 3


@given(st.lists(random_chain_queries(), min_size=2, max_size=4))
@settings(max_examples=15, deadline=None)
def test_memo_stays_sound_across_eviction_boundaries(queries):
    # Re-deciding the full pair matrix three times over a 2-entry memo makes
    # every key cross the eviction boundary repeatedly; soundness must hold on
    # every round (a stale or cross-wired entry would flip some verdict).
    memo = ContainmentMemo(max_entries=2)
    expected = {
        (i, j): _fresh_verdict(source, target)
        for i, source in enumerate(queries)
        for j, target in enumerate(queries)
    }
    for _ in range(3):
        for i, source in enumerate(queries):
            for j, target in enumerate(queries):
                assert memo.check(source, target) == expected[(i, j)]
    distinct_keys = {
        ContainmentMemo.key(source, target) for source in queries for target in queries
    }
    if len(distinct_keys) > 2:
        assert memo.stats()["evictions"] > 0


@given(random_chain_queries())
@settings(max_examples=25, deadline=None)
def test_backchase_with_memo_produces_identical_plans(query):
    # The memo must be invisible to the engine: same plans, memo or not —
    # including a second run answered partly from a memo that evicts.  Only
    # the checks that run on a chase cache read the memo, so each memo run
    # gets a fresh cache: the second run chases again, and every verdict it
    # reads from the memo comes from the first.
    baseline = FullBackchase(query, []).run(query)
    memo = ContainmentMemo(max_entries=8)
    first = FullBackchase(
        query, [], chase_cache=ChaseCache([]), containment_memo=memo
    ).run(query)
    second = FullBackchase(
        query, [], chase_cache=ChaseCache([]), containment_memo=memo
    ).run(query)
    reference = {plan.signature() for plan in baseline.plans}
    assert {plan.signature() for plan in first.plans} == reference
    assert {plan.signature() for plan in second.plans} == reference
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == first.equivalence_checks + second.equivalence_checks
    assert stats["entries"] <= 8


@given(random_chain_queries(), random_chain_queries())
@settings(max_examples=40, deadline=None)
def test_memo_key_is_structural(query, other):
    # Two structurally identical queries (same signature) must share one memo
    # entry; distinct signatures must not collide.
    memo = ContainmentMemo()
    memo.check(query, other)
    assert memo.lookup(query, other) == _fresh_verdict(query, other)
    if query.signature() == other.signature():
        # Same canonical pair key: the reversed lookup answers from the same
        # entry (and the verdict is symmetric for identical signatures).
        assert memo.lookup(other, query) == memo.lookup(query, other)


# ---------------------------------------------------------------------- #
# chase soundness and executor agreement on random instances
# ---------------------------------------------------------------------- #
def _simple_catalog():
    catalog = Catalog()
    catalog.add_relation("T1", ["A", "B", "K"])
    catalog.add_relation("T2", ["A", "B", "K"])
    catalog.add_relation("T3", ["A", "B", "K"])
    catalog.add_foreign_key("T1", ["A"], "T2", ["A"])
    catalog.add_key("T1", ["K"])
    return catalog


@given(random_chain_queries())
@settings(max_examples=25, deadline=None)
def test_chase_preserves_equivalence_under_constraints(query):
    constraints = _simple_catalog().constraints()
    chased = chase(query, constraints).query
    assert equivalent_under(chased, query, constraints)


@given(
    random_chain_queries(),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=0,
        max_size=12,
    ),
)
@settings(max_examples=25, deadline=None)
def test_minimized_plans_agree_with_original_on_random_data(query, row_specs):
    database = Database()
    rows = {"T1": [], "T2": [], "T3": []}
    for index, (a, b, k) in enumerate(row_specs):
        rows[["T1", "T2", "T3"][index % 3]].append({"A": a, "B": b, "K": k})
    for name, table_rows in rows.items():
        database.add_table(name, table_rows)
    # C&B equivalence is set-based (path-conjunctive queries under set
    # semantics), so the comparison ignores multiplicities.
    reference = {tuple(sorted(row.items())) for row in execute(query, database)}
    result = FullBackchase(query, []).run(query)
    for plan in result.plans:
        produced = {tuple(sorted(row.items())) for row in execute(plan.query, database)}
        assert produced == reference
