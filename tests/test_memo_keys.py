"""The warm caches' keys: built once per query instance, equal to a fresh build.

* ``PCQuery.signature()`` and ``variable_set`` are memoised on the
  instance.  Every query a warm registry holds after EC1–EC3 runs (chase
  fixpoints and the subqueries in their restriction tables) carries keys
  equal to those of a freshly built equal query.
* A dependency's search schedules and trigger heads, and a containment
  source's schedule, equal a fresh build.
* Restrictions read a saturated closure's layout, built once per closure
  state: every restriction a universal plan's walk builds equals one built
  against a fresh closure, also after an ``extra_output`` interns a term.
* Repeating an FB, OQF or OCS request on a warm registry and memo, with the
  same query object, compiles no catalog declaration and normalises no
  condition (every key is re-read), except that OQF signs the plans it
  assembles from its fragments' plans, which are new queries every time.
* ``stratify_constraints`` is memoised per constraint list: callers get
  fresh lists and results equal to the direct computation.
* Racing threads on a fresh query all read the same key.
"""

import sys
import threading

import pytest

import repro.chase.optimizer as optimizer_module
from repro.chase.backchase import FullBackchase
from repro.chase.chase import _dependency_triggers, chase
from repro.chase.implication import ChaseCacheRegistry
from repro.chase.optimizer import CBOptimizer
from repro.chase.stratify import _UnionFind, constraints_interact, stratify_constraints
from repro.cq.homomorphism import schedule_conditions
from repro.cq.memo import ContainmentMemo
from repro.cq.query import (
    PCQuery,
    _build_restriction,
    _composite_rank,
    _shared_saturated_congruence,
)
from repro.lang.ast import Attr, Eq, Var, path_variables
from repro.schema.compile import compile_logical_constraints, compile_structure
from repro.workloads import build_ec1, build_ec2, build_ec3

JOIN_TIMEOUT = 60.0


def _workloads():
    return [build_ec1(2, 1), build_ec2(1, 3, 1), build_ec3(3, 1)]


def _fresh(query):
    return PCQuery(query.output, query.bindings, query.conditions)


def _rebuild(workload):
    """A freshly built workload with the same parameters: equal, but new objects."""
    builders = {"EC1": build_ec1, "EC2": build_ec2, "EC3": build_ec3}
    return builders[workload.name](**workload.params)


def _held_queries(registry):
    """Every fixpoint in ``registry`` and every query in a restriction table."""
    exported = registry.export_entries()
    pending = [fixpoint for _, entries in exported for _, fixpoint in entries]
    seen = {}
    while pending:
        query = pending.pop()
        if id(query) in seen:
            continue
        seen[id(query)] = query
        table = query.__dict__.get("_restrictions") or {}
        pending.extend(result for result in dict(table).values() if result is not None)
    return list(seen.values())


def test_memoised_keys_of_every_held_query_equal_a_fresh_build():
    registry, memo = ChaseCacheRegistry(), ContainmentMemo()
    for workload in _workloads():
        optimizer = CBOptimizer(workload.catalog, cache_registry=registry, containment_memo=memo)
        for strategy in ("fb", "oqf", "ocs"):
            optimizer.optimize(workload.query, strategy=strategy)
    held = _held_queries(registry)
    signed = [query for query in held if "_signature" in query.__dict__]
    sized = [query for query in held if "_variable_set" in query.__dict__]
    # Restriction subqueries are chased and compared, so most hold a
    # signature; the queries the backchase restricted hold a variable set.
    assert len(signed) > 100 and sized
    for query in held:
        fresh = _fresh(query)
        assert query.signature() == fresh.signature()
        assert query.variable_set == fresh.variable_set


@pytest.mark.parametrize("workload", _workloads(), ids=lambda workload: workload.name)
def test_memoised_search_state_equals_a_fresh_build(workload):
    registry, memo = ChaseCacheRegistry(), ContainmentMemo()
    optimizer = CBOptimizer(workload.catalog, cache_registry=registry, containment_memo=memo)
    for strategy in ("fb", "oqf", "ocs"):
        optimizer.optimize(workload.query, strategy=strategy)
    planned = [dep for dep in workload.catalog.constraints() if "_search_plan" in dep.__dict__]
    assert planned
    for dependency in planned:
        plan = dependency.__dict__["_search_plan"]
        assert plan.universal == schedule_conditions(dependency.universal, dependency.premise)
        # The extension's pre-assigned variables are the universal ones.
        assert plan.existential == schedule_conditions(
            dependency.existential, dependency.conclusion, dependency.universal_variables
        )
        assert plan.triggers == _dependency_triggers(dependency)
    sources = [query for query in _held_queries(registry) if "_search_schedule" in query.__dict__]
    sources.append(workload.query)
    for source in sources:
        expected = schedule_conditions(source.bindings, source.conditions)
        assert source.__dict__["_search_schedule"] == expected


def _fresh_restriction(query, keep, extra_output):
    """``restrict_to``'s body against a fresh saturated closure, with no layout yet.

    The closure is built outside the process-wide cache, so it carries no
    layout and none of the terms earlier restrictions interned.
    """
    closure = _shared_saturated_congruence.__wrapped__(query)
    assert closure.restriction_layout is None
    return _build_restriction(_OwnClosure(query, closure), keep, extra_output), closure


class _OwnClosure:
    """A query stand-in whose saturated closure is one fixed closure."""

    def __init__(self, query, closure):
        self.bindings, self.output, self._closure = query.bindings, query.output, closure

    def saturated_congruence(self):
        return self._closure


def _surviving_chains(closure, keep):
    """The candidate equalities built class by class: filter the members, then sort the survivors."""
    chains = []
    for cls in closure.classes():
        survivors = [term for term in cls if path_variables(term) <= keep]
        if len(survivors) > 1:
            survivors.sort(key=lambda term: (_composite_rank(term), len(str(term)), str(term)))
            chains.extend(Eq(survivors[0], other).normalized() for other in survivors[1:])
    return chains


def _layout_chains(layout, keep):
    """The same candidate equalities read off a layout: sorted once, then filtered."""
    chains = []
    for members in layout.classes:
        survivors = [term for term in members[::2] if path_variables(term) <= keep]
        if len(survivors) > 1:
            chains.extend(Eq(survivors[0], other).normalized() for other in survivors[1:])
    return chains


def test_restrictions_through_the_layout_equal_a_fresh_build():
    workload = build_ec2(1, 3, 1)
    constraints = workload.catalog.constraints()
    universal = _fresh(chase(workload.query, constraints).query)
    FullBackchase(workload.query, constraints).run(universal)
    # Every node the walk restricted, with the result it got.
    table = dict(universal.__dict__["_restrictions"])
    assert len(table) > 10 and any(result is not None for result in table.values())
    closure = universal.saturated_congruence()
    layout = closure.restriction_layout
    assert layout.key == (len(closure), closure.generation)
    for (keep, extra_output), result in table.items():
        fresh, fresh_closure = _fresh_restriction(universal, keep, extra_output)
        assert result == fresh
        assert _layout_chains(layout, keep) == _surviving_chains(fresh_closure, keep)
    # The closure did not change, so every restriction read one layout.
    assert closure.restriction_layout is layout


def test_a_restriction_that_interns_a_term_rebuilds_the_layout():
    query = _fresh(
        PCQuery.parse(
            "select struct(A: r.A) from R r, R s, S t where r = s and t.B = s.A"
        ).validate()
    )
    closure = query.saturated_congruence()
    s_path, r_path = Attr(Attr(Var("s"), "A"), "C"), Attr(Attr(Var("r"), "A"), "C")
    requests = [
        ({"r", "s", "t"}, ()),
        # s.A.C is new to the closure: rewriting it over {r, t} interns it.
        ({"r", "t"}, (("L", s_path),)),
        # r.A.C is new too, and congruent with s.A.C since r.A = s.A: a union.
        ({"t"}, (("L", r_path),)),
        ({"r", "s"}, ()),
    ]
    results, keys = [], []
    for keep, extra_output in requests:
        results.append(query.restrict_to(keep, extra_output=extra_output))
        keys.append(closure.restriction_layout.key)
    assert results[1].output_path("L") == r_path
    assert keys[1][0] == keys[0][0] and keys[2][0] == keys[1][0] + 1
    assert keys[3] == (len(closure), closure.generation) != keys[2]
    assert closure.generation > keys[0][1]
    # The rebuilt layout lists both interned terms, now one class.
    assert any({s_path, r_path} <= set(members[::2]) for members in closure.restriction_layout.classes)
    for (keep, extra_output), result in zip(requests, results):
        fresh, _ = _fresh_restriction(query, frozenset(keep), extra_output)
        assert result == fresh


def _count_calls(monkeypatch, function, calls):
    """Make every ``repro`` module's binding of ``function`` record its calls."""

    def counting(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)


@pytest.mark.parametrize("workload", _workloads(), ids=lambda workload: workload.name)
@pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
def test_a_repeated_warm_request_rebuilds_no_key(monkeypatch, workload, strategy):
    optimizer = CBOptimizer(
        workload.catalog, cache_registry=ChaseCacheRegistry(), containment_memo=ContainmentMemo()
    )
    first = optimizer.optimize(workload.query, strategy=strategy)
    calls = []
    normalized = Eq.normalized

    def counting(self):
        calls.append(self)
        return normalized(self)

    monkeypatch.setattr(Eq, "normalized", counting)
    compiles = []
    _count_calls(monkeypatch, compile_structure, compiles)
    _count_calls(monkeypatch, compile_logical_constraints, compiles)
    assembled = []
    assemble = optimizer_module.assemble_plan

    def assembling(*args):
        assembled.append(assemble(*args))
        return assembled[-1]

    monkeypatch.setattr(optimizer_module, "assemble_plan", assembling)
    repeat = optimizer.optimize(workload.query, strategy=strategy)
    # The only conditions normalised are those of the assembled OQF plans,
    # each once, when the plans are deduplicated.
    signed = [condition for plan in assembled for condition in plan.conditions]
    assert sorted(map(id, calls)) == sorted(map(id, signed))
    assert bool(assembled) == (strategy == "oqf")
    assert compiles == []
    assert repeat.cache_misses == 0
    assert {plan.signature() for plan in repeat.plans} == {plan.signature() for plan in first.plans}


def _direct_strata(dependencies, egd_in_every_stratum):
    """The partition computed straight from the pairwise interaction test."""
    if egd_in_every_stratum:
        structural = [dep for dep in dependencies if dep.is_tgd]
        egds = [dep for dep in dependencies if dep.is_egd]
    else:
        structural, egds = list(dependencies), []
    if not structural:
        return [egds] if egds else []
    union = _UnionFind(range(len(structural)))
    for i in range(len(structural)):
        for j in range(i + 1, len(structural)):
            if constraints_interact(structural[i], structural[j]):
                union.union(i, j)
    groups = sorted(union.groups(), key=min)
    return [[structural[index] for index in sorted(group)] + egds for group in groups]


@pytest.mark.parametrize(
    "workload",
    [build_ec1(2, 1), build_ec1(3, 0), build_ec2(1, 3, 2), build_ec2(2, 2, 1), build_ec3(3, 0),
     build_ec3(3, 1)],
    ids=lambda workload: f"{workload.name}-{sorted(workload.params.items())}",
)
@pytest.mark.parametrize("egd_in_every_stratum", [True, False])
def test_memoised_strata_equal_the_direct_partition(workload, egd_in_every_stratum):
    dependencies = workload.catalog.constraints()
    expected = _direct_strata(dependencies, egd_in_every_stratum)
    first = stratify_constraints(dependencies, egd_in_every_stratum)
    assert first == expected
    first[0].clear()
    first.append(["not a dependency"])
    # A catalog compiles once, so only a freshly built one hands out other
    # (equal) dependency objects.
    recompiled = _rebuild(workload).catalog.constraints()
    assert recompiled == dependencies
    assert not any(dep is mine for dep in recompiled for mine in dependencies)
    again = stratify_constraints(iter(recompiled), egd_in_every_stratum)
    assert again == expected
    # The caller's own dependency objects come back, not an earlier caller's.
    assert all(any(dep is own for own in recompiled) for stratum in again for dep in stratum)


def test_threads_racing_on_a_fresh_query_read_equal_keys():
    workload = build_ec2(2, 2, 1)
    template = chase(workload.query, workload.catalog.constraints()).query
    expected = (_fresh(template).signature(), _fresh(template).variable_set)
    queries = [_fresh(template) for _ in range(300)]
    barrier = threading.Barrier(8)
    results = [[] for _ in range(8)]

    def reader(out):
        barrier.wait(timeout=JOIN_TIMEOUT)
        for query in queries:
            out.append((query.signature(), query.variable_set))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == [expected] * len(queries) for out in results)
    assert all(query.signature() == expected[0] for query in queries)
