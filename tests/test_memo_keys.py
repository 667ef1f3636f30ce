"""The warm caches' keys: built once per query instance, equal to a fresh build.

* ``PCQuery.signature()`` and ``variable_set`` are memoised on the
  instance.  Every query a warm registry holds after EC1–EC3 runs (chase
  fixpoints and the subqueries in their restriction tables) carries keys
  equal to those of a freshly built equal query.
* Pickling drops the memoised keys; the receiver rebuilds equal ones.
* Repeating an FB or an OCS request on a warm registry and memo, with the
  same query object, normalises no condition at all: every key is re-read.
* ``stratify_constraints`` is memoised per constraint list: callers get
  fresh lists and results equal to the direct computation.
* Racing threads on a fresh query all read the same key.
"""

import pickle
import sys
import threading

import pytest

from repro.chase.chase import chase
from repro.chase.implication import ChaseCacheRegistry
from repro.chase.optimizer import CBOptimizer
from repro.chase.stratify import _UnionFind, constraints_interact, stratify_constraints
from repro.cq.memo import ContainmentMemo
from repro.cq.query import PCQuery
from repro.lang.ast import Eq
from repro.workloads import build_ec1, build_ec2, build_ec3

JOIN_TIMEOUT = 60.0


def _workloads():
    return [build_ec1(2, 1), build_ec2(1, 3, 1), build_ec3(3, 1)]


def _fresh(query):
    return PCQuery(query.output, query.bindings, query.conditions)


def _held_queries(registry):
    """Every fixpoint in ``registry`` and every query in a restriction table."""
    exported, _ = registry.export_entries()
    pending = [fixpoint for _, entries in exported for fixpoint in entries.values()]
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


def test_pickling_drops_the_memoised_keys():
    workload = build_ec2(1, 3, 1)
    query = workload.query
    signature, variables = query.signature(), query.variable_set
    assert {"_signature", "_variable_set"} <= set(query.__dict__)
    state = query.__getstate__()
    assert "_signature" not in state and "_variable_set" not in state
    clone = pickle.loads(pickle.dumps(query))
    assert "_signature" not in clone.__dict__ and "_variable_set" not in clone.__dict__
    assert clone == query
    assert clone.signature() == signature
    assert clone.variable_set == variables


@pytest.mark.parametrize("workload", _workloads(), ids=lambda workload: workload.name)
@pytest.mark.parametrize("strategy", ["fb", "ocs"])
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
    repeat = optimizer.optimize(workload.query, strategy=strategy)
    assert calls == []
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
    recompiled = workload.catalog.constraints()
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
