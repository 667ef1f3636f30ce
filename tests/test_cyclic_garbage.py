"""A request leaves nothing for the cycle collector.

The homomorphism search runs tens of thousands of times in a cold request.
When each search was a reference cycle (a nested generator calling itself
through its closure cell), every search kept its state alive until the
cycle collector ran: a fresh ``optimize`` on these settings left 2,311 to
50,950 objects of cyclic garbage.  With the collector disabled, each
request here must leave none, and a congruence closure holding the binding
index a search cached on it must be freed by its last reference.
"""

import gc
import weakref

import pytest

from repro.chase.optimizer import CBOptimizer
from repro.cq.homomorphism import find_homomorphism, find_homomorphisms
from repro.cq.query import PCQuery
from repro.workloads import build_ec1, build_ec2, build_ec3


@pytest.fixture
def collector_off():
    """Disable the cycle collector for the test, restoring its state after."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "build, params",
    [(build_ec1, (2, 1)), (build_ec2, (1, 3, 1)), (build_ec3, (3, 0))],
    ids=["EC1(2,1)", "EC2(1,3,1)", "EC3(3,0)"],
)
@pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
def test_a_cold_request_leaves_no_cyclic_garbage(collector_off, build, params, strategy):
    workload = build(*params)
    gc.collect()
    result = CBOptimizer(workload.catalog).optimize(workload.query, strategy=strategy)
    assert result.plan_count > 0
    assert gc.collect() == 0


def test_a_closure_with_a_cached_binding_index_is_freed_by_its_last_reference(collector_off):
    query = PCQuery.parse(
        "select struct(A: r.A) from R r, R s, S t where r.B = t.B and s.A = r.A"
    ).validate()
    closure = query.private_congruence()
    mappings = list(
        find_homomorphisms(query.bindings, query.conditions, query, target_closure=closure)
    )
    assert mappings and closure.binding_index is not None
    # A search abandoned after its first mapping holds nothing either.
    assert find_homomorphism(query.bindings, query.conditions, query, target_closure=closure)
    alive = weakref.ref(closure)
    index = weakref.ref(closure.binding_index)
    del closure
    assert alive() is None and index() is None
