"""The pruned backchase walk against a brute-force reference.

Both engines run one level-wise walk that skips every subset of a subquery
which failed containment, so agreement between them says nothing about the
pruning.  The reference here shares none of the walk: it judges every
binding subset of a small universal plan on its own, with the restart chase
(``incremental=False, use_index=False``) and a plain containment-mapping
search, with no chase cache, no memo and no pruning, and then keeps the
nodes reachable from the top through equivalent one-binding removals that
have no equivalent child.

The engines check one direction of each equivalence only: the other holds
because the identity is a containment mapping from every restriction of the
universal plan into it (the proof is in ``_check_equivalence``'s
docstring).  The reference asserts that for every subset ``restrict_to``
accepts, so a ``restrict_to`` change that breaks the proof fails here.
"""

import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.chase.backchase import FullBackchase, ParallelBackchase
from repro.chase.chase import chase
from repro.chase.plans import Plan, dedupe_isomorphic_plans
from repro.cq.containment import has_containment_mapping, outputs_match
from repro.cq.homomorphism import find_homomorphism
from repro.lang.ast import Var
from repro.service.scheduler import ScheduledPool
from repro.workloads.ec1 import build_ec1
from repro.workloads.ec2 import build_ec2
from repro.workloads.ec3 import build_ec3

#: Universal plans of this many bindings at most: 2**8 subsets, each chased.
MAX_BINDINGS = 8


def _assert_identity_maps_into(subquery, universal):
    """The identity is a containment mapping ``subquery`` → ``universal``."""
    identity = {var: Var(var) for var in subquery.variables}
    mapping = find_homomorphism(
        subquery.bindings, subquery.conditions, universal, initial=identity
    )
    assert mapping == identity
    assert outputs_match(subquery, universal, identity)
    assert has_containment_mapping(subquery, universal)


def _reference_plans(original, constraints, universal):
    variables = sorted(universal.variable_set)
    assert len(variables) <= MAX_BINDINGS
    equivalent = {}
    for size in range(len(variables)):
        for subset in itertools.combinations(variables, size):
            key = frozenset(subset)
            subquery = universal.restrict_to(key)
            if subquery is None:
                equivalent[key] = None
                continue
            _assert_identity_maps_into(subquery, universal)
            chased = chase(subquery, constraints, incremental=False, use_index=False).query
            holds = has_containment_mapping(original, chased) and has_containment_mapping(
                subquery, universal
            )
            equivalent[key] = subquery if holds else None
    top = frozenset(variables)
    reached = {top}
    stack = [top]
    plans = {}
    while stack:
        node = stack.pop()
        children = [node - {var} for var in node]
        equivalent_children = [child for child in children if equivalent[child] is not None]
        if not equivalent_children:
            subquery = equivalent[node] if node != top else universal.restrict_to(top)
            if subquery is not None:
                plans[node] = subquery
        for child in equivalent_children:
            if child not in reached:
                reached.add(child)
                stack.append(child)
    ordered = sorted(plans.items(), key=lambda item: (len(item[0]), tuple(sorted(item[0]))))
    return dedupe_isomorphic_plans([Plan(query) for _, query in ordered])


def _signatures(plans):
    return {plan.signature() for plan in plans}


@pytest.mark.parametrize(
    "build,args",
    [
        (build_ec1, (2, 0)),
        (build_ec1, (2, 1)),
        (build_ec3, (3, 0)),
        (build_ec3, (3, 1)),
        (build_ec2, (1, 3, 2)),
        (build_ec2, (2, 2, 1)),
    ],
)
def test_walk_matches_brute_force(build, args):
    workload = build(*args)
    constraints = workload.catalog.constraints()
    universal = chase(workload.query, constraints).query
    expected = _signatures(_reference_plans(workload.query, constraints, universal))
    assert expected
    inline = FullBackchase(workload.query, constraints).run(universal)
    # The service's path: the waves on a shard pool of two worker threads.
    with ThreadPoolExecutor(max_workers=2) as executor:
        pooled = ParallelBackchase(
            workload.query, constraints, ScheduledPool(executor, 2)
        ).run(universal)
    assert _signatures(inline.plans) == expected
    assert _signatures(pooled.plans) == expected


@pytest.mark.parametrize(
    "build,args,checks",
    [
        (build_ec2, (2, 3, 1), 26),
        (build_ec1, (3, 0), 66),
        (build_ec3, (4, 0), 58),
    ],
)
def test_pruned_check_counts(build, args, checks):
    """Pruning is deterministic, so an fb run makes exactly this many checks
    (the unpruned walk made 74, 143 and 113)."""
    workload = build(*args)
    result = workload.optimizer().optimize(workload.query, strategy="fb")
    assert result.equivalence_checks == checks
