"""The goal-directed equivalence check against the fixpoint check, node by node.

A backchase without a shared chase cache decides ``S ⊑ Q`` by chasing the
candidate ``S`` only until ``Q`` maps into the current state
(``chase(S, D, goal=Q)``).  These tests record every such chase the walk
makes (fb, the OQF fragments and the OCS stages of small EC1-EC3 settings)
and hold each one to the full chase of the same candidate:

* the verdict is that of a containment mapping ``Q`` → ``chase(S).query``;
* its steps are a prefix of the full chase's steps;
* it stops at the first state ``Q`` maps into: a candidate that already
  holds ``Q``'s image chases zero steps, ``Q`` maps into the state it
  returns, and not into the state before its last step;
* a chase that never finds a mapping runs every step of the full chase.
"""

import pytest

from repro.chase import backchase
from repro.chase.chase import chase
from repro.cq.containment import has_containment_mapping
from repro.cq.query import PCQuery
from repro.workloads.ec1 import build_ec1
from repro.workloads.ec2 import build_ec2
from repro.workloads.ec3 import build_ec3

SETTINGS = [
    (build_ec1, (2, 1)),
    (build_ec2, (1, 3, 1)),
    (build_ec2, (2, 2, 1)),
    (build_ec3, (3, 0)),
]


@pytest.fixture
def recorded(monkeypatch):
    """Every chase the backchase walk runs, as ``(S, D, goal, result)``."""
    calls = []

    def recording(query, dependencies, **kwargs):
        result = chase(query, dependencies, **kwargs)
        calls.append((query, list(dependencies), kwargs.get("goal"), result))
        return result

    monkeypatch.setattr(backchase, "chase", recording)
    return calls


def _state_before_last_step(result):
    """The chase state one step before ``result.query`` (which keeps every
    step's bindings and conditions appended, in order)."""
    state = result.query
    last = result.steps[-1]
    return PCQuery(
        state.output,
        state.bindings[: len(state.bindings) - len(last.added_variables)],
        state.conditions[: len(state.conditions) - len(last.added_conditions)],
    )


def _assert_matches_fixpoint(subquery, dependencies, goal, result):
    full = chase(subquery, dependencies)
    assert not result.timed_out
    assert result.goal_reached == has_containment_mapping(goal, full.query)
    assert result.steps == full.steps[: result.applied]
    if has_containment_mapping(goal, subquery):
        assert result.applied == 0
    if not result.goal_reached:
        assert result.steps == full.steps
        return
    assert has_containment_mapping(goal, result.query)
    if result.applied:
        assert not has_containment_mapping(goal, _state_before_last_step(result))


@pytest.mark.parametrize("strategy", ["fb", "oqf", "ocs"])
@pytest.mark.parametrize("build,args", SETTINGS)
def test_goal_directed_check_matches_the_fixpoint_check(recorded, build, args, strategy):
    workload = build(*args)
    result = workload.optimizer().optimize(workload.query, strategy=strategy)
    assert not result.timed_out
    assert recorded, "the walk made no check"
    assert len(recorded) == result.equivalence_checks
    for subquery, dependencies, goal, chased in recorded:
        assert goal is not None
        _assert_matches_fixpoint(subquery, dependencies, goal, chased)
    verdicts = {chased.goal_reached for _, _, _, chased in recorded}
    if strategy == "fb":
        # Both verdicts occur, so both branches above were exercised.
        assert verdicts == {True, False}


def test_a_shared_cache_keeps_full_fixpoints(recorded):
    """With a shared cache the check chases to the fixpoint, through the cache."""
    from repro.chase.implication import ChaseCacheRegistry
    from repro.chase.optimizer import CBOptimizer

    workload = build_ec2(1, 3, 1)
    registry = ChaseCacheRegistry()
    result = CBOptimizer(workload.catalog, cache_registry=registry).optimize(
        workload.query, strategy="fb"
    )
    assert recorded == []
    # Each check reads or stores a fixpoint: the candidate equal to the
    # original finds the universal plan's own chase cached.
    assert result.cache_hits + result.cache_misses == result.equivalence_checks
    assert registry.stats()["entries"] == result.cache_misses + 1


def test_only_the_incremental_chase_takes_a_goal():
    workload = build_ec2(1, 3, 1)
    with pytest.raises(ValueError):
        chase(
            workload.query,
            workload.catalog.constraints(),
            incremental=False,
            goal=workload.query,
        )


def test_a_chase_timeout_cuts_the_walk(monkeypatch):
    """A goal-directed chase that runs out of budget ends the walk, as a
    cached chase does: the run is timed out after that check."""
    calls = []

    def expiring(query, dependencies, **kwargs):
        result = chase(query, dependencies, **kwargs)
        calls.append(query)
        if len(calls) == 3:
            result.timed_out = True
        return result

    monkeypatch.setattr(backchase, "chase", expiring)
    workload = build_ec2(1, 3, 1)
    constraints = workload.catalog.constraints()
    universal = chase(workload.query, constraints).query
    result = backchase.FullBackchase(workload.query, constraints).run(universal)
    assert result.timed_out
    assert len(calls) == 3
    assert result.equivalence_checks == result.cache_misses == 3
    assert result.cache_hits == 0
