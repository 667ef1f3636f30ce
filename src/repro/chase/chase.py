"""The chase: rewriting a query with embedded dependencies.

Given a query ``Q`` and a set of dependencies ``D``, the chase repeatedly
finds a homomorphism from the universal part of a dependency into ``Q`` that
cannot be extended to its existential part, and extends ``Q`` with the
missing bindings and conditions (for TGDs) or the missing equalities (for
EGDs).  When no dependency applies any more, the result is the *universal
plan*: a query equivalent to ``Q`` under ``D`` that explicitly mentions every
physical structure and semantically related collection relevant to ``Q``.

The implementation follows the feasibility techniques of Section 3.1 of the
paper:

* equality reasoning via congruence closure (:mod:`repro.cq.congruence`);
* incremental pruning of candidate variable mappings with indexed candidate
  lookup (:mod:`repro.cq.homomorphism`);
* the satisfaction check before each step (a chase step only fires when the
  existential part cannot already be matched), which both guarantees
  termination on the paper's workloads and avoids redundant rechasing.

The default fixpoint engine is *incremental* (semi-naive): one congruence
closure and one candidate index evolve across all chase steps instead of
being rebuilt from scratch per step, and a dependency **trigger index** maps
range-head collection names to the dependencies whose universal part could
newly match when those collections are touched.  After a step fires, only
the dependencies whose triggers intersect the step's touched heads (the
heads of the added bindings and of every congruence class the step's merges
disturbed) are re-checked; everything else is skipped.  Because trigger
propagation is head-based and therefore conservative-but-approximate, the
engine finishes with one full verification pass over all dependencies — any
fire during verification is counted in ``ChaseCounters.trigger_misses`` —
so the fixpoint is always exactly the one the restart engine computes.  Pass
``incremental=False`` (optionally with ``use_index=False``) to run the
original restart-per-step engine, kept for the ablation benchmark.

The incremental engine can also chase *towards a goal*: given a query ``Q``
(``goal``), it asks before its first step and after each applied step
whether ``Q`` maps into the current state, with the chase's own closure and
candidate index, and stops at the first state that has such a mapping.  The
backchase decides ``S ⊑ Q`` this way when no shared chase cache would keep
the fixpoint: every state is contained in the fixpoint, so a mapping into a
state is one into the fixpoint, and the chase reaches the fixpoint only when
no state has one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ChaseError
from repro.cq.containment import keep_search_schedule, outputs_match
from repro.cq.homomorphism import (
    BindingIndex,
    SearchStats,
    find_homomorphism,
    find_homomorphisms,
    schedule_conditions,
)
from repro.cq.query import PCQuery, fresh_name
from repro.lang.ast import Binding, Var, path_variables, schema_names, substitute


@dataclass
class ChaseStep:
    """Record of one applied chase step (for tracing and reports)."""

    dependency: str
    added_variables: tuple
    added_conditions: tuple


@dataclass
class ChaseCounters:
    """Work counters for one chase run (benchmarks read these).

    Attributes
    ----------
    closure_queries:
        Congruence-closure queries issued (equality tests and class lookups).
    candidates_tried:
        Target bindings tried as images during homomorphism search.
    conditions_checked:
        Source conditions verified against the closure.
    deps_checked:
        ``chase_step`` invocations (dependency satisfaction checks).
    deps_skipped:
        Dependency checks skipped by the semi-naive trigger index.
    trigger_misses:
        Steps that fired only during the final verification pass, i.e. fires
        the trigger index failed to predict (0 on all known workloads).
    """

    closure_queries: int = 0
    candidates_tried: int = 0
    conditions_checked: int = 0
    deps_checked: int = 0
    deps_skipped: int = 0
    trigger_misses: int = 0

    def add(self, other):
        """Accumulate another counter set (used by :class:`ChaseCache`)."""
        self.closure_queries += other.closure_queries
        self.candidates_tried += other.candidates_tried
        self.conditions_checked += other.conditions_checked
        self.deps_checked += other.deps_checked
        self.deps_skipped += other.deps_skipped
        self.trigger_misses += other.trigger_misses


@dataclass
class ChaseResult:
    """The outcome of chasing a query with a set of dependencies.

    Attributes
    ----------
    query:
        The chased query (the universal plan when chasing with the full set).
    steps:
        The chase steps that were applied, in order.
    rounds:
        Number of passes over the dependency set.
    elapsed:
        Wall-clock time spent, in seconds.
    counters:
        :class:`ChaseCounters` with the work the run performed.
    timed_out:
        ``True`` when an optional deadline expired before the fixpoint was
        reached; ``query`` is then the partially chased query (well-formed,
        but not a universal plan).
    goal_reached:
        ``True`` when a goal-directed chase (``chase(..., goal=Q)``) found a
        state that ``Q`` maps into; ``query`` is then that state.
    """

    query: PCQuery
    steps: list = field(default_factory=list)
    rounds: int = 0
    elapsed: float = 0.0
    counters: ChaseCounters = field(default_factory=ChaseCounters)
    timed_out: bool = False
    goal_reached: bool = False

    @property
    def applied(self):
        """Number of chase steps applied."""
        return len(self.steps)


def applicable_homomorphisms(query, dependency, closure=None, index=None, stats=None, use_index=True):
    """Yield homomorphisms under which ``dependency`` is *violated* by ``query``.

    A homomorphism from the universal part into the query is violated when it
    cannot be extended to the existential part (TGD) or when some conclusion
    equality does not follow from the query's where clause (EGD).
    """
    closure = closure if closure is not None else query.congruence()
    plan = _search_plan(dependency)
    for mapping in find_homomorphisms(
        dependency.universal,
        dependency.premise,
        query,
        target_closure=closure,
        target_index=index,
        stats=stats,
        use_index=use_index,
        schedule=plan.universal,
    ):
        if dependency.is_egd:
            violated = []
            for condition in dependency.conclusion:
                if stats is not None:
                    stats.closure_queries += 1
                    stats.conditions_checked += 1
                if not closure.equal(
                    substitute(condition.left, mapping), substitute(condition.right, mapping)
                ):
                    violated.append(condition)
            if violated:
                yield mapping, violated
        else:
            extension = find_homomorphism(
                dependency.existential,
                dependency.conclusion,
                query,
                target_closure=closure,
                initial=mapping,
                target_index=index,
                stats=stats,
                use_index=use_index,
                schedule=plan.existential,
            )
            if extension is None:
                yield mapping, None


def chase_step(query, dependency, closure=None, index=None, stats=None, use_index=True):
    """Apply one chase step of ``dependency`` to ``query`` if it is violated.

    Returns ``(new_query, step)`` when a step was applied, or ``None`` when
    the dependency is satisfied (no violated homomorphism exists).
    """
    closure = closure if closure is not None else query.congruence()
    for mapping, violated in applicable_homomorphisms(
        query, dependency, closure, index=index, stats=stats, use_index=use_index
    ):
        return _apply(query, dependency, mapping, violated)
    return None


def _apply(query, dependency, mapping, violated_conclusions):
    """Extend ``query`` according to one violated homomorphism."""
    if dependency.is_egd:
        new_conditions = tuple(condition.substitute(mapping) for condition in violated_conclusions)
        step = ChaseStep(dependency.name, (), new_conditions)
        return query.add(conditions=new_conditions), step

    taken = set(query.variables) | set(mapping)
    extended = dict(mapping)
    new_bindings = []
    for binding in dependency.existential:
        fresh = fresh_name(binding.var, taken)
        taken.add(fresh)
        extended[binding.var] = Var(fresh)
        new_bindings.append(Binding(fresh, substitute(binding.range, extended)))
    new_conditions = tuple(condition.substitute(extended) for condition in dependency.conclusion)
    step = ChaseStep(
        dependency.name,
        tuple(binding.var for binding in new_bindings),
        new_conditions,
    )
    return query.add(bindings=new_bindings, conditions=new_conditions), step


def collapse_duplicate_bindings(query, closure=None, stats=None):
    """Merge bindings that denote the same element of the same collection.

    The paper's prototype compiles queries into a congruence-closure based
    canonical database in which two loop variables that are provably equal
    and range over provably equal collections are a single node.  The chase
    implemented here always introduces fresh variables, so after the fixpoint
    this pass merges every later binding that duplicates an earlier one
    (equal variable and equal range under the where clause), rewriting the
    remaining ranges, conditions and outputs accordingly.  Without this merge
    the backchase would enumerate spurious isomorphic variants of the same
    minimal plan.

    Duplicate detection buckets the kept bindings by the congruence roots of
    ``(variable, range)`` — a dictionary probe per binding instead of the
    former pairwise closure-query loop.  Interning a rewritten range can
    merge classes and stale the bucket keys, so the buckets are re-keyed
    whenever the closure generation moves.
    """
    closure = closure if closure is not None else query.congruence()
    mapping = {}
    kept = []
    kept_by_key = {}
    generation = closure.generation
    for binding in query.bindings:
        range_path = substitute(binding.range, mapping)
        if stats is not None:
            stats.closure_queries += 2
        var_root = closure.root_of(Var(binding.var))
        range_root = closure.root_of(range_path)
        if closure.generation != generation:
            kept_by_key = {}
            for existing in kept:
                key = (closure.root_of(Var(existing.var)), closure.root_of(existing.range))
                kept_by_key.setdefault(key, existing)
            generation = closure.generation
            var_root = closure.root_of(Var(binding.var))
            range_root = closure.root_of(range_path)
        duplicate = kept_by_key.get((var_root, range_root))
        if duplicate is None:
            new_binding = Binding(binding.var, range_path)
            kept.append(new_binding)
            kept_by_key.setdefault((var_root, range_root), new_binding)
        else:
            mapping[binding.var] = Var(duplicate.var)
    if not mapping:
        return query
    conditions = []
    seen = set()
    for condition in query.conditions:
        rewritten = condition.substitute(mapping).normalized()
        if rewritten.left == rewritten.right or rewritten in seen:
            continue
        seen.add(rewritten)
        conditions.append(rewritten)
    output = tuple((label, substitute(path, mapping)) for label, path in query.output)
    return PCQuery(output, tuple(kept), tuple(conditions))


def deadline_passed(deadline):
    """Return ``True`` when the optional deadline has expired.

    Deadlines are absolute :func:`time.perf_counter` values, shared by the
    caller's thread and the shard pool's workers.
    """
    return deadline is not None and time.perf_counter() > deadline


def chase(
    query,
    dependencies,
    max_rounds=100,
    max_size=500,
    incremental=True,
    use_index=True,
    deadline=None,
    goal=None,
):
    """Chase ``query`` with ``dependencies`` to a fixpoint.

    Parameters
    ----------
    query:
        The query to chase.
    dependencies:
        Iterable of :class:`~repro.schema.constraints.Dependency`.
    max_rounds:
        Safety bound on the number of passes over the dependency set; the
        chase terminates on the paper's constraint classes, but arbitrary
        dependency sets may diverge.
    max_size:
        Safety bound on the number of bindings of the chased query.
    incremental:
        When ``True`` (the default), run the semi-naive engine: one evolving
        closure plus a trigger index so only affected dependencies are
        re-checked after a step.  When ``False``, restart the scan from the
        query's shared closure on every step (the original engine, kept for
        the ablation benchmark).
    use_index:
        Passed through to the homomorphism search; ``False`` restores the
        per-candidate scan of all target bindings.
    deadline:
        Optional absolute :func:`time.perf_counter` deadline.  On expiry the
        fixpoint loop stops and the partially chased query is returned with
        ``timed_out=True`` (duplicate bindings are still collapsed so the
        result is well-formed).
    goal:
        Optional query ``Q`` to map into the chased query with a containment
        mapping.  The chase then stops at the first state ``Q`` maps into
        (checked before the first step and after each applied step), with
        ``goal_reached=True``; otherwise it runs to the fixpoint and
        ``goal_reached`` is ``False``.  Either way ``query`` is the last
        state with its duplicate bindings kept: nothing caches a
        goal-directed result, and collapsing duplicates neither adds nor
        removes a mapping of ``Q``.  Only the incremental engine takes a
        goal.

    Returns
    -------
    ChaseResult

    Raises
    ------
    ChaseError
        If the fixpoint is not reached within the safety bounds.
    """
    start = time.perf_counter()
    dependencies = list(dependencies)
    counters = ChaseCounters()
    stats = SearchStats()
    reached = False
    if incremental:
        final, steps, rounds, timed_out, reached = _chase_incremental(
            query, dependencies, max_rounds, max_size, stats, counters, use_index, deadline, goal
        )
    elif goal is not None:
        raise ValueError("only the incremental chase takes a goal")
    else:
        final, steps, rounds, timed_out = _chase_restart(
            query, dependencies, max_rounds, max_size, stats, counters, use_index, deadline
        )
    counters.closure_queries = stats.closure_queries
    counters.candidates_tried = stats.candidates_tried
    counters.conditions_checked = stats.conditions_checked
    return ChaseResult(
        final, steps, rounds, time.perf_counter() - start, counters, timed_out, reached
    )


def _chase_restart(query, dependencies, max_rounds, max_size, stats, counters, use_index, deadline=None):
    """The original fixpoint loop: full rescan of every dependency per round."""
    current = query
    steps = []
    rounds = 0
    timed_out = False
    while not timed_out:
        rounds += 1
        if rounds > max_rounds:
            raise ChaseError(f"chase did not terminate within {max_rounds} rounds")
        changed = False
        for dependency in dependencies:
            # Re-apply the same dependency until it is satisfied before moving
            # on; each application may enable new homomorphisms.
            while True:
                if deadline_passed(deadline):
                    timed_out = True
                    break
                counters.deps_checked += 1
                outcome = chase_step(current, dependency, stats=stats, use_index=use_index)
                if outcome is None:
                    break
                current, step = outcome
                steps.append(step)
                changed = True
                if current.size() > max_size:
                    raise ChaseError(
                        f"chased query exceeded {max_size} bindings; "
                        "the dependency set is probably not terminating"
                    )
            if timed_out:
                break
        if not changed:
            break
    current = collapse_duplicate_bindings(current, stats=stats)
    return current, steps, rounds, timed_out


def _chase_incremental(
    query, dependencies, max_rounds, max_size, stats, counters, use_index, deadline=None, goal=None
):
    """Semi-naive fixpoint: evolving closure + trigger-indexed dirty set.

    With a ``goal``, the loop stops at the first state the goal maps into
    (see :func:`chase`) and returns that state uncollapsed.
    """
    current = query
    closure = current.private_congruence()
    index = BindingIndex(list(current.bindings))
    if goal is not None and _goal_maps_in(goal, current, closure, index, stats, use_index):
        # The goal maps in before any step: no trigger state is needed.
        return current, [], 0, False, True

    # Head map: variable -> frozenset of collection names its range reaches
    # (None = unknown head, treated as matching every trigger).
    var_heads = {}
    for binding in current.bindings:
        var_heads[binding.var] = _path_heads(binding.range, var_heads)

    triggers = [_search_plan(dependency).triggers for dependency in dependencies]
    dirty = set(range(len(dependencies)))
    verify_baseline = set()
    verifying = False
    # Step count at each dependency's most recent satisfaction check; a
    # dependency checked after the last applied step is provably still
    # satisfied (the chase only ever adds facts), so the final verification
    # pass can restrict itself to the others.
    last_checked = [-1] * len(dependencies)
    steps = []
    rounds = 0
    timed_out = False
    reached = False

    while not (timed_out or reached):
        rounds += 1
        if rounds > max_rounds:
            raise ChaseError(f"chase did not terminate within {max_rounds} rounds")
        changed = False
        for position, dependency in enumerate(dependencies):
            if timed_out or reached:
                break
            if position not in dirty:
                counters.deps_skipped += 1
                continue
            dirty.discard(position)
            artificial = verifying and position in verify_baseline
            verify_baseline.discard(position)
            fired = False
            # Re-apply the same dependency until it is satisfied before moving
            # on; each application may enable new homomorphisms.
            while True:
                if deadline_passed(deadline):
                    timed_out = True
                    break
                counters.deps_checked += 1
                outcome = chase_step(
                    current, dependency, closure=closure, index=index, stats=stats, use_index=use_index
                )
                if outcome is None:
                    break
                new_query, step = outcome
                fired = True
                changed = True
                mark = closure.union_count
                added = new_query.bindings[len(current.bindings):]
                for added_binding in added:
                    closure.add_term(Var(added_binding.var))
                    closure.add_term(added_binding.range)
                    index.add_binding(added_binding, closure, stats=stats)
                    var_heads[added_binding.var] = _path_heads(added_binding.range, var_heads)
                for condition in step.added_conditions:
                    closure.merge(condition.left, condition.right)
                current = new_query
                steps.append(step)
                if current.size() > max_size:
                    raise ChaseError(
                        f"chased query exceeded {max_size} bindings; "
                        "the dependency set is probably not terminating"
                    )
                touched, wildcard = _touched_heads(
                    added, step.added_conditions, var_heads, closure, mark
                )
                for other, (keys, dep_wildcard) in enumerate(triggers):
                    if wildcard or dep_wildcard or (keys & touched):
                        dirty.add(other)
                        verify_baseline.discard(other)
                if goal is not None and _goal_maps_in(
                    goal, current, closure, index, stats, use_index
                ):
                    reached = True
                    break
            if fired and artificial:
                counters.trigger_misses += 1
            # The inner loop left this dependency satisfied; propagation from
            # its own steps may have re-marked it, which would be redundant.
            dirty.discard(position)
            last_checked[position] = len(steps)
        if changed:
            verifying = False
            continue
        if verifying:
            break
        # Quiescent on trigger-driven dirt.  Verify with one pass over the
        # dependencies not checked since the last applied step (head-based
        # triggers are conservative but approximate); when every dependency
        # was, the fixpoint is already proven and no extra pass is needed.
        pending = {
            position
            for position in range(len(dependencies))
            if last_checked[position] < len(steps)
        }
        if not pending:
            break
        verifying = True
        dirty = pending
        verify_baseline = set(pending)

    if goal is None:
        current = collapse_duplicate_bindings(current, closure=closure, stats=stats)
    return current, steps, rounds, timed_out, reached


def _goal_maps_in(goal, state, closure, index, stats, use_index):
    """Whether a containment mapping sends ``goal`` into the chase state ``state``.

    The search runs on the chase's own evolving ``closure`` and candidate
    ``index``, so no per-state closure is built or cached, and its effort
    is counted in the chase's ``stats``.  Interning the mapping's image
    terms only adds terms to existing classes; it never merges two classes
    the chase already has, so every equality the chase tests keeps its
    answer, and the steps are a prefix of those of the chase without a goal
    (``tests/test_goal_directed_check.py`` checks both against the fixpoint).
    """
    for mapping in find_homomorphisms(
        goal.bindings,
        goal.conditions,
        state,
        target_closure=closure,
        target_index=index,
        stats=stats,
        use_index=use_index,
        schedule=keep_search_schedule(goal),
    ):
        if outputs_match(goal, state, mapping, target_closure=closure):
            return True
    return False


def _path_heads(path, var_heads):
    """Return the collection names reachable from ``path`` (``None`` = unknown).

    The heads of a path are its own schema references plus, transitively, the
    heads of the ranges of the variables it mentions.  ``None`` signals an
    unresolvable head and is treated as a wildcard by the trigger matching.
    """
    heads = set(schema_names(path))
    for variable in path_variables(path):
        resolved = var_heads.get(variable, None)
        if resolved is None:
            return None
        heads |= resolved
    return frozenset(heads)


@dataclass(frozen=True, slots=True)
class _SearchPlan:
    """What the chase derives from a dependency alone, kept on the dependency.

    ``universal`` is the condition schedule of the search for the universal
    part, ``existential`` that of its extension to the existential part
    (whose pre-assigned variables are the universal ones), and ``triggers``
    the ``(head names, wildcard)`` pair of :func:`_dependency_triggers`.
    """

    universal: tuple
    existential: tuple
    triggers: tuple


def _search_plan(dependency):
    """Return the dependency's :class:`_SearchPlan`, built once per instance.

    Every chase checks every dependency, and the plan depends on the
    dependency's fields alone.  It is kept in the dependency's instance
    dict (``_search_plan``), like its hash.  A catalog compiles its
    dependencies once, so the plan lives as long as the catalog's compile.
    Two threads racing on a fresh dependency both build equal plans, and
    either store wins.
    """
    plan = dependency.__dict__.get("_search_plan")
    if plan is None:
        plan = _SearchPlan(
            schedule_conditions(dependency.universal, dependency.premise),
            schedule_conditions(
                dependency.existential, dependency.conclusion, dependency.universal_variables
            ),
            _dependency_triggers(dependency),
        )
        object.__setattr__(dependency, "_search_plan", plan)
    return plan


def _dependency_triggers(dependency):
    """Return ``(head names, wildcard)`` for a dependency's universal part.

    A dependency needs re-checking only when a chase step touches one of its
    trigger heads: new homomorphisms of the universal part require either a
    new binding over (or a class merge involving) one of these collections.
    An empty/unresolvable head makes the dependency a wildcard that is
    re-checked after every step.
    """
    keys = set()
    wildcard = False
    local_heads = {}
    for binding in dependency.universal:
        heads = _path_heads(binding.range, local_heads)
        if heads is None or not heads:
            wildcard = True
            local_heads[binding.var] = None
        else:
            keys |= heads
            local_heads[binding.var] = heads
    for condition in dependency.premise:
        for side in (condition.left, condition.right):
            heads = _path_heads(side, local_heads)
            if heads is None:
                wildcard = True
            else:
                keys |= heads
    return frozenset(keys), wildcard


def _touched_heads(added_bindings, added_conditions, var_heads, closure, union_mark):
    """Return ``(head names, wildcard)`` describing what a chase step disturbed.

    Covers the three ways a step can enable a new homomorphism: the heads of
    the freshly added bindings, the heads of both sides of the added
    conditions, and the heads of every member of each congruence class the
    step's merges (including congruence cascades) disturbed — read from the
    closure's union log since ``union_mark``.
    """
    touched = set()
    wildcard = False

    def absorb(path):
        nonlocal wildcard
        heads = _path_heads(path, var_heads)
        if heads is None:
            wildcard = True
        else:
            touched.update(heads)

    for binding in added_bindings:
        heads = _path_heads(binding.range, var_heads)
        if heads is None or not heads:
            wildcard = True
        else:
            touched.update(heads)
    for condition in added_conditions:
        absorb(condition.left)
        absorb(condition.right)
    for root in closure.unions_since(union_mark):
        for term in closure.class_terms(root):
            absorb(term)
    return touched, wildcard


def universal_plan(query, dependencies, **kwargs):
    """Convenience wrapper returning just the chased query (the universal plan)."""
    return chase(query, dependencies, **kwargs).query


__all__ = [
    "ChaseCounters",
    "ChaseResult",
    "ChaseStep",
    "applicable_homomorphisms",
    "chase",
    "chase_step",
    "collapse_duplicate_bindings",
    "deadline_passed",
    "universal_plan",
]
