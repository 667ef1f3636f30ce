"""The full backchase (FB): minimal equivalent subqueries of the universal plan.

One walk implements the top-down exploration described in Section 4 of the
paper.  It goes down the subquery lattice level by level: starting from the
universal plan, each wave checks every untried one-binding removal of the
whole frontier, the equivalent children form the next frontier, and a
frontier node with no equivalent child is minimal and is emitted as a plan.
Lattice nodes are integer bitmasks over the universal plan's variables; a
node's variable set is built only when the node is checked.

The walk prunes.  Containment under constraints is monotone: the subquery
on a subset of a node's bindings maps into the node's subquery, so if the
original query does not map into the chase of the node's subquery, it does
not map into the chase of any smaller one.  A candidate with a parent one
binding larger that failed this containment, or that was pruned itself, is
therefore marked not equivalent without a restriction, a chase or a
containment search, and a level-wise walk knows every such failure at level
*k* before it checks level *k - 1*.  Nothing else prunes: a node that
:meth:`~repro.cq.query.PCQuery.restrict_to` rejects has not failed a
monotone test.

Two engines run the walk:

* :class:`FullBackchase` evaluates each wave inline, on the caller's thread
  (every single-shot optimize call, and every OQF fragment and OCS stage).
* :class:`ParallelBackchase` hands each wave to the optimizer service's
  shard pool (:class:`~repro.service.scheduler.ScheduledPool`).  The checks
  of a wave are independent of one another; each chunk comes back as a
  mergeable :class:`WaveOutcome` (verdicts,
  :class:`~repro.cq.homomorphism.SearchStats` and
  :class:`~repro.chase.chase.ChaseCounters`).

Pruning is decided in the walk, between waves, so both engines make the
same checks and produce identical plan sets.

A candidate subquery ``S`` is equivalent to the original query ``Q`` when
``Q`` maps into the chase of ``S`` (:func:`_check_equivalence`; the other
direction always holds).  Each binding subset is inspected at most once,
so a run without a shared :class:`~repro.chase.implication.ChaseCache` has
nothing to reuse: it chases each candidate only until ``Q`` maps in and
keeps nothing.  A run with one (the optimizer service's sessions) chases
each candidate to its fixpoint through the cache, so later requests reuse
it.

A walk that runs out of budget returns the plans of the levels it completed
(with ``timed_out=True``): those nearest the universal plan, not the deep
plans a depth-first walk would reach first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import ChaseTimeout
from repro.chase.chase import ChaseCounters, chase, deadline_passed
from repro.chase.implication import _has_containment_mapping
from repro.chase.plans import Plan, dedupe_isomorphic_plans
from repro.cq.containment import keep_search_schedule
from repro.cq.homomorphism import SearchStats

@dataclass
class BackchaseResult:
    """Outcome of a backchase run.

    Attributes
    ----------
    plans:
        The minimal equivalent subqueries found, as :class:`Plan` objects.
    subqueries_explored:
        Number of distinct binding subsets restricted to a subquery.  Nodes
        pruned under a failed containment are not counted.
    equivalence_checks:
        Number of chase-based equivalence tests performed.  Pruned nodes are
        not counted.
    elapsed:
        Wall-clock seconds spent in the backchase.
    timed_out:
        ``True`` when the walk hit the timeout; the plans are then those of
        the lattice levels it completed, and may be incomplete.
    cache_hits / cache_misses:
        :class:`~repro.chase.implication.ChaseCache` accounting for the run.
        A run without a cache chases once per check and counts each chase
        as a miss.
    closure_queries / candidates_tried:
        Search effort summed over the containment-mapping searches of this
        run plus every cache-miss chase performed for it.
    executor / workers / waves:
        How the lattice was explored: ``"serial"`` with one worker for
        :class:`FullBackchase`, the pool's kind and worker count for
        :class:`ParallelBackchase`, and the number of waves (lattice levels)
        checked.
    """

    plans: list = field(default_factory=list)
    subqueries_explored: int = 0
    equivalence_checks: int = 0
    elapsed: float = 0.0
    timed_out: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    closure_queries: int = 0
    candidates_tried: int = 0
    executor: str = "serial"
    workers: int = 1
    waves: int = 0

    @property
    def plan_count(self):
        return len(self.plans)

    def time_per_plan(self):
        """The paper's normalised measure: optimization time / generated plans."""
        if not self.plans:
            return float("inf")
        return self.elapsed / len(self.plans)


# ---------------------------------------------------------------------- #
# the equivalence check
# ---------------------------------------------------------------------- #
def _check_equivalence(
    original, subquery, dependencies, cache, stats, counters, deadline=None, memo=None
):
    """Decide whether ``subquery`` ``S`` is equivalent to ``original`` ``Q``.

    ``S ⊑ Q`` under the constraints holds iff ``Q`` maps into the chase of
    ``S`` (Appendix A).  Without a shared ``cache`` the chase is
    goal-directed (:func:`~repro.chase.chase.chase` with ``goal=Q``): it
    stops at the first state ``Q`` maps into, reaches the fixpoint only
    when no state has a mapping, stores nothing, and adds its counters to
    ``counters``.  With one, the fixpoint of ``S`` comes from the cache (or
    is chased into it) and ``Q`` is mapped into it, through ``memo`` when
    given: a warm request whose pairs an earlier request decided skips the
    search, and memo hits do not add to ``stats``.

    The other direction, ``Q ⊑ S``, always holds, so it is not checked.
    ``Q`` is equivalent to the universal plan ``U``, so a containment
    mapping ``S → U`` proves it, and the identity is one:

    * :meth:`~repro.cq.query.PCQuery.restrict_to` keeps only ``U``'s own
      bindings, ranges unchanged, and only those whose ranges use kept
      variables; otherwise it returns ``None``.
    * Its conditions and rewritten outputs are equalities of ``U``'s
      saturated closure: each condition pairs two members of one class, and
      each output is a member of its path's class or is rebuilt from such
      members, which congruence makes equal to the path.  That closure is
      ``U``'s own conditions with extra terms interned, and adds no
      equations.
    * Ground congruence closure therefore makes each of those equalities
      hold in ``U``'s plain closure.  So the identity sends every binding of
      ``S`` onto the same binding of ``U``, every condition to an equality
      of ``U`` and every output onto ``U``'s: it is a containment mapping
      ``S → U``.  ``tests/test_backchase_reference.py`` asserts it.

    Raises :class:`~repro.errors.ChaseTimeout` when ``deadline`` expires
    during a chase.
    """
    if cache is None:
        result = chase(subquery, dependencies, deadline=deadline, goal=original)
        counters.add(result.counters)
        if result.timed_out:
            raise ChaseTimeout("chase deadline expired during an equivalence check")
        return result.goal_reached
    chased = cache.chase(subquery, deadline=deadline)
    # The original is the source of every check's search.
    keep_search_schedule(original)
    if memo is not None:
        return memo.check(original, chased, stats=stats)
    return _has_containment_mapping(original, chased, stats=stats)


def _require_cache_for_memo(chase_cache, containment_memo):
    """Reject a containment memo given without the chase cache that reads it.

    Only the checks that run on a cache search with the memo; the
    goal-directed checks of a cacheless run never would.
    """
    if containment_memo is not None and chase_cache is None:
        raise ValueError("a containment memo is read only with a chase cache; pass both")


def _ordered_plan_items(plans_by_key):
    """Deterministic plan order: by subset size, then by sorted variable names.

    The walk's plans are sorted this way before the isomorphism dedupe, so
    the representative kept for each isomorphism class does not depend on
    the order in which a wave's chunks came back.
    """
    return sorted(plans_by_key.items(), key=lambda item: (len(item[0]), tuple(sorted(item[0]))))


# ---------------------------------------------------------------------- #
# the level-wise walk
# ---------------------------------------------------------------------- #
def _has_failed_parent(node, top, failed):
    """Whether some parent of ``node`` one binding larger is in ``failed``."""
    missing = top ^ node
    while missing:
        bit = missing & -missing
        if node | bit in failed:
            return True
        missing ^= bit
    return False


class _LevelWalk:
    """The level-wise, pruning walk over the subquery lattice.

    A node is an integer bitmask over the universal plan's variables.  Bits
    go in reverse name order (the first name gets the highest bit), so on one
    level, descending masks are the sorted-name order in which every wave is
    dispatched.  Only the current level's verdicts are kept: the children of
    a frontier node all sit on the next level.  ``run_wave(keys)`` evaluates
    one wave's variable sets (frozensets) and returns its
    :class:`WaveOutcome` chunks.

    With a shared ``cache`` the run's cache accounting is read off the cache
    (concurrent chunks share it); without one it is summed from the chunks.
    """

    def __init__(self, universal_plan, deadline, cache):
        self.universal_plan = universal_plan
        self.deadline = deadline
        self.cache = cache
        if cache is not None:
            self._cache_before = (
                cache.hits,
                cache.misses,
                cache.counters.closure_queries,
                cache.counters.candidates_tried,
            )
        self.plans = {}
        self.explored = 0
        self.equivalence_checks = 0
        self.stats = SearchStats()
        self.chase_counters = ChaseCounters()
        self.timed_out = False
        self.waves = 0

    def run(self, run_wave):
        universal_plan = self.universal_plan
        names = sorted(universal_plan.variable_set)
        top = (1 << len(names)) - 1
        name_of = {1 << (len(names) - 1 - index): name for index, name in enumerate(names)}
        # (node, its variable set, its subquery): only the top has none yet.
        frontier = [(top, universal_plan.variable_set, None)]
        # The frontier level's nodes that failed containment or were pruned
        # under such a node: none of their subsets is equivalent.
        failed = set()
        while frontier and not self.timed_out:
            verdicts = {}  # next level: node -> equivalent subquery, or None
            candidates = {}  # next level: node -> variable set, to be checked
            below_failed = set()  # next level's ``failed``
            children = []
            for node, variables, _ in frontier:
                kids = []
                rest = node
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    child = node ^ bit
                    kids.append(child)
                    if child in verdicts or child in candidates:
                        continue
                    if failed and _has_failed_parent(child, top, failed):
                        verdicts[child] = None
                        below_failed.add(child)
                        continue
                    candidates[child] = variables - {name_of[bit]}
                children.append(kids)
            if candidates:
                if deadline_passed(self.deadline):
                    self.timed_out = True
                    break
                self.waves += 1
                node_of = {}
                for node in sorted(candidates, reverse=True):
                    node_of[candidates[node]] = node
                for outcome in run_wave(list(node_of)):
                    for key, subquery in outcome.verdicts.items():
                        verdicts[node_of[key]] = subquery
                    for key in outcome.not_contained:
                        below_failed.add(node_of[key])
                    self.explored += outcome.explored
                    self.equivalence_checks += outcome.equivalence_checks
                    self.stats.add(outcome.stats)
                    if self.cache is None:
                        self.chase_counters.add(outcome.counters)
                    self.timed_out = self.timed_out or outcome.timed_out
            expanded = set()
            for (node, variables, subquery), kids in zip(frontier, children):
                if self.timed_out and any(kid not in verdicts for kid in kids):
                    # The wave timed out before this node's children were all
                    # evaluated; its minimality is unknown, so it is neither
                    # expanded nor emitted.  (A wave that completes decides
                    # every child.)
                    continue
                equivalent = [kid for kid in kids if verdicts[kid] is not None]
                if equivalent:
                    expanded.update(equivalent)
                    continue
                if subquery is None:
                    subquery = universal_plan.restrict_to(variables)
                if subquery is not None:
                    self.plans[variables] = subquery
            frontier = [
                (node, candidates[node], verdicts[node])
                for node in sorted(expanded, reverse=True)
            ]
            failed = below_failed
        return self

    def result(self, strategy_label, start, executor, workers):
        """The run's :class:`BackchaseResult`, timed from ``start``."""
        elapsed = time.perf_counter() - start
        if self.cache is None:
            # Every check chased once, and each chase is a miss.
            hits, misses = 0, self.equivalence_checks
            chase_queries = self.chase_counters.closure_queries
            chase_candidates = self.chase_counters.candidates_tried
        else:
            hits_before, misses_before, queries_before, candidates_before = self._cache_before
            hits = self.cache.hits - hits_before
            misses = self.cache.misses - misses_before
            chase_queries = self.cache.counters.closure_queries - queries_before
            chase_candidates = self.cache.counters.candidates_tried - candidates_before
        return BackchaseResult(
            plans=dedupe_isomorphic_plans(
                [
                    Plan(query, strategy=strategy_label)
                    for _, query in _ordered_plan_items(self.plans)
                ]
            ),
            subqueries_explored=self.explored,
            equivalence_checks=self.equivalence_checks,
            elapsed=elapsed,
            timed_out=self.timed_out,
            cache_hits=hits,
            cache_misses=misses,
            closure_queries=self.stats.closure_queries + chase_queries,
            candidates_tried=self.stats.candidates_tried + chase_candidates,
            executor=executor,
            workers=workers,
            waves=self.waves,
        )


class FullBackchase:
    """Top-down backchase of a universal plan, evaluated inline.

    Runs the level-wise walk (see the module docstring) on the caller's
    thread: each wave's checks run one after another.

    Parameters
    ----------
    original:
        The original query ``Q``.
    dependencies:
        The constraint set used for the equivalence checks (typically the
        same set used to build the universal plan).
    timeout:
        Optional wall-clock budget in seconds; on expiry the plans of the
        completed levels are returned with ``timed_out=True`` (this mirrors
        the timeouts in the paper's experiments).
    strategy_label:
        Label recorded on the produced :class:`Plan` objects.
    chase_cache:
        Optional shared (possibly warm)
        :class:`~repro.chase.implication.ChaseCache` built for the
        *same* dependency set.  The optimizer service passes a
        per-constraint-set cache here so chase fixpoints survive across
        requests.  Without one, each check chases its candidate only until
        the original maps in, and keeps nothing (see
        :func:`_check_equivalence`).
    containment_memo:
        Optional shared :class:`~repro.cq.memo.ContainmentMemo`; it needs a
        ``chase_cache`` (a :class:`ValueError` otherwise).  Every
        containment search of the equivalence checks is then memoised by
        canonical query-pair signature, so repeated requests skip the
        homomorphism searches as well as the chases.  Verdicts are
        constraint-independent, so one memo is safely shared across
        sessions.
    """

    def __init__(
        self,
        original,
        dependencies,
        timeout=None,
        strategy_label="fb",
        chase_cache=None,
        containment_memo=None,
    ):
        _require_cache_for_memo(chase_cache, containment_memo)
        self.original = original
        self.dependencies = list(dependencies)
        self.timeout = timeout
        self.strategy_label = strategy_label
        self.chase_cache = chase_cache
        self.containment_memo = containment_memo

    def run(self, universal_plan):
        """Enumerate the minimal equivalent subqueries of ``universal_plan``."""
        start = time.perf_counter()
        deadline = start + self.timeout if self.timeout is not None else None
        context = WaveContext(self.original, universal_plan, self.dependencies)

        def run_wave(keys):
            return [
                _evaluate_chunk(
                    context, keys, deadline, self.chase_cache, memo=self.containment_memo
                )
            ]

        walk = _LevelWalk(universal_plan, deadline, self.chase_cache).run(run_wave)
        return walk.result(self.strategy_label, start, "serial", 1)


# ---------------------------------------------------------------------- #
# wave evaluation (shared by both engines)
# ---------------------------------------------------------------------- #
@dataclass
class WaveContext:
    """Description of one backchase run, shared with the pool's workers."""

    original: object
    universal_plan: object
    dependencies: list


@dataclass
class WaveOutcome:
    """Mergeable result of evaluating one chunk of subquery-lattice nodes.

    ``verdicts`` maps each evaluated subset to its restricted subquery when
    it is equivalent to the original, or ``None`` otherwise.
    ``not_contained`` lists the evaluated subsets whose subquery is not
    contained in the original (the original does not map into its chase):
    the walk prunes every subset below them.  The remaining fields carry the
    chunk's search effort (``counters``: its chases when the run has no
    cache).
    """

    verdicts: dict = field(default_factory=dict)
    not_contained: list = field(default_factory=list)
    explored: int = 0
    equivalence_checks: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    counters: ChaseCounters = field(default_factory=ChaseCounters)
    timed_out: bool = False


def _evaluate_chunk(context, keys, deadline, cache, memo=None):
    """Evaluate the equivalence checks for ``keys`` against ``context``.

    Runs on the caller's thread (:class:`FullBackchase`) or on a pool worker
    (:class:`ParallelBackchase`), sharing the run's cache or running without
    one.  Respects ``deadline``; a chunk that runs out of budget returns the
    verdicts computed so far with ``timed_out=True``.  ``memo`` is the
    optional shared containment memo (see :func:`_check_equivalence`).

    Without a cache, the chunk's ``counters`` are those of the chases it
    ran.  With one, the run reads its accounting off the cache itself: a
    before/after delta taken here would include the concurrent chunks'
    activity.
    """
    outcome = WaveOutcome()
    for key in keys:
        if deadline_passed(deadline):
            outcome.timed_out = True
            break
        outcome.explored += 1
        subquery = context.universal_plan.restrict_to(key)
        if subquery is None:
            outcome.verdicts[key] = None
            continue
        outcome.equivalence_checks += 1
        try:
            equivalent = _check_equivalence(
                context.original,
                subquery,
                context.dependencies,
                cache,
                outcome.stats,
                outcome.counters,
                deadline,
                memo=memo,
            )
        except ChaseTimeout:
            outcome.timed_out = True
            break
        if equivalent:
            outcome.verdicts[key] = subquery
        else:
            outcome.verdicts[key] = None
            outcome.not_contained.append(key)
    return outcome


# ---------------------------------------------------------------------- #
# the wave engine
# ---------------------------------------------------------------------- #
class ParallelBackchase:
    """Backchase whose waves run on the optimizer service's shard pool.

    Runs the same level-wise walk as :class:`FullBackchase`, but each wave's
    variable sets go to ``pool``, which evaluates them concurrently; the
    verdicts and work counters of its chunks are merged back into the walk.
    Pruning is decided in the walk, so the checks made, the counters and the
    plan sets are the same as inline.

    Parameters
    ----------
    original / dependencies:
        As for :class:`FullBackchase`.
    pool:
        The :class:`~repro.service.scheduler.ScheduledPool` of the request
        (``start`` / ``run_wave`` plus ``kind`` / ``workers``).  Its worker
        pool belongs to the shard and outlives the run.
    timeout / strategy_label / chase_cache / containment_memo:
        As for :class:`FullBackchase`; every chunk shares the cache and the
        memo.
    """

    def __init__(
        self,
        original,
        dependencies,
        pool,
        timeout=None,
        strategy_label="fb",
        chase_cache=None,
        containment_memo=None,
    ):
        _require_cache_for_memo(chase_cache, containment_memo)
        self.original = original
        self.dependencies = list(dependencies)
        self.pool = pool
        self.timeout = timeout
        self.strategy_label = strategy_label
        self.chase_cache = chase_cache
        self.containment_memo = containment_memo

    def run(self, universal_plan):
        """Enumerate the minimal equivalent subqueries of ``universal_plan``."""
        start = time.perf_counter()
        deadline = start + self.timeout if self.timeout is not None else None
        pool = self.pool
        pool.start(
            WaveContext(self.original, universal_plan, self.dependencies),
            self.chase_cache,
            memo=self.containment_memo,
        )
        walk = _LevelWalk(universal_plan, deadline, self.chase_cache)
        walk.run(lambda keys: pool.run_wave(keys, deadline))
        return walk.result(self.strategy_label, start, pool.kind, pool.workers)


__all__ = [
    "BackchaseResult",
    "FullBackchase",
    "ParallelBackchase",
    "WaveContext",
    "WaveOutcome",
    "deadline_passed",
]
