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
  (the optimizer's FB path and every OQF fragment and OCS stage).
* :class:`ParallelBackchase` hands each wave to a pluggable executor
  (``serial`` / ``threads`` / ``processes``) or to the optimizer service's
  shard pool.  The checks of a wave are independent of one another; each
  chunk comes back as a mergeable :class:`WaveOutcome` (verdicts,
  :class:`~repro.cq.homomorphism.SearchStats`,
  :class:`~repro.chase.chase.ChaseCounters` and, from worker processes, the
  newly chased cache entries).

Pruning is decided in the walk, between waves, so both engines and every
executor make the same checks and produce identical plan sets.

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

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ChaseTimeout
from repro.chase.chase import ChaseCounters, chase, deadline_passed
from repro.chase.implication import ChaseCache, _has_containment_mapping
from repro.chase.plans import Plan, dedupe_isomorphic_plans
from repro.cq.containment import keep_search_schedule
from repro.cq.homomorphism import SearchStats

#: The executor kinds understood by :func:`make_executor`.
EXECUTORS = ("serial", "threads", "processes")


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
        How the lattice was explored: the executor kind, the worker count,
        and the number of waves (lattice levels) checked.
    chunk_policy:
        How wave payloads were split across workers (``"inline"`` for
        :class:`FullBackchase` and the serial executor, ``"size-ordered"``
        for the pooled ones).
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
    chunk_policy: str = ""

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

    def result(self, strategy_label, start, executor, workers, chunk_policy):
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
            chunk_policy=chunk_policy,
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
        Optional shared (possibly warm) :class:`ChaseCache` built for the
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
        return walk.result(self.strategy_label, start, "serial", 1, "inline")


# ---------------------------------------------------------------------- #
# wave evaluation (shared by every executor)
# ---------------------------------------------------------------------- #
@dataclass
class WaveContext:
    """Picklable description of one backchase run, shared with the workers."""

    original: object
    universal_plan: object
    dependencies: list
    chase_kwargs: dict = field(default_factory=dict)


@dataclass
class WaveOutcome:
    """Mergeable result of evaluating one chunk of subquery-lattice nodes.

    ``verdicts`` maps each evaluated subset to its restricted subquery when
    it is equivalent to the original, or ``None`` otherwise.
    ``not_contained`` lists the evaluated subsets whose subquery is not
    contained in the original (the original does not map into its chase):
    the walk prunes every subset below them.  The remaining fields carry the
    chunk's search effort (``counters``: its chases when the run has no
    cache) and (for detached executors) the worker cache's newly chased
    entries so the coordinator can merge them into the shared
    :class:`ChaseCache`.
    """

    verdicts: dict = field(default_factory=dict)
    not_contained: list = field(default_factory=list)
    explored: int = 0
    equivalence_checks: int = 0
    stats: SearchStats = field(default_factory=SearchStats)
    counters: ChaseCounters = field(default_factory=ChaseCounters)
    cache_hits: int = 0
    cache_misses: int = 0
    new_entries: dict = field(default_factory=dict)
    timed_out: bool = False


def _counters_delta(after, before):
    return ChaseCounters(
        closure_queries=after.closure_queries - before.closure_queries,
        candidates_tried=after.candidates_tried - before.candidates_tried,
        conditions_checked=after.conditions_checked - before.conditions_checked,
        deps_checked=after.deps_checked - before.deps_checked,
        deps_skipped=after.deps_skipped - before.deps_skipped,
        trigger_misses=after.trigger_misses - before.trigger_misses,
    )


def _counters_copy(counters):
    fresh = ChaseCounters()
    fresh.add(counters)
    return fresh


def _evaluate_chunk(context, keys, deadline, cache, export_cache=False, memo=None):
    """Evaluate the equivalence checks for ``keys`` against ``context``.

    Runs in the coordinating process (inline, serial / thread executors,
    sharing the engine's cache or running without one) or in a worker
    process (with a worker-local cache and ``export_cache=True``, or without
    a cache).  Respects ``deadline``; a chunk that runs out of budget
    returns the verdicts computed so far with ``timed_out=True``.  ``memo``
    is the optional shared containment memo (see :func:`_check_equivalence`);
    worker processes keep their own.

    Without a cache, the chunk's ``counters`` are those of the chases it
    ran.  With one, cache accounting (hit/miss/counter deltas, new entries)
    is only meaningful — and only computed — for detached worker caches:
    against a cache shared by concurrent chunks the before/after deltas
    would include the other chunks' activity.  Shared-cache engines read the
    accounting off the cache itself instead.
    """
    outcome = WaveOutcome()
    if export_cache:
        hits_before, misses_before = cache.hits, cache.misses
        counters_before = _counters_copy(cache.counters)
        marker = cache.snapshot()
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
    if export_cache:
        outcome.cache_hits = cache.hits - hits_before
        outcome.cache_misses = cache.misses - misses_before
        outcome.counters = _counters_delta(cache.counters, counters_before)
        outcome.new_entries = cache.export_since(marker)
    return outcome


def _round_robin(items, buckets):
    """Deterministically split ``items`` into at most ``buckets`` chunks."""
    return [items[start::buckets] for start in range(buckets) if items[start::buckets]]


def size_ordered_chunks(keys, buckets):
    """Split lattice keys into at most ``buckets`` size-balanced chunks.

    A subset's chase cost grows with the size of the restricted subquery, so
    the keys are sorted by estimated chase size (their cardinality) before
    being dealt round-robin — the longest-processing-time-first heuristic
    that keeps skewed waves from serialising behind one overloaded chunk.
    Ties break on the sorted variable names so the split is deterministic.
    Verdict merging is order-insensitive, so the chunking policy never
    changes the produced plan set.
    """
    ordered = sorted(keys, key=lambda key: (-len(key), tuple(sorted(key))))
    return _round_robin(ordered, buckets)


def resolve_worker_count(workers):
    """Resolve the ``workers`` knob: ``None`` means the machine's CPU count."""
    return max(1, workers if workers is not None else (os.cpu_count() or 1))


# ---------------------------------------------------------------------- #
# executors
# ---------------------------------------------------------------------- #
class SerialExecutor:
    """Evaluates every wave inline, as one chunk."""

    kind = "serial"
    #: Whether chunk outcomes come from a detached (worker-local) cache and
    #: must be merged back into the shared one.
    detached = False
    #: How run_wave splits its keys across workers (recorded on the result).
    chunk_policy = "inline"

    def __init__(self, workers=None):
        self.workers = 1

    def start(self, context, cache, memo=None):
        self._context = context
        self._cache = cache
        self._memo = memo

    def run_wave(self, keys, deadline, seed_entries=None):
        # seed_entries is ignored: the chunk evaluates against the shared
        # cache, which already holds everything the coordinator merged.
        return [_evaluate_chunk(self._context, keys, deadline, self._cache, memo=self._memo)]

    def map(self, fn, payloads):
        return [fn(payload) for payload in payloads]

    def close(self):
        pass


class ThreadExecutor:
    """Evaluates wave chunks on a thread pool sharing one :class:`ChaseCache`.

    CPython's GIL serialises the pure-Python equivalence checks, so this
    executor mainly exercises the wave machinery (and helps when a future
    backend releases the GIL); dictionary reads/writes on the shared cache
    are atomic under the GIL, the cache's own accounting is lock-protected,
    and the per-chunk search counters are collected in chunk-local objects
    and merged afterwards.
    """

    kind = "threads"
    detached = False
    chunk_policy = "size-ordered"

    def __init__(self, workers=None):
        self.workers = resolve_worker_count(workers)
        self._pool = ThreadPoolExecutor(max_workers=self.workers, thread_name_prefix="backchase")

    def start(self, context, cache, memo=None):
        self._context = context
        self._cache = cache
        self._memo = memo

    def run_wave(self, keys, deadline, seed_entries=None):
        # seed_entries is ignored: every chunk shares the coordinator's cache.
        chunks = size_ordered_chunks(keys, self.workers)
        futures = [
            self._pool.submit(
                _evaluate_chunk, self._context, chunk, deadline, self._cache, memo=self._memo
            )
            for chunk in chunks
        ]
        return [future.result() for future in futures]

    def map(self, fn, payloads):
        return list(self._pool.map(fn, payloads))

    def close(self):
        self._pool.shutdown(wait=True)


#: Per-worker-process state installed by :func:`_init_process_worker`.
_PROCESS_STATE = None


def _init_process_worker(context, keep_fixpoints):
    global _PROCESS_STATE
    from repro.cq.memo import ContainmentMemo

    if not keep_fixpoints:
        # The coordinator runs without a cache: so does the worker.
        _PROCESS_STATE = (context, None, None)
        return
    _PROCESS_STATE = (
        context,
        ChaseCache(context.dependencies, **context.chase_kwargs),
        ContainmentMemo(),
    )


def _process_chunk(payload):
    keys, deadline, seed_entries = payload
    context, cache, memo = _PROCESS_STATE
    if seed_entries:
        # Entries other workers chased in earlier waves, relayed by the
        # coordinator.  Merged before the chunk's export marker is taken, so
        # they are not shipped back again.
        cache.merge_exported(seed_entries)
    return _evaluate_chunk(
        context, keys, deadline, cache, export_cache=cache is not None, memo=memo
    )


class ProcessExecutor:
    """Evaluates wave chunks on a process pool with worker-local caches.

    Each worker process is initialised once per run with the (picklable)
    :class:`WaveContext`.  When the run has a shared cache, each worker
    keeps its own :class:`ChaseCache` warm across waves; newly chased
    entries are exported back with every chunk outcome, merged into the
    coordinator's cache, and relayed to the other workers with the next
    wave's payloads (so a subquery is chased at most once per wave across
    the pool, not once per worker).  Without one, the workers run the
    goal-directed checks and keep nothing.
    """

    kind = "processes"
    detached = True
    chunk_policy = "size-ordered"

    def __init__(self, workers=None):
        self.workers = resolve_worker_count(workers)
        self._pool = None
        self._map_pool = None

    def start(self, context, cache, memo=None):
        # ``memo`` is accepted for protocol uniformity but not shipped to the
        # workers: each keeps a worker-local memo (like its worker-local
        # cache) — verdicts are cheap to recompute and never merged back.
        # Imported here, not at module level, so that importing the engine
        # does not load ``multiprocessing`` into every process.
        from concurrent.futures import ProcessPoolExecutor

        # Only whether the run keeps fixpoints crosses to the workers: each
        # builds its own cache when it does.
        keep_fixpoints = cache is not None
        self._pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_process_worker,
            initargs=(context, keep_fixpoints),
        )

    def run_wave(self, keys, deadline, seed_entries=None):
        chunks = size_ordered_chunks(keys, self.workers)
        futures = [
            self._pool.submit(_process_chunk, (chunk, deadline, seed_entries))
            for chunk in chunks
        ]
        return [future.result() for future in futures]

    def map(self, fn, payloads):
        if self._map_pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._map_pool = ProcessPoolExecutor(max_workers=self.workers)
        return list(self._map_pool.map(fn, payloads))

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._map_pool is not None:
            self._map_pool.shutdown(wait=True)
            self._map_pool = None


_EXECUTOR_CLASSES = {
    "serial": SerialExecutor,
    "threads": ThreadExecutor,
    "processes": ProcessExecutor,
}


def make_executor(executor="serial", workers=None):
    """Build an executor by kind (``"serial"``, ``"threads"``, ``"processes"``)."""
    try:
        executor_class = _EXECUTOR_CLASSES[executor]
    except KeyError:
        raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
    return executor_class(workers=workers)


# ---------------------------------------------------------------------- #
# the wave engine
# ---------------------------------------------------------------------- #
class ParallelBackchase:
    """Backchase whose waves run on an executor.

    Runs the same level-wise walk as :class:`FullBackchase`, but each wave's
    variable sets go to the configured executor, which evaluates them
    concurrently; the verdicts and work counters of its chunks are merged
    back into the walk (and, for worker processes, their newly chased
    entries into the shared cache).  Pruning is decided in the walk, so the
    checks made, the counters and the plan sets are the same under every
    executor.

    Parameters
    ----------
    original / dependencies / timeout / strategy_label:
        As for :class:`FullBackchase`.
    executor:
        ``"serial"`` (default), ``"threads"`` or ``"processes"``.
    workers:
        Worker count for the pooled executors (defaults to the CPU count).
    pool:
        Optional externally managed executor-protocol object (``start`` /
        ``run_wave`` / ``map`` / ``close`` plus ``kind`` / ``workers`` /
        ``detached``).  When given, it is used instead of building one from
        ``executor`` / ``workers`` and is **not** closed by :meth:`run` —
        the optimizer service passes an adapter onto its shard's
        long-lived worker pool here.
    chase_cache:
        Optional shared (possibly warm) :class:`ChaseCache` built for the
        same dependency set, as for :class:`FullBackchase`; every executor
        runs the goal-directed checks without one.
    containment_memo:
        Optional shared :class:`~repro.cq.memo.ContainmentMemo`, as for
        :class:`FullBackchase`; handed to the pool alongside the cache so
        every chunk's containment searches are memoised.
    """

    def __init__(
        self,
        original,
        dependencies,
        timeout=None,
        strategy_label="fb",
        executor="serial",
        workers=None,
        pool=None,
        chase_cache=None,
        containment_memo=None,
    ):
        if pool is None and executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; expected one of {EXECUTORS}")
        _require_cache_for_memo(chase_cache, containment_memo)
        self.original = original
        self.dependencies = list(dependencies)
        self.timeout = timeout
        self.strategy_label = strategy_label
        self.executor = executor
        self.workers = workers
        self.pool = pool
        self.chase_cache = chase_cache
        self.containment_memo = containment_memo

    def run(self, universal_plan):
        """Enumerate the minimal equivalent subqueries of ``universal_plan``."""
        start = time.perf_counter()
        deadline = start + self.timeout if self.timeout is not None else None
        cache = self.chase_cache
        walk = _LevelWalk(universal_plan, deadline, cache)
        owns_pool = self.pool is None
        pool = make_executor(self.executor, self.workers) if owns_pool else self.pool
        pool.start(
            WaveContext(self.original, universal_plan, self.dependencies),
            cache,
            memo=self.containment_memo,
        )
        # Cache entries already relayed to the workers (detached pools with a
        # cache only): each wave ships the delta merged since the previous
        # wave, so every worker benefits from every other worker's chases.
        relayed = cache.snapshot() if cache is not None else None

        def run_wave(keys):
            nonlocal relayed
            if cache is None or not pool.detached:
                return pool.run_wave(keys, deadline)
            outcomes = pool.run_wave(keys, deadline, cache.export_since(relayed))
            for outcome in outcomes:
                cache.merge_exported(
                    outcome.new_entries,
                    hits=outcome.cache_hits,
                    misses=outcome.cache_misses,
                    counters=outcome.counters,
                )
            relayed = cache.snapshot()
            return outcomes

        try:
            walk.run(run_wave)
        finally:
            if owns_pool:
                pool.close()
        return walk.result(
            self.strategy_label,
            start,
            pool.kind,
            pool.workers,
            getattr(pool, "chunk_policy", pool.kind),
        )


__all__ = [
    "BackchaseResult",
    "EXECUTORS",
    "FullBackchase",
    "ParallelBackchase",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "WaveContext",
    "WaveOutcome",
    "deadline_passed",
    "make_executor",
    "resolve_worker_count",
    "size_ordered_chunks",
]
