"""The full backchase (FB): minimal equivalent subqueries of the universal plan.

Two engines implement the top-down exploration described in Section 4 of the
paper:

* :class:`FullBackchase` — the original recursive (depth-first) walk:
  starting from the universal plan, repeatedly try to remove one binding at a
  time and recursively minimise every equivalent subquery reached.  A
  subquery with no equivalent strict subquery is minimal and is emitted as a
  plan.

* :class:`ParallelBackchase` — a frontier-based, level-wise walk of the same
  subquery lattice driven by a pluggable executor (``serial`` / ``threads``
  / ``processes``).  Each wave collects every untried ``variables - {var}``
  subset across the whole frontier, evaluates the equivalence checks
  concurrently (they are independent given a shared
  :class:`~repro.chase.implication.ChaseCache`), merges the verdict maps,
  :class:`~repro.cq.homomorphism.SearchStats`,
  :class:`~repro.chase.chase.ChaseCounters` and newly chased cache entries
  back into shared state, and then expands the next frontier.  Both engines
  visit exactly the same lattice nodes and therefore produce identical plan
  sets (asserted by the test suite and the scaling benchmark).

Equivalence of a candidate subquery with the original query is checked with
the chase-based containment test of :mod:`repro.chase.implication`; one of
the two containments always holds for subqueries of the universal plan (the
original query maps into them), so only the other direction is chased.  The
chase results are memoised across candidates (:class:`ChaseCache`), and the
set of explored binding subsets is memoised so each subquery is inspected at
most once.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ChaseTimeout
from repro.chase.chase import ChaseCounters, deadline_passed
from repro.chase.implication import ChaseCache, _has_containment_mapping
from repro.chase.plans import Plan, dedupe_isomorphic_plans
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
        Number of distinct binding subsets inspected.
    equivalence_checks:
        Number of chase-based equivalence tests performed.
    elapsed:
        Wall-clock seconds spent in the backchase.
    timed_out:
        ``True`` when the exploration hit the timeout and the plan list may
        be incomplete.
    cache_hits / cache_misses:
        :class:`~repro.chase.implication.ChaseCache` accounting for the run.
    closure_queries / candidates_tried:
        Search effort summed over the containment-mapping searches of this
        run plus every cache-miss chase performed for it.
    executor / workers / waves:
        How the lattice was explored: the executor kind, the worker count,
        and (for the wave engine) the number of frontier waves dispatched.
    chunk_policy:
        How wave payloads were split across workers (``"inline"`` for the
        serial executor, ``"size-ordered"`` for the pooled ones); also
        recorded on the run's :class:`SearchStats`.
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


class BackchaseTimeout(Exception):
    """Internal signal used to unwind the exploration when the timeout hits."""


# ---------------------------------------------------------------------- #
# the equivalence check shared by both engines
# ---------------------------------------------------------------------- #
def _check_equivalence(original, universal_plan, subquery, cache, stats, deadline=None, memo=None):
    """Return ``True`` when ``subquery`` is equivalent to ``original``.

    Direction 1: the subquery is contained in the original under the
    constraints (chase the subquery, map the original into it).  Direction 2:
    the original is contained in the subquery; for subqueries of the
    universal plan this always holds (the universal plan is the chased
    original and the subquery maps into it by construction of the
    restriction), so it is checked cheaply against the universal plan itself.

    ``memo`` is an optional :class:`~repro.cq.memo.ContainmentMemo`: both
    containment searches then go through it, so a warm service request whose
    (subquery, fixpoint) pairs were already decided by an earlier request
    skips the homomorphism searches entirely.  Memo hits do not add to
    ``stats`` — the saved search effort is exactly what the serving metrics
    measure.

    Raises :class:`~repro.errors.ChaseTimeout` when ``deadline`` expires
    during the cache-miss chase.
    """
    chased = cache.chase(subquery, deadline=deadline)
    if memo is not None:
        if not memo.check(original, chased, stats=stats):
            return False
        return memo.check(subquery, universal_plan, stats=stats)
    if not _has_containment_mapping(original, chased, stats=stats):
        return False
    return _has_containment_mapping(subquery, universal_plan, stats=stats)


def _ordered_plan_items(plans_by_key):
    """Deterministic plan order: by subset size, then by sorted variable names.

    Both engines sort their emitted plans this way before the isomorphism
    dedupe, so the representative kept for each isomorphism class does not
    depend on the (engine-specific) order in which the lattice was walked —
    this is what makes the sequential and wave-parallel plan sets
    signature-identical.
    """
    return sorted(plans_by_key.items(), key=lambda item: (len(item[0]), tuple(sorted(item[0]))))


class FullBackchase:
    """Top-down backchase of a universal plan against the original query.

    Parameters
    ----------
    original:
        The original query ``Q``.
    dependencies:
        The constraint set used for the equivalence checks (typically the
        same set used to build the universal plan).
    timeout:
        Optional wall-clock budget in seconds; on expiry the plans found so
        far are returned with ``timed_out=True`` (this mirrors the timeouts
        in the paper's experiments).
    strategy_label:
        Label recorded on the produced :class:`Plan` objects.
    chase_cache:
        Optional shared (possibly warm) :class:`ChaseCache` built for the
        *same* dependency set; the engine creates a private one when omitted.
        The optimizer service passes a per-constraint-set cache here so chase
        fixpoints survive across requests.
    containment_memo:
        Optional shared :class:`~repro.cq.memo.ContainmentMemo`; when given,
        every containment search of the equivalence checks is memoised by
        canonical query-pair signature, so repeated requests skip the
        homomorphism searches as well as the chases.  Verdicts are
        constraint-independent, so one memo is safely shared across sessions.
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
        self.original = original
        self.dependencies = list(dependencies)
        self.timeout = timeout
        self.strategy_label = strategy_label
        self.chase_cache = chase_cache if chase_cache is not None else ChaseCache(self.dependencies)
        self.containment_memo = containment_memo

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, universal_plan):
        """Enumerate the minimal equivalent subqueries of ``universal_plan``."""
        start = time.perf_counter()
        deadline = start + self.timeout if self.timeout is not None else None
        state = _ExplorationState(deadline)
        cache_hits = self.chase_cache.hits
        cache_misses = self.chase_cache.misses
        chase_queries = self.chase_cache.counters.closure_queries
        chase_candidates = self.chase_cache.counters.candidates_tried
        try:
            self._explore(universal_plan, universal_plan.variable_set, state)
        except BackchaseTimeout:
            state.timed_out = True
        elapsed = time.perf_counter() - start
        plans = dedupe_isomorphic_plans(
            [
                Plan(query, strategy=self.strategy_label)
                for _, query in _ordered_plan_items(state.plans)
            ]
        )
        return BackchaseResult(
            plans=plans,
            subqueries_explored=state.explored,
            equivalence_checks=state.equivalence_checks,
            elapsed=elapsed,
            timed_out=state.timed_out,
            cache_hits=self.chase_cache.hits - cache_hits,
            cache_misses=self.chase_cache.misses - cache_misses,
            closure_queries=(
                state.stats.closure_queries
                + self.chase_cache.counters.closure_queries
                - chase_queries
            ),
            candidates_tried=(
                state.stats.candidates_tried
                + self.chase_cache.counters.candidates_tried
                - chase_candidates
            ),
        )

    # ------------------------------------------------------------------ #
    # exploration
    # ------------------------------------------------------------------ #
    def _explore(self, universal_plan, variables, state):
        """Minimise the subquery induced by ``variables`` (known equivalent)."""
        if deadline_passed(state.deadline):
            raise BackchaseTimeout()
        found_smaller = False
        for var in sorted(variables):
            remaining = variables - {var}
            verdict = self._equivalent_subset(universal_plan, remaining, state)
            if verdict is None:
                continue
            found_smaller = True
            if not state.is_visited(remaining):
                state.mark_visited(remaining)
                self._explore(universal_plan, remaining, state)
        if not found_smaller:
            subquery = universal_plan.restrict_to(variables)
            if subquery is not None:
                state.plans[frozenset(variables)] = subquery

    def _equivalent_subset(self, universal_plan, variables, state):
        """Return the restricted subquery when it is equivalent to the original."""
        key = frozenset(variables)
        cached = state.verdicts.get(key)
        if cached is not None:
            return cached if cached is not _NOT_EQUIVALENT else None
        if deadline_passed(state.deadline):
            raise BackchaseTimeout()
        state.explored += 1
        subquery = universal_plan.restrict_to(key)
        if subquery is None:
            state.verdicts[key] = _NOT_EQUIVALENT
            return None
        state.equivalence_checks += 1
        try:
            equivalent = _check_equivalence(
                self.original,
                universal_plan,
                subquery,
                self.chase_cache,
                state.stats,
                state.deadline,
                memo=self.containment_memo,
            )
        except ChaseTimeout:
            raise BackchaseTimeout()
        if not equivalent:
            state.verdicts[key] = _NOT_EQUIVALENT
            return None
        state.verdicts[key] = subquery
        return subquery


class _ExplorationState:
    """Mutable bookkeeping shared across the recursive exploration."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.visited = set()
        self.verdicts = {}
        self.plans = {}
        self.explored = 0
        self.equivalence_checks = 0
        self.timed_out = False
        self.stats = SearchStats()

    def is_visited(self, variables):
        return frozenset(variables) in self.visited

    def mark_visited(self, variables):
        self.visited.add(frozenset(variables))


_NOT_EQUIVALENT = object()


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
    it is equivalent to the original, or ``None`` otherwise.  The remaining
    fields carry the chunk's search effort and (for detached executors) the
    worker cache's newly chased entries so the coordinator can merge them
    into the shared :class:`ChaseCache`.
    """

    verdicts: dict = field(default_factory=dict)
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

    Runs in the coordinating process (serial / thread executors, sharing the
    engine's cache) or in a worker process (with a worker-local cache and
    ``export_cache=True``).  Respects ``deadline``; a chunk that runs out of
    budget returns the verdicts computed so far with ``timed_out=True``.
    ``memo`` is the optional shared containment memo (see
    :func:`_check_equivalence`); worker processes keep their own.

    Cache accounting (hit/miss/counter deltas, new entries) is only
    meaningful — and only computed — for detached worker caches: against a
    cache shared by concurrent chunks the before/after deltas would include
    the other chunks' activity.  Shared-cache engines read the accounting
    off the cache itself instead.
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
                context.universal_plan,
                subquery,
                cache,
                outcome.stats,
                deadline,
                memo=memo,
            )
        except ChaseTimeout:
            outcome.timed_out = True
            break
        outcome.verdicts[key] = subquery if equivalent else None
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
    """Evaluates every wave inline; the reference executor."""

    kind = "serial"
    #: Whether chunk outcomes come from a detached (worker-local) cache and
    #: must be merged back into the shared one.
    detached = False
    #: How run_wave splits its keys across workers (recorded in SearchStats).
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


def _init_process_worker(context):
    global _PROCESS_STATE
    from repro.cq.memo import ContainmentMemo

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
    return _evaluate_chunk(context, keys, deadline, cache, export_cache=True, memo=memo)


class ProcessExecutor:
    """Evaluates wave chunks on a process pool with worker-local caches.

    Each worker process is initialised once per run with the (picklable)
    :class:`WaveContext` and keeps its own :class:`ChaseCache` warm across
    waves; newly chased entries are exported back with every chunk outcome,
    merged into the coordinator's cache, and relayed to the other workers
    with the next wave's payloads (so a subquery is chased at most once per
    wave across the pool, not once per worker).
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

        self._pool = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_init_process_worker, initargs=(context,)
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
    """Frontier-based, level-wise backchase over the subquery lattice.

    Explores the same lattice as :class:`FullBackchase`, but one *wave* at a
    time: the untried ``variables - {var}`` subsets of the whole frontier are
    evaluated concurrently by the configured executor, the verdict maps and
    work counters are merged back into shared state, and the nodes whose
    children are all inequivalent are emitted as minimal plans.  Produces
    plan sets signature-identical to the sequential engine (both sort their
    plans canonically before the isomorphism dedupe).

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
        same dependency set, as for :class:`FullBackchase`.
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
        self.original = original
        self.dependencies = list(dependencies)
        self.timeout = timeout
        self.strategy_label = strategy_label
        self.executor = executor
        self.workers = workers
        self.pool = pool
        self.chase_cache = chase_cache if chase_cache is not None else ChaseCache(self.dependencies)
        self.containment_memo = containment_memo

    def run(self, universal_plan):
        """Enumerate the minimal equivalent subqueries of ``universal_plan``."""
        start = time.perf_counter()
        deadline = start + self.timeout if self.timeout is not None else None
        hits_before = self.chase_cache.hits
        misses_before = self.chase_cache.misses
        chase_queries = self.chase_cache.counters.closure_queries
        chase_candidates = self.chase_cache.counters.candidates_tried

        verdicts = {}
        plans = {}
        explored = 0
        equivalence_checks = 0
        stats = SearchStats()
        timed_out = False
        waves = 0

        top = frozenset(universal_plan.variable_set)
        visited = {top}
        frontier = [top]
        owns_pool = self.pool is None
        pool = make_executor(self.executor, self.workers) if owns_pool else self.pool
        pool.start(
            WaveContext(self.original, universal_plan, self.dependencies),
            self.chase_cache,
            memo=self.containment_memo,
        )
        stats.chunk_policy = getattr(pool, "chunk_policy", pool.kind)
        # Cache entries already relayed to the workers (detached pools only):
        # each wave ships the delta merged since the previous wave, so every
        # worker benefits from every other worker's chases.
        relayed = self.chase_cache.snapshot()
        try:
            while frontier and not timed_out:
                children = {node: [node - {var} for var in sorted(node)] for node in frontier}
                pending = []
                queued = set()
                for node in frontier:
                    for child in children[node]:
                        if child in verdicts or child in queued:
                            continue
                        queued.add(child)
                        pending.append(child)
                pending.sort(key=lambda key: tuple(sorted(key)))
                if pending:
                    if deadline_passed(deadline):
                        timed_out = True
                        break
                    waves += 1
                    seed_entries = None
                    if pool.detached:
                        seed_entries = self.chase_cache.export_since(relayed)
                    for outcome in pool.run_wave(pending, deadline, seed_entries):
                        for key, subquery in outcome.verdicts.items():
                            verdicts[key] = subquery if subquery is not None else _NOT_EQUIVALENT
                        explored += outcome.explored
                        equivalence_checks += outcome.equivalence_checks
                        stats.add(outcome.stats)
                        if pool.detached:
                            self.chase_cache.merge_exported(
                                outcome.new_entries,
                                hits=outcome.cache_hits,
                                misses=outcome.cache_misses,
                                counters=outcome.counters,
                            )
                        timed_out = timed_out or outcome.timed_out
                    if pool.detached:
                        relayed = self.chase_cache.snapshot()

                next_frontier = []
                for node in frontier:
                    kids = children[node]
                    if any(kid not in verdicts for kid in kids):
                        # The wave timed out before this node's children were
                        # all evaluated; its minimality is unknown, so it is
                        # neither expanded nor emitted (the serial engine
                        # abandons such nodes the same way).
                        continue
                    equivalent_kids = [kid for kid in kids if verdicts[kid] is not _NOT_EQUIVALENT]
                    if equivalent_kids:
                        for kid in equivalent_kids:
                            if kid not in visited:
                                visited.add(kid)
                                next_frontier.append(kid)
                    else:
                        subquery = verdicts.get(node)
                        if subquery is None or subquery is _NOT_EQUIVALENT:
                            # Only the lattice top has no verdict of its own.
                            subquery = universal_plan.restrict_to(node)
                        if subquery is not None:
                            plans[node] = subquery
                frontier = sorted(next_frontier, key=lambda key: tuple(sorted(key)))
        finally:
            if owns_pool:
                pool.close()

        elapsed = time.perf_counter() - start
        plan_objects = dedupe_isomorphic_plans(
            [
                Plan(query, strategy=self.strategy_label)
                for _, query in _ordered_plan_items(plans)
            ]
        )
        return BackchaseResult(
            plans=plan_objects,
            subqueries_explored=explored,
            equivalence_checks=equivalence_checks,
            elapsed=elapsed,
            timed_out=timed_out,
            cache_hits=self.chase_cache.hits - hits_before,
            cache_misses=self.chase_cache.misses - misses_before,
            closure_queries=(
                stats.closure_queries
                + self.chase_cache.counters.closure_queries
                - chase_queries
            ),
            candidates_tried=(
                stats.candidates_tried
                + self.chase_cache.counters.candidates_tried
                - chase_candidates
            ),
            executor=pool.kind,
            workers=pool.workers,
            waves=waves,
            chunk_policy=stats.chunk_policy,
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
