"""Chase-based dependency implication and constraint-aware equivalence.

The backchase needs to decide, for a candidate subquery ``SQ`` of the
universal plan, whether ``SQ`` is equivalent to the original query ``Q``
under the constraint set ``D``.  Following the paper (Appendix A), this
reduces to chasing: ``Q1 is contained in Q2`` under ``D`` iff there is a
containment mapping from ``Q2`` into ``chase(Q1, D)``.

The same machinery decides dependency implication ``D implies d`` (used to
check that a single backchase step is justified, and exposed for tests): the
premise of ``d`` is frozen into a canonical query, chased with ``D``, and the
conclusion is checked against the result.

Long-lived use: :class:`ChaseCache` instances can now outlive a single
optimize call (the optimizer service keeps one warm per constraint set, see
:mod:`repro.service`), so the cache supports an optional LRU bound
(``max_entries``) with eviction counters, and :class:`ChaseCacheRegistry`
hands out one cache per *exact* constraint set — a chase result is only
valid for the dependency set it was chased with, so sharing is keyed by
:func:`constraint_signature`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.errors import ChaseTimeout
from repro.cq.containment import has_containment_mapping
from repro.cq.homomorphism import find_homomorphism
from repro.cq.query import PCQuery
from repro.lang.ast import Var, substitute
from repro.chase.chase import ChaseCounters, ChaseResult, chase
from repro.trace import traced_stage


def constraint_signature(dependencies):
    """A hashable, order-insensitive identity for a constraint set.

    Chase results are only reusable across calls that chase with the *same*
    dependencies, so every cache-sharing layer (the service's sessions, the
    :class:`ChaseCacheRegistry`) keys by this signature.
    """
    return frozenset(dependencies)


def constraints_digest(constraints):
    """Stable *structural* digest of a constraint set.

    Uses each dependency's pretty-printed form (name + quantifier structure),
    sorted — stable across processes and runs, and it *changes* whenever any
    constraint's definition changes, which is exactly the staleness signal:
    chase fixpoints and containment verdicts are only valid under the
    dependency set they were computed with.

    This is the one constraint-set identity shared by every placement and
    persistence layer: shard routing (:func:`repro.service.shard.shard_index`),
    the fleet router's consistent-hash ring, snapshot staleness checks and
    the snapshot store's file names all hash this digest.  Hashing anything
    weaker (the sorted dependency *names*, as the pre-fleet shard router did)
    aliases constraint sets whose names collide but whose bodies differ —
    a correctness bug once state is persisted or re-routed on that identity.
    """
    text = "\n".join(sorted(str(dep) for dep in constraints))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ChaseCache:
    """Memoises chase results keyed by query signature.

    Within one backchase walk no two checks chase the same subquery, so the
    cache pays across runs: the optimizer service keeps one per constraint
    set, and a later request that checks the same subqueries reads their
    fixpoints instead of chasing them.  A backchase without a cache chases
    each candidate only until the original query maps in, and keeps nothing
    (see :func:`repro.chase.backchase._check_equivalence`).

    The cache is *mergeable*, like :class:`~repro.cq.memo.ContainmentMemo`:
    the session codec copies every entry out with :meth:`export` and folds
    a decoded copy in with :meth:`merge` (snapshots and the fleet's
    snapshot store).

    For long-lived use (the optimizer service keeps caches warm across
    optimize calls) the cache accepts an optional ``max_entries`` bound and
    evicts least-recently-used entries once it is exceeded; ``evictions``
    counts the entries dropped.  The default (``None``) is unbounded and
    preserves the historical single-call behaviour exactly.

    Attributes
    ----------
    hits / misses:
        Cache hit/miss counts.
    evictions:
        Entries dropped by the LRU bound (0 when unbounded).
    counters:
        Aggregated :class:`~repro.chase.chase.ChaseCounters` over every
        cache-miss chase performed through this cache.
    """

    def __init__(self, dependencies, max_entries=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries!r}")
        self.dependencies = list(dependencies)
        self.max_entries = max_entries
        self._cache = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.counters = ChaseCounters()  # guarded-by: _lock
        self._lock = threading.Lock()

    def chase(self, query, deadline=None):
        """Return the chased query (cached).

        ``deadline`` is an optional absolute :func:`time.perf_counter` bound
        threaded through to :func:`repro.chase.chase.chase`; when it expires
        mid-chase a :class:`~repro.errors.ChaseTimeout` is raised and the
        partial result is *not* cached (a later call with a fresh budget must
        redo the chase from scratch rather than trust a truncated fixpoint).
        """
        result = self.chase_result(query, deadline=deadline)
        if result.timed_out:
            raise ChaseTimeout("chase deadline expired during a cached equivalence check")
        return result.query

    @traced_stage("chase")
    def chase_result(self, query, deadline=None):
        """Return a :class:`~repro.chase.chase.ChaseResult` for ``query`` (cached).

        A hit returns a synthetic zero-cost result around the cached fixpoint
        (``elapsed`` 0, empty counters) — this is what makes warm service
        requests cheap.  A miss chases; a *timed-out* miss returns the partial
        result **without caching it** (truncated fixpoints are never stored).

        Thread-safe: concurrent requests of the service share one cache per
        constraint set.  Lookup, accounting and the LRU bookkeeping are taken
        under a lock; the chase computation itself is not (two threads missing
        on the same signature may both chase it — idempotent, just duplicated
        work).
        """
        key = query.signature()
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self.hits += 1
                if self.max_entries is not None:
                    self._cache.move_to_end(key)
                return ChaseResult(query=cached)
        result = chase(query, self.dependencies, deadline=deadline)
        with self._lock:
            self.misses += 1
            self.counters.add(result.counters)
            if not result.timed_out:
                self._store(key, result.query)
        return result

    def _store(self, key, value):  # holds: _lock
        """Record a fixpoint under the lock, evicting when over the bound."""
        if key not in self._cache:
            self._cache[key] = value
            while self.max_entries is not None and len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
                self.evictions += 1
        elif self.max_entries is not None:
            self._cache.move_to_end(key)

    # ------------------------------------------------------------------ #
    # accounting, export and merge (the session codec)
    # ------------------------------------------------------------------ #
    def __len__(self):
        # Takes the lock: a bare len(self._cache) can observe a dict
        # mid-resize from a concurrent _store.  Lock-held internals use
        # len(self._cache) directly, so this never self-deadlocks.
        with self._lock:
            return len(self._cache)

    def stats(self):
        """One consistent accounting snapshot (entries, hits, misses, evictions).

        Reading the counters attribute-by-attribute from another thread can
        interleave with a concurrent miss and report hits/misses totals that
        never coexisted; this is the supported way to observe a live cache.
        """
        with self._lock:
            return {
                "entries": len(self._cache),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def export(self):
        """Every entry as ``[(query signature, fixpoint)]`` in eviction order
        (least recently used first when bounded, insertion order otherwise).

        One copy taken under the lock, so a cache can be exported while
        requests keep chasing into it; merging the list elsewhere keeps
        that order.
        """
        with self._lock:
            return list(self._cache.items())

    def merge(self, entries):
        """Fold an :meth:`export` list into this cache, under its bound.

        Idempotent (an entry already present is left alone); accounting is
        *not* transferred — hit/miss counters describe this process's
        traffic, and loaded fixpoints show up as future hits instead.
        """
        with self._lock:
            for key, value in entries:
                self._store(key, value)


class ChaseCacheRegistry:
    """Warm :class:`ChaseCache` instances keyed by exact constraint set.

    One optimize call chases under several *different* dependency sets (the
    full set for FB, per-fragment sets for OQF, per-stratum sets for OCS);
    reusing a chase result across sets would be unsound.  The registry hands
    out — and keeps warm across calls — one cache per
    :func:`constraint_signature`, which is how the optimizer service shares
    state between requests without changing any plan set.

    Thread-safe; ``max_entries`` bounds each per-set cache individually.
    """

    def __init__(self, max_entries=None):
        self.max_entries = max_entries
        self._caches = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def for_constraints(self, dependencies):
        """Return the (shared, warm) cache for exactly ``dependencies``."""
        key = constraint_signature(dependencies)
        with self._lock:
            cache = self._caches.get(key)
            if cache is None:
                cache = ChaseCache(dependencies, max_entries=self.max_entries)
                self._caches[key] = cache
            return cache

    def __len__(self):
        with self._lock:
            return len(self._caches)

    def stats(self):
        """Aggregate accounting over every cache in the registry.

        Each cache contributes one consistent :meth:`ChaseCache.stats`
        snapshot (taken under that cache's own lock) rather than raw
        attribute reads racing against in-flight misses.
        """
        with self._lock:
            caches = list(self._caches.values())
        per_cache = [cache.stats() for cache in caches]
        return {
            "caches": len(per_cache),
            "entries": sum(stats["entries"] for stats in per_cache),
            "hits": sum(stats["hits"] for stats in per_cache),
            "misses": sum(stats["misses"] for stats in per_cache),
            "evictions": sum(stats["evictions"] for stats in per_cache),
        }

    # ------------------------------------------------------------------ #
    # whole export / merge (the session codec)
    # ------------------------------------------------------------------ #
    def export_entries(self):
        """Every cache's entries as ``(dependencies, [(query signature,
        fixpoint)])`` pairs, one per non-empty cache, each copied under its
        cache's lock (:meth:`ChaseCache.export`)."""
        with self._lock:
            caches = list(self._caches.values())
        exported = []
        for cache in caches:
            entries = cache.export()
            if entries:
                exported.append((tuple(cache.dependencies), entries))
        return exported

    def merge_entries(self, exported):
        """Fold :meth:`export_entries`-shaped ``(dependencies, entries)`` pairs in.

        Creates the per-constraint-set cache on first contact (the receiving
        process may never have chased under that sub-set locally — OQF/OCS
        fragment sets differ per strategy mix) under this registry's LRU
        bound.  Duplicates are skipped inside :meth:`ChaseCache.merge`, so
        replaying an export is safe.
        """
        for dependencies, entries in exported:
            self.for_constraints(dependencies).merge(entries)


def contained_under(query, other, dependencies, chase_cache=None):
    """Return ``True`` when ``query ⊆ other`` under ``dependencies``.

    Decided by chasing ``query`` with the dependencies and looking for a
    containment mapping (an output-preserving homomorphism) from ``other``
    into the result.
    """
    if chase_cache is not None:
        chased = chase_cache.chase(query)
    else:
        chased = chase(query, dependencies).query
    return _has_containment_mapping(other, chased)


def equivalent_under(query, other, dependencies, chase_cache=None):
    """Return ``True`` when the two queries are equivalent under ``dependencies``."""
    return contained_under(query, other, dependencies, chase_cache) and contained_under(
        other, query, dependencies, chase_cache
    )


def _has_containment_mapping(source, target, stats=None):
    """Check for an output-preserving homomorphism from ``source`` into ``target``.

    Kept as the chase layer's historical entry point; the implementation is
    the shared :func:`repro.cq.containment.has_containment_mapping`, which is
    also what :class:`~repro.cq.memo.ContainmentMemo` computes on a miss —
    one search, one semantics, memoised or not.
    """
    return has_containment_mapping(source, target, stats=stats)


def implies(dependencies, candidate, chase_cache=None):
    """Return ``True`` when ``dependencies`` imply the dependency ``candidate``.

    The standard chase-based implication test: freeze the universal part of
    ``candidate`` into a canonical query, chase it with ``dependencies``, and
    check that the existential part (with its conclusion) can be matched, or,
    for an EGD, that the conclusion equalities hold in the chased query.
    """
    premise_query = PCQuery.create(
        output=[(binding.var, Var(binding.var)) for binding in candidate.universal],
        bindings=candidate.universal,
        conditions=candidate.premise,
    )
    if chase_cache is not None:
        chased = chase_cache.chase(premise_query)
    else:
        chased = chase(premise_query, dependencies).query
    closure = chased.congruence()
    # The frozen universal variables must map to their own images.  The chase
    # may have merged provably-equal frozen variables (an EGD firing followed
    # by the duplicate-binding collapse), so the image of each variable is
    # read off the premise query's output rather than assumed to be itself.
    identity = {
        binding.var: chased.output_path(binding.var) for binding in candidate.universal
    }
    if candidate.is_egd:
        return all(
            closure.equal(
                substitute(condition.left, identity), substitute(condition.right, identity)
            )
            for condition in candidate.conclusion
        )
    extension = find_homomorphism(
        candidate.existential,
        candidate.conclusion,
        chased,
        target_closure=closure,
        initial=identity,
    )
    return extension is not None


__all__ = [
    "ChaseCache",
    "ChaseCacheRegistry",
    "constraint_signature",
    "constraints_digest",
    "contained_under",
    "equivalent_under",
    "implies",
]
