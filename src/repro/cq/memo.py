"""Memoised containment verdicts keyed by canonical query-pair signatures.

The backchase decides equivalence of a candidate subquery with the original
query through containment-mapping searches
(:func:`~repro.cq.containment.has_containment_mapping`).  Within one run each
lattice node is checked at most once, but a *serving* workload repeats whole
runs: the second request for a catalog re-derives exactly the containment
verdicts the first one already searched for.  PR 4's warm chase caches
removed the repeated chases; this module removes the repeated containment
searches.

:class:`ContainmentMemo` memoises the boolean verdict of
``has_containment_mapping(source, target)`` keyed by the pair of the two
queries' canonical signatures (:meth:`~repro.cq.query.PCQuery.signature` —
order-insensitive over bindings, normalised conditions and outputs, so any
two structurally identical queries share a key).  A verdict depends on
nothing but the two queries, so the memo is sound across requests, catalogs
and constraint sets; it is LRU-bounded like
:class:`~repro.chase.implication.ChaseCache`, thread-safe and mergeable
(snapshots and the shared snapshot store carry its verdicts through
:meth:`ContainmentMemo.export` and :meth:`ContainmentMemo.merge_exported`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.cq.containment import has_containment_mapping
from repro.trace import traced_stage


class ContainmentMemo:
    """LRU-bounded memo of containment-mapping verdicts.

    Parameters
    ----------
    max_entries:
        LRU bound (``None`` = unbounded, the single-call default).  Set it
        for long-lived deployments — the optimizer service bounds every
        session memo with its ``max_memo_entries`` knob.

    Attributes
    ----------
    hits / misses:
        Verdicts answered from the memo vs. computed by a fresh search.
    evictions:
        Entries dropped by the LRU bound (0 when unbounded).
    """

    def __init__(self, max_entries=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries!r}")
        self.max_entries = max_entries
        self._verdicts = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    @staticmethod
    def key(source, target):
        """The canonical pair signature a verdict is memoised under.

        Each side's :meth:`~repro.cq.query.PCQuery.signature` is memoised on
        its query instance, so a warm check re-reads both keys rather than
        rebuilding them.
        """
        return (source.signature(), target.signature())

    @traced_stage("containment")
    def check(self, source, target, stats=None):
        """Return whether a containment mapping ``source`` → ``target`` exists.

        A hit returns the memoised verdict without searching (``stats`` is
        not touched — skipping the search effort is the point); a miss runs
        :func:`~repro.cq.containment.has_containment_mapping` and stores the
        verdict.  Thread-safe: lookup and store are taken under a lock, the
        search itself is not (two threads missing on the same pair may both
        search — idempotent, just duplicated work).
        """
        key = self.key(source, target)
        with self._lock:
            cached = self._verdicts.get(key)
            if cached is not None:
                self.hits += 1
                if self.max_entries is not None:
                    self._verdicts.move_to_end(key)
                return cached
        verdict = has_containment_mapping(source, target, stats=stats)
        with self._lock:
            self.misses += 1
            self._store(key, verdict)
        return verdict

    def lookup(self, source, target):
        """Return the memoised verdict for the pair, or ``None`` (no search)."""
        key = self.key(source, target)
        with self._lock:
            cached = self._verdicts.get(key)
            if cached is not None and self.max_entries is not None:
                self._verdicts.move_to_end(key)
            return cached

    def _store(self, key, verdict):  # holds: _lock
        if key not in self._verdicts:
            self._verdicts[key] = verdict
            while self.max_entries is not None and len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
                self.evictions += 1
        elif self.max_entries is not None:
            self._verdicts.move_to_end(key)

    def export(self):
        """Every verdict as ``[(key, verdict)]`` in eviction order (least
        recently used first when bounded, insertion order otherwise).

        One copy taken under the lock, so a memo can be exported while
        requests keep storing verdicts; merging the list elsewhere keeps
        that order.
        """
        with self._lock:
            return list(self._verdicts.items())

    def merge_exported(self, entries):
        """Fold an :meth:`export` list into this memo.

        Idempotent (a verdict already present is left alone); accounting is
        *not* transferred — hit/miss counters describe this process's
        traffic, and loaded verdicts show up as future hits instead.
        """
        with self._lock:
            for key, verdict in entries:
                self._store(key, verdict)

    def __len__(self):
        # Takes the lock: a bare len() can observe the OrderedDict mid-insert
        # from a concurrent _store.  Lock-held internals (and stats()) use
        # len(self._verdicts) directly, so this never self-deadlocks.
        with self._lock:
            return len(self._verdicts)

    @property
    def hit_rate(self):
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self):
        """Accounting snapshot (the service's shard stats aggregate these)."""
        with self._lock:
            return {
                "entries": len(self._verdicts),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


__all__ = ["ContainmentMemo"]
