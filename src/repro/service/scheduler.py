"""The adapter that runs one request's parallel work on a shard pool.

A shard's requests run concurrently on its runner threads, and every shard
owns one worker pool (a plain :class:`~concurrent.futures.ThreadPoolExecutor`).
Each unit of parallel work a request produces — a chunk of backchase
subquery-lattice subsets, an OQF fragment, an OCS stage query — is submitted
straight to that pool, and the request's runner thread waits for its own
futures.

:class:`ScheduledPool` is what :class:`~repro.chase.backchase.
ParallelBackchase` runs its waves on (``start`` / ``run_wave``) and what
the optimizer fans its OQF/OCS stage tasks out on (``map``).  Every chunk
runs the inline engine's chunk evaluation against the session's shared
cache and memo, which is why the service's plan sets are
signature-identical to single-shot runs.
"""

from __future__ import annotations

from repro.chase.backchase import _evaluate_chunk
from repro.trace import activate, active_trace


def size_ordered_chunks(keys, buckets):
    """Split lattice keys into at most ``buckets`` size-balanced chunks.

    A subset's chase cost grows with the size of the restricted subquery, so
    the keys are sorted by estimated chase size (their cardinality) before
    being dealt round-robin — the longest-processing-time-first heuristic
    that keeps skewed waves from serialising behind one overloaded chunk.
    Ties break on the sorted variable names so the split is deterministic.
    Verdict merging is order-insensitive, so the chunking never changes the
    produced plan set.
    """
    ordered = sorted(keys, key=lambda key: (-len(key), tuple(sorted(key))))
    return [ordered[start::buckets] for start in range(buckets) if ordered[start::buckets]]


def _traced_call(trace, fn, *args, **kwargs):
    """Run ``fn`` on a pool worker under the submitting request's trace.

    The ambient trace is thread-local and does not follow work into pool
    threads, so the worker re-activates it (``activate(None)`` is a no-op).
    """
    with activate(trace):
        return fn(*args, **kwargs)


class ScheduledPool:
    """Runs one request's backchase waves and stage tasks on a shard pool.

    One instance is created per service request; it holds only the shard's
    pool and worker count (the pool outlives every request — that is the
    whole point of the service).  Every chunk shares the session's warm
    :class:`~repro.chase.implication.ChaseCache` and containment memo
    directly.
    """

    kind = "scheduled"

    def __init__(self, pool, workers):
        self.pool = pool
        self.workers = workers
        self._context = None
        self._cache = None
        self._memo = None

    def start(self, context, cache, memo=None):
        self._context = context
        self._cache = cache
        self._memo = memo

    def run_wave(self, keys, deadline):
        trace = active_trace()
        futures = [
            self.pool.submit(
                _traced_call,
                trace,
                _evaluate_chunk,
                self._context,
                chunk,
                deadline,
                self._cache,
                memo=self._memo,
            )
            for chunk in size_ordered_chunks(keys, self.workers)
        ]
        return [future.result() for future in futures]

    def map(self, fn, payloads):
        """Run stage tasks (OQF fragments / OCS stages) on the shard pool."""
        trace = active_trace()
        futures = [self.pool.submit(_traced_call, trace, fn, payload) for payload in payloads]
        return [future.result() for future in futures]


__all__ = ["ScheduledPool", "size_ordered_chunks"]
