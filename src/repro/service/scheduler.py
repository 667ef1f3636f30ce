"""The executor adapter that runs one request's parallel work on a shard pool.

A shard's requests run concurrently on its runner threads, and every shard
owns one worker pool (a plain :class:`~concurrent.futures.ThreadPoolExecutor`).
Each unit of parallel work a request produces — a chunk of backchase
subquery-lattice subsets, an OQF fragment, an OCS stage query — is submitted
straight to that pool, and the request's runner thread waits for its own
futures.

:class:`ScheduledPool` adapts the pool to the executor protocol of
:mod:`repro.chase.backchase` (``start`` / ``run_wave`` / ``map`` /
``close``), so :class:`~repro.chase.backchase.ParallelBackchase` and the
optimizer's OQF/OCS fan-out run on the shared pool without any engine
changes — which is also why the service's plan sets are signature-identical
to single-shot runs.
"""

from __future__ import annotations

from repro.chase.backchase import _evaluate_chunk, size_ordered_chunks
from repro.trace import activate, active_trace


def _traced_call(trace, fn, *args, **kwargs):
    """Run ``fn`` on a pool worker under the submitting request's trace.

    The ambient trace is thread-local and does not follow work into pool
    threads, so the worker re-activates it (``activate(None)`` is a no-op).
    """
    with activate(trace):
        return fn(*args, **kwargs)


class ScheduledPool:
    """Executor-protocol adapter running one request's work on a shard pool.

    One instance is created per service request; it holds only the shard's
    pool and worker count, so ``close`` is a no-op (the pool outlives every
    request — that is the whole point of the service).  ``detached`` is
    ``False``: every chunk shares the session's warm :class:`ChaseCache`
    directly, so there is nothing to merge back after a wave.
    """

    kind = "scheduled"
    detached = False
    chunk_policy = "size-ordered"

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

    def run_wave(self, keys, deadline, seed_entries=None):
        # seed_entries is ignored: chunks share the session cache directly.
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

    def close(self):
        pass


__all__ = ["ScheduledPool"]
