"""Request tracing primitives: per-stage span accumulation with zero deps.

The serving tier (:mod:`repro.service`) wants a per-request breakdown of
where time goes — admission wait vs. shard queue vs. snapshot-store load
vs. chase fixpoints vs. containment checks vs. plan serialization.  The
engine layers (:mod:`repro.chase`, :mod:`repro.cq`) cannot import the
service package (layering), so the tracing core lives here at the package
root and is pure stdlib: monotonic clocks, a lock, a ``threading.local``.

Design:

* :class:`RequestTrace` is one request's span tree: a root span (created at
  ``submit``, finished when the response resolves) plus one *aggregate*
  child span per stage.  Stages are aggregates, not individual spans,
  because a single request triggers thousands of ``restrict_to`` calls —
  recording each as its own span would cost more than the work measured.
  Each stage accumulates ``(seconds, count)`` plus free-form attributes
  (cache/memo attribution).
* Stage attribution is *ambient*: :func:`activate` installs a trace as the
  current thread's collector and :func:`traced_stage` decorates engine
  entry points.  A plain ``threading.local`` (not ``contextvars``) is
  deliberate — context vars do not propagate into pool worker threads, so
  :class:`~repro.service.scheduler.ScheduledPool` re-activates the trace
  explicitly on the shard pool worker that runs each chunk or stage task
  (the trace object rides along with the submitted call).
* Accounting is **outermost-only** per thread: when a traced stage calls
  another traced stage (``ChaseCache.chase_result`` → ``chase``,
  containment minimization → ``restrict_to``), only the outermost frame
  records.  This keeps per-thread stage times non-overlapping, so inline
  (or on a shard pool with ``workers=1``) the stage durations
  sum to at most the request latency.
  On a thread pool the stages accumulate *CPU-seconds across workers*,
  which may legitimately exceed wall-clock latency — that is attribution,
  not a bug, and the service docs say so.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

#: Canonical stage names, in pipeline order.  ``as_dict`` orders known
#: stages this way; unknown stages (future instrumentation) sort after.
STAGES = (
    "admission_wait",
    "queue_wait",
    "store_load",
    "chase",
    "containment",
    "restrict",
    "serialize",
)


class RequestTrace:
    """One request's span tree: root duration + per-stage aggregates.

    Thread-safe: stages are recorded concurrently from pool workers.  The
    ``observer`` (when given) is any object with an
    ``observe_stage(stage, seconds)`` method — the service tracer uses it
    to feed the Prometheus histograms at record time, so histogram data is
    live even before the trace finishes.
    """

    def __init__(self, request_id=None, observer=None):
        self.request_id = request_id
        self.observer = observer  # write-once in __init__, read-only after
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._stages = {}  # guarded-by: _lock
        self._attrs = {}  # guarded-by: _lock
        self._duration = None  # guarded-by: _lock
        self._status = "pending"  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record(self, stage, seconds, count=1):
        """Add ``seconds`` (and ``count`` calls) to ``stage``'s aggregate."""
        with self._lock:
            entry = self._stages.setdefault(stage, [0.0, 0])
            entry[0] += seconds
            entry[1] += count
        observer = self.observer
        if observer is not None:
            observer.observe_stage(stage, seconds)

    def annotate(self, stage, **attrs):
        """Attach attributes (cache hits, memo hits, ...) to a stage span."""
        with self._lock:
            self._attrs.setdefault(stage, {}).update(attrs)

    def finish(self, status="ok"):
        """Seal the root span (idempotent — the first finish wins)."""
        elapsed = time.perf_counter() - self._t0
        with self._lock:
            if self._duration is None:
                self._duration = elapsed
                self._status = status
        return self

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    @property
    def duration(self):
        """Root-span seconds, or ``None`` while the request is in flight."""
        with self._lock:
            return self._duration

    @property
    def status(self):
        with self._lock:
            return self._status

    def stage_seconds(self):
        """``{stage: seconds}`` snapshot of the aggregates so far."""
        with self._lock:
            return {name: entry[0] for name, entry in self._stages.items()}

    def as_dict(self):
        """Span tree as plain JSON-able data (the wire/trace-log format)."""
        order = {name: index for index, name in enumerate(STAGES)}
        with self._lock:
            names = sorted(
                self._stages, key=lambda name: (order.get(name, len(order)), name)
            )
            spans = []
            for name in names:
                seconds, count = self._stages[name]
                span = {
                    "stage": name,
                    "seconds": round(seconds, 9),
                    "count": count,
                }
                attrs = self._attrs.get(name)
                if attrs:
                    span["attrs"] = dict(attrs)
                spans.append(span)
            duration = self._duration
            status = self._status
        record = {
            "request_id": self.request_id,
            "status": status,
            "started_at": round(self.started_at, 6),
            "stages": spans,
        }
        if duration is not None:
            record["duration_s"] = round(duration, 9)
        return record


# ---------------------------------------------------------------------- #
# ambient activation
# ---------------------------------------------------------------------- #
_local = threading.local()


def active_trace():
    """The trace installed on this thread by :func:`activate`, or ``None``."""
    return _local.__dict__.get("trace")


@contextmanager
def activate(trace):
    """Install ``trace`` as this thread's ambient stage collector.

    ``activate(None)`` is a no-op context manager, so call sites do not
    branch on whether tracing is enabled.  Nesting restores the previous
    trace on exit (pool workers swap traces per payload).
    """
    if trace is None:
        yield None
        return
    state = _local.__dict__
    previous = state.get("trace")
    previous_depth = state.get("in_stage", False)
    state["trace"] = trace
    state["in_stage"] = False
    try:
        yield trace
    finally:
        state["trace"] = previous
        state["in_stage"] = previous_depth


def traced_stage(stage):
    """Decorate an engine entry point to bill its wall time to ``stage``.

    Outermost-only: when a traced function calls another traced function on
    the same thread, the inner frame does not record — the outer stage owns
    the whole interval.  The no-trace fast path is one dict lookup, so
    decorated hot paths (``restrict_to``) stay cheap when tracing is off.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = _local.__dict__
            trace = state.get("trace")
            if trace is None or state.get("in_stage"):
                return fn(*args, **kwargs)
            state["in_stage"] = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state["in_stage"] = False
                trace.record(stage, time.perf_counter() - start)

        return traced

    return decorate


__all__ = [
    "STAGES",
    "RequestTrace",
    "activate",
    "active_trace",
    "traced_stage",
]
