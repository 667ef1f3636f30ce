"""The service-side tracer: trace lifecycle, ring buffer, JSONL trace log.

The tracing *core* (:class:`~repro.trace.RequestTrace`, ambient
activation, the ``traced_stage`` decorator) lives at the package root in
:mod:`repro.trace` so the engine layers can use it without importing the
service package.  This module is the serving-tier half: a :class:`Tracer`
mints one trace per admitted request, receives it back when the request
resolves, keeps the last ``ring_size`` finished span trees in memory (the
``/traces`` endpoint), optionally appends each to a JSONL trace log
(``--trace-log``), and owns the :class:`~repro.service.metrics.StageHistograms`
that every stage observation feeds live (the ``/metrics`` histograms).
"""

from __future__ import annotations

import json
import threading
from collections import deque

from repro.trace import RequestTrace
from repro.service.metrics import StageHistograms


class Tracer:
    """Mints, collects and exports per-request span trees.

    Parameters
    ----------
    ring_size:
        Finished traces kept in memory (bounded: a long-lived server must
        not grow per-request state without bound — same rule as the
        latency ring in :class:`~repro.service.metrics.MetricsCollector`).
    trace_log:
        Optional path of a JSONL trace log; every finished trace is
        appended as one ``as_dict()`` line.  Failed writes are dropped
        silently (the request path never pays for a full disk).
    histograms:
        The :class:`~repro.service.metrics.StageHistograms` stage
        observations feed (one is created when not given).
    """

    def __init__(self, ring_size=256, trace_log=None, histograms=None):
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size!r}")
        self.histograms = histograms if histograms is not None else StageHistograms()
        self._ring = deque(maxlen=ring_size)  # guarded-by: _lock
        self._started = 0  # guarded-by: _lock
        self._finished = 0  # guarded-by: _lock
        self._lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._log_stream = (  # guarded-by: _log_lock
            open(trace_log, "a", encoding="utf-8") if trace_log else None
        )

    # ------------------------------------------------------------------ #
    # lifecycle of one request's trace
    # ------------------------------------------------------------------ #
    def start_trace(self, request_id):
        """Mint the span tree for one admitted request."""
        with self._lock:
            self._started += 1
        return RequestTrace(request_id, observer=self.histograms)

    def export(self, trace):
        """Collect a finished trace into the ring (and the JSONL log)."""
        record = trace.as_dict()
        with self._lock:
            self._finished += 1
            self._ring.append(record)
        with self._log_lock:
            if self._log_stream is not None:
                try:
                    self._log_stream.write(json.dumps(record) + "\n")
                    self._log_stream.flush()
                except (OSError, ValueError):
                    pass
        return record

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def recent(self, limit=None):
        """The most recent finished span trees, oldest first."""
        with self._lock:
            records = list(self._ring)
        return records if limit is None else records[-limit:]

    def counters(self):
        """``(traces started, traces finished)`` totals."""
        with self._lock:
            return self._started, self._finished

    def close(self):
        """Close the trace log stream, if any (idempotent)."""
        with self._log_lock:
            stream, self._log_stream = self._log_stream, None
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


__all__ = ["Tracer"]
