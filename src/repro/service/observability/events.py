"""Structured JSONL event log for the serving tier.

Every operationally interesting transition — request admitted, rejected or
completed; a runner crash and its replacement; a snapshot saved, loaded or
failed — is one JSON object per line with a monotonic-enough wall-clock
timestamp and free-form fields.  This replaces the ad-hoc
``print(..., file=sys.stderr)`` warnings the CLI and snapshot loop used to
emit: machines can tail a JSONL stream, humans still can too.

Event records look like::

    {"ts": 1723111845.12, "event": "request.completed", "request_id": "r1",
     "shard": 0, "status": "ok", "latency_s": 0.0021}

The log is optional everywhere: emitters take ``event_log=None`` and call
:func:`log_event`, which is a no-op on ``None`` — tracing the "events are
off" path costs one ``is None`` test.
"""

from __future__ import annotations

import json
import threading
import time


class EventLog:
    """Thread-safe JSONL event writer (to an open stream or a file path).

    Completion events arrive from shard runner threads concurrently with
    admission events from the submitting thread, so every write is taken
    under one lock.  ``emit`` never raises: a full disk or a closed stream
    must not take the serving path down with it — failed writes are counted
    on :attr:`dropped` instead.
    """

    def __init__(self, stream=None, path=None):
        if stream is not None and path is not None:
            raise ValueError("EventLog takes a stream or a path, not both")
        self._owns_stream = path is not None
        self._stream = (
            open(path, "a", encoding="utf-8") if path is not None else stream
        )
        self._lock = threading.Lock()
        self.dropped = 0  # guarded-by: _lock
        self.emitted = 0  # guarded-by: _lock

    def emit(self, event, **fields):
        """Append one event record; returns the record (for tests)."""
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(record, default=str)
        with self._lock:
            if self._stream is None:
                self.dropped += 1
                return record
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
                self.emitted += 1
            except (OSError, ValueError):
                self.dropped += 1
        return record

    def close(self):
        """Close the underlying stream when this log opened it (idempotent)."""
        with self._lock:
            stream, self._stream = self._stream, None
        if self._owns_stream and stream is not None:
            try:
                stream.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def log_event(event_log, event, **fields):
    """Emit ``event`` on ``event_log``; a no-op when the log is ``None``.

    Every emitter in the serving tier funnels through this helper so
    call sites never branch on whether structured logging is configured.
    """
    if event_log is None:
        return None
    return event_log.emit(event, **fields)


__all__ = ["EventLog", "log_event"]
