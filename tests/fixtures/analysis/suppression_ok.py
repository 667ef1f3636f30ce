"""Negative fixture: justified suppressions silence findings — analyzer silent.

Demonstrates both scoping forms: a class-header suppression covering the
whole class (future-resolution) and a line-level suppression on one access
(lock-discipline).  Both carry written justifications.
"""

import threading


class DrainedTable:  # repro-lint: ignore[future-resolution] fixture table; its owner resolves every entry at shutdown
    def __init__(self):
        self.pending = {}

    def submit(self, request_id, future):
        self.pending[request_id] = future
        return future


class MonitoredGauge:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0  # guarded-by: _lock

    def bump(self):
        with self._lock:
            self._count += 1

    def peek(self):
        return self._count  # repro-lint: ignore[lock-discipline] monitoring read; a stale value is acceptable
