"""Regression tests for the races repro-lint surfaced (PR 7).

Each class pins one genuine finding from the analyzer's first run over the
serving stack: counter updates that used to happen outside their lock,
attribute-by-attribute stats reads that could observe totals that never
coexisted, and the CLI's ad-hoc ``write_lock`` that now lives on the object
it guards (``_StreamEmitter``).
"""

import io
import json
import socket
import sys
import threading

from repro.chase.implication import ChaseCache
from repro.cli import _StreamEmitter
from repro.cq.memo import ContainmentMemo
from repro.cq.query import PCQuery
from repro.errors import SnapshotError
from repro.service.client import OptimizerClient
from repro.service.snapshots import SnapshotManager

THREADS = 8
ROUNDS = 50


def _hammer(worker, threads=THREADS):
    crew = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in crew:
        t.start()
    for t in crew:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in crew)


class TestSnapshotManagerCounters:
    """``save()`` used to bump ``snapshots_written`` outside ``_lock``."""

    class _Service:
        def __init__(self, fail=False):
            self.fail = fail
            self.calls = 0
            self._lock = threading.Lock()

        def save_caches(self, path, faults=None):
            with self._lock:
                self.calls += 1
            if self.fail:
                raise SnapshotError("injected")
            return 1

    def test_concurrent_saves_lose_no_increment(self, tmp_path):
        service = self._Service()
        manager = SnapshotManager(service, tmp_path / "x.snap")

        def worker(_i):
            for _ in range(ROUNDS):
                assert manager.save() == 1

        _hammer(worker)
        stats = manager.stats()
        assert stats["snapshots_written"] == THREADS * ROUNDS == service.calls
        assert stats["snapshot_failures"] == 0

    def test_concurrent_failures_lose_no_increment(self, tmp_path):
        manager = SnapshotManager(self._Service(fail=True), tmp_path / "x.snap")

        def worker(_i):
            for _ in range(ROUNDS):
                assert manager.save() is None

        _hammer(worker)
        stats = manager.stats()
        assert stats["snapshot_failures"] == THREADS * ROUNDS
        assert stats["last_error"] == "injected"
        assert stats["snapshots_written"] == 0


class TestChaseCacheAccounting:
    """stats()/len() snapshot under the lock; export() copies under it."""

    def test_stats_never_observes_torn_hit_miss_totals(self):
        cache = ChaseCache([])
        per_thread = 32 * ROUNDS
        queries = [
            [PCQuery.parse(f"select struct(A: r.A) from R{i}_{j} r") for j in range(per_thread)]
            for i in range(THREADS)
        ]
        stop = threading.Event()
        torn = []

        def reader():
            while not stop.is_set():
                stats = cache.stats()
                if stats["entries"] != stats["misses"]:
                    torn.append(stats)

        def worker(i):
            for query in queries[i]:
                # Every query is new: its miss stores one entry under the
                # same lock, so any snapshot where the entry count and the
                # miss count differ interleaved with a writer mid-update.
                cache.chase_result(query)
                cache.chase_result(query)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often enough to land mid-update
        try:
            observer = threading.Thread(target=reader)
            observer.start()
            _hammer(worker)
            stop.set()
            observer.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not observer.is_alive()
        assert torn == []
        stats = cache.stats()
        assert stats["hits"] == stats["misses"] == THREADS * per_thread
        assert stats["entries"] == len(cache) == THREADS * per_thread

    def test_merge_from_a_live_donor(self):
        donor = ChaseCache([])
        merged = ChaseCache([])
        stop = threading.Event()

        def writer():
            # Bounded: merging a whole export costs about what the writer
            # pays per entry, so an unbounded writer outgrows the reader.
            serial = 0
            while not stop.is_set() and serial < 20 * THREADS * ROUNDS:
                donor.merge([(("live", serial), serial)])
                serial += 1

        mutator = threading.Thread(target=writer)
        mutator.start()
        try:
            # Merge for as long as the donor is written to: export copies
            # under donor._lock, so no round tears.
            rounds = 0
            while rounds < ROUNDS or mutator.is_alive():
                merged.merge(donor.export())
                rounds += 1
        finally:
            stop.set()
            mutator.join(timeout=30.0)
        merged.merge(donor.export())
        assert merged.export() == donor.export()
        assert len(merged) == len(donor)


class TestContainmentMemoExport:
    """``export()`` copies under the memo's lock (no mid-insert iteration)."""

    def test_export_from_a_live_donor(self):
        donor = ContainmentMemo()
        merged = ContainmentMemo()
        stop = threading.Event()

        def writer():
            # Bounded, like the chase-cache donor above.
            serial = 0
            while not stop.is_set() and serial < 20 * THREADS * ROUNDS:
                donor.merge_exported([((f"s{serial}", "t"), serial % 2 == 0)])
                serial += 1

        mutator = threading.Thread(target=writer)
        mutator.start()
        try:
            rounds = 0
            while rounds < ROUNDS or mutator.is_alive():
                merged.merge_exported(donor.export())
                rounds += 1
        finally:
            stop.set()
            mutator.join(timeout=30.0)
        merged.merge_exported(donor.export())
        assert merged.export() == donor.export()
        assert len(merged) == merged.stats()["entries"] == len(donor)


class TestClientClosedFlag:
    """``request()``'s retry exit test reads ``_closed`` under ``_link_lock``."""

    def test_is_closed_tracks_close(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = OptimizerClient(port=listener.getsockname()[1])
            assert client._is_closed() is False
            client.close()
            assert client._is_closed() is True
            client.close()  # idempotent
            assert client.replays == 0
        finally:
            listener.close()


class TestStreamEmitter:
    """cli.py's bare ``write_lock`` local became a lock on the emitter."""

    def test_concurrent_emits_interleave_whole_lines(self):
        out = io.StringIO()
        emitter = _StreamEmitter(out)

        def worker(i):
            for j in range(ROUNDS):
                emitter.emit({"worker": i, "round": j})

        _hammer(worker)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == THREADS * ROUNDS
        seen = {(r["worker"], r["round"]) for r in map(json.loads, lines)}
        assert len(seen) == THREADS * ROUNDS  # every record intact, no tears

    def test_failure_flag(self):
        emitter = _StreamEmitter(io.StringIO())
        assert emitter.failed is False

        def worker(i):
            emitter.record_failure(f"r{i}")

        _hammer(worker)
        assert emitter.failed is True
