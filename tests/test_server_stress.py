"""Concurrency stress for the socket front end and admission control.

Invariants locked down here:

* **Exactly one response per request.**  N client threads hammer the server
  past the admission limit; every request line resolves to exactly one
  typed record — ``ok`` or ``overloaded`` — and nothing hangs (all joins
  are bounded).
* **Metrics reconcile.**  The service's exact totals (``requests`` executed,
  ``rejected`` at admission) must add up to the responses the clients saw,
  and the queue gauge must respect its bound.
* **Typed, deterministic rejection.**  With a blocked runner and a queue
  depth of 1, the second submit is rejected synchronously with
  :class:`~repro.errors.ServiceOverloaded` (in-process) / a typed
  ``overloaded`` record (socket) — never queued, never silently dropped.
"""

import random
import threading

import pytest

from repro.errors import ServiceOverloaded
from repro.service import OptimizerClient, OptimizerServer, OptimizerService
from repro.workloads import build_ec2

#: Generous bound for every join in this module: a hang is a deadlock bug.
JOIN_TIMEOUT = 120.0

EC2_REQUEST = {
    "workload": "ec2",
    "params": {"stars": 1, "corners": 3, "views": 1},
    "strategy": "fb",
}


class TestSocketHammer:
    def test_hammer_past_admission_limit(self):
        """6 threads x 4 requests against queue depth 2: no deadlock, one
        typed response each, counters reconcile with what clients saw."""
        threads_n, per_thread = 6, 4
        statuses = []
        statuses_lock = threading.Lock()
        with OptimizerServer(
            shards=1, workers=1, max_inflight=1, max_queue_depth=2
        ) as server:
            with OptimizerClient(port=server.port) as client:

                def hammer():
                    for _ in range(per_thread):
                        record = client.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                        with statuses_lock:
                            statuses.append(record["status"])

                workers = [threading.Thread(target=hammer) for _ in range(threads_n)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=JOIN_TIMEOUT)
                    assert not worker.is_alive(), "client thread deadlocked"
                stats = client.stats()

        total = threads_n * per_thread
        assert len(statuses) == total  # exactly one response per request
        assert set(statuses) <= {"ok", "overloaded"}
        ok = statuses.count("ok")
        overloaded = statuses.count("overloaded")
        # Reconciliation: every executed request was counted exactly once,
        # every shed request was rejected exactly once, nothing was lost.
        assert stats["requests"] == ok
        assert stats["rejected"] == overloaded
        assert stats["errors"] == 0
        assert ok + overloaded == total
        assert stats["queue_peak"] <= 2
        assert stats["queue_depth"] == 0  # fully drained

    def test_hammer_with_per_thread_connections(self):
        """Same invariants when every thread owns its own connection."""
        threads_n, per_thread = 4, 3
        statuses = []
        statuses_lock = threading.Lock()
        with OptimizerServer(
            shards=1, workers=1, max_inflight=1, max_queue_depth=2
        ) as server:

            def hammer():
                with OptimizerClient(port=server.port) as client:
                    for _ in range(per_thread):
                        record = client.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                        with statuses_lock:
                            statuses.append(record["status"])

            workers = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=JOIN_TIMEOUT)
                assert not worker.is_alive(), "client thread deadlocked"
            stats = server.service.stats()

        total = threads_n * per_thread
        assert len(statuses) == total
        assert set(statuses) <= {"ok", "overloaded"}
        assert stats.requests == statuses.count("ok")
        assert stats.rejected == statuses.count("overloaded")


class TestSharedClientBackoffRng:
    def test_concurrent_retry_jitter_never_tears_the_rng(self):
        """The client is documented as thread-safe, and the hammer tests
        above share one instance across threads — so the backoff jitter's
        ``random.Random`` (which mutates internal state on every draw) must
        be lock-protected too.  With the lock, N threads drawing jitter
        concurrently produce exactly the seeded sequence, just reordered;
        the old unguarded RNG could interleave draws mid-update."""
        threads_n, draws_per_thread = 8, 250
        with OptimizerServer(shards=1, workers=1) as server:
            with OptimizerClient(port=server.port, backoff_seed=97) as client:
                draws = []
                draws_lock = threading.Lock()

                def draw():
                    for _ in range(draws_per_thread):
                        value = client._jitter()
                        with draws_lock:
                            draws.append(value)

                workers = [threading.Thread(target=draw) for _ in range(threads_n)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=JOIN_TIMEOUT)
                    assert not worker.is_alive(), "jitter draw deadlocked"
        reference = random.Random(97)
        expected = sorted(reference.random() for _ in range(threads_n * draws_per_thread))
        assert sorted(draws) == expected


class TestDeterministicOverload:
    """Admission decisions pinned down with a runner blocked on an event."""

    @staticmethod
    def _blocking_optimizer(release, started):
        from repro.chase.optimizer import CBOptimizer

        class BlockingOptimizer(CBOptimizer):
            def optimize(self, query, **kwargs):
                started.set()
                assert release.wait(JOIN_TIMEOUT), "test never released the runner"
                return super().optimize(query, **kwargs)

        return BlockingOptimizer

    def test_in_process_rejection_is_synchronous_and_typed(self, monkeypatch):
        import repro.service.shard as shard_module

        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(
            shard_module, "CBOptimizer", self._blocking_optimizer(release, started)
        )
        workload = build_ec2(1, 3, 1)
        service = OptimizerService(
            shards=1, workers=1, max_inflight=1, max_queue_depth=1
        )
        try:
            first = service.submit(workload.query, catalog=workload.catalog)
            # The slot is taken the moment submit returns (the gauge counts
            # queued + executing), so the rejection is deterministic.
            with pytest.raises(ServiceOverloaded) as excinfo:
                service.submit(workload.query, catalog=workload.catalog)
            assert excinfo.value.shard == 0
            assert excinfo.value.queue_depth == 1
            stats = service.stats()
            assert stats.rejected == 1
            assert stats.queue_depth == 1
            release.set()
            assert first.result(timeout=JOIN_TIMEOUT).ok
            # Capacity is released after completion: the next request admits.
            assert service.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            ).ok
        finally:
            release.set()
            service.shutdown()

    def test_socket_rejection_is_typed(self, monkeypatch):
        import repro.service.shard as shard_module

        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(
            shard_module, "CBOptimizer", self._blocking_optimizer(release, started)
        )
        with OptimizerServer(
            shards=1, workers=1, max_inflight=1, max_queue_depth=1
        ) as server:
            with OptimizerClient(port=server.port) as client:
                blocked = client.submit(dict(EC2_REQUEST))
                assert started.wait(JOIN_TIMEOUT)
                shed = client.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                assert shed["status"] == "overloaded"
                assert shed["shard"] == 0
                release.set()
                assert blocked.result(timeout=JOIN_TIMEOUT)["status"] == "ok"
