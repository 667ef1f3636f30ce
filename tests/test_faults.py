"""Chaos suite: fault injection, supervision, snapshots, retry resilience.

The fault-tolerance contract of the serving layer, pinned down with the
deterministic :class:`~repro.service.faults.FaultInjector`:

* **Typed client failures.**  A malformed response line fails every pending
  future with :class:`~repro.errors.ProtocolError` (never a silently-dead
  reader thread); EOF/reset fails them with
  :class:`~repro.errors.ConnectionLost`.
* **Retry differential.**  With injected server read/write faults, a
  retrying client produces plan digests *identical* to a fault-free run —
  faults cost latency, never answers.
* **Shard supervision.**  A crashed runner resolves its request with a
  typed ``RunnerCrash`` (never a hung future), is replaced, and the gauges
  (``runner_failures``/``runner_restarts``) record it; silently-dead
  runners are restarted by the supervisor sweep.
* **Crash-safe snapshots.**  Corrupt/truncated/bit-flipped/stale/wrong-
  version snapshots are detected and degrade to a *counted* cold start;
  a failed write never harms the previous snapshot (atomic replace).
* **Crash-recovery differential** (subprocess): warm a server with periodic
  snapshotting, ``kill -9`` it, restart from the latest periodic snapshot —
  every plan digest matches a fresh single-shot run and the restart serves
  warm; a corrupted snapshot still boots (exit 0) with ``recoveries == 1``.
"""

import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import (
    ConnectionLost,
    InjectedCrash,
    InjectedFault,
    ProtocolError,
    ServiceOverloaded,
    SnapshotError,
)
from repro.service import (
    FaultInjector,
    OptimizerClient,
    OptimizerServer,
    OptimizerService,
    SnapshotManager,
)
from repro.service.protocol import overloaded_record, plan_digest
from repro.service.snapshots import read_snapshot
from repro.workloads import build_ec1, build_ec2

#: Generous bound for every join/wait in this module: a hang is a bug.
JOIN_TIMEOUT = 120.0

EC2_REQUEST = {
    "workload": "ec2",
    "params": {"stars": 1, "corners": 3, "views": 1},
    "strategy": "fb",
}


def _single_shot_digests(workload, strategy="fb"):
    result = workload.optimizer().optimize(workload.query, strategy=strategy)
    return plan_digest(result.plans)


# ---------------------------------------------------------------------- #
# the injector itself
# ---------------------------------------------------------------------- #
class TestFaultInjector:
    def test_deterministic_across_instances(self):
        """Same seed, same site, same opportunity -> same decision."""

        def pattern(seed):
            injector = FaultInjector(seed=seed).rule("server.read", probability=0.5)
            fired = []
            for _ in range(64):
                try:
                    injector.maybe_fail("server.read")
                    fired.append(False)
                except InjectedFault:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # and the seed actually matters

    def test_sites_draw_independent_streams(self):
        """One site's opportunities never shift another site's schedule."""
        lonely = FaultInjector(seed=3).rule("a", probability=0.5)
        noisy = FaultInjector(seed=3).rule("a", probability=0.5).rule("b", probability=0.5)

        def draw(injector, site):
            try:
                injector.maybe_fail(site)
                return False
            except InjectedFault:
                return True

        pattern_lonely = [draw(lonely, "a") for _ in range(32)]
        pattern_noisy = []
        for _ in range(32):
            draw(noisy, "b")  # interleave traffic on the other site
            pattern_noisy.append(draw(noisy, "a"))
        assert pattern_lonely == pattern_noisy

    def test_times_and_after_budget(self):
        injector = FaultInjector().rule("x", times=2, after=1)
        injector.maybe_fail("x")  # warm-up opportunity passes
        for _ in range(2):
            with pytest.raises(InjectedFault):
                injector.maybe_fail("x")
        injector.maybe_fail("x")  # budget exhausted: passes again
        assert injector.counters == {"x": 2}
        assert injector.opportunities == {"x": 4}
        assert injector.total_injected() == 2

    def test_crash_flavour_is_a_base_exception(self):
        injector = FaultInjector().rule("x", crash=True)
        with pytest.raises(InjectedCrash) as excinfo:
            injector.maybe_fail("x", detail="r1")
        assert not isinstance(excinfo.value, Exception)
        assert excinfo.value.site == "x"

    def test_from_spec(self):
        injector = FaultInjector.from_spec(
            "server.write:0.2:3, shard.execute!:1:1, snapshot.read", seed=7
        )
        rules = injector._rules
        assert rules["server.write"].probability == 0.2
        assert rules["server.write"].times == 3
        assert rules["shard.execute"].crash
        assert rules["snapshot.read"].times is None
        with pytest.raises(ValueError):
            FaultInjector.from_spec("a:b:c:d")

    def test_unruled_injector_is_inert(self):
        injector = FaultInjector()
        assert not injector
        injector.maybe_fail("anything")  # no rule, no failure


# ---------------------------------------------------------------------- #
# client: typed protocol failures (satellite: reader thread regression)
# ---------------------------------------------------------------------- #
class _ScriptedServer:
    """Accepts one connection, waits for N request lines, replies verbatim."""

    def __init__(self, payload, expect_lines=1):
        self.payload = payload
        self.expect_lines = expect_lines
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(1)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        conn, _ = self.listener.accept()
        conn.settimeout(JOIN_TIMEOUT)
        try:
            # Hold the reply until every expected request line arrived, so
            # all the client's futures are pending on *this* connection when
            # the scripted garbage lands (the client reconnects on loss).
            received = b""
            while received.count(b"\n") < self.expect_lines:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                received += chunk
            if self.payload:
                conn.sendall(self.payload)
        finally:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    def close(self):
        self.listener.close()
        self.thread.join(timeout=JOIN_TIMEOUT)


class TestClientProtocolFailures:
    def test_garbage_line_fails_all_pending_with_protocol_error(self):
        """Regression: a malformed response line used to be skipped, leaving
        the request's future pending forever on a live reader thread."""
        server = _ScriptedServer(b"this is { not json\n", expect_lines=2)
        try:
            with OptimizerClient(port=server.port) as client:
                first = client.submit({"id": "a", "op": "ping"})
                second = client.submit({"id": "b", "op": "ping"})
                with pytest.raises(ProtocolError):
                    first.result(timeout=JOIN_TIMEOUT)
                with pytest.raises(ProtocolError):
                    second.result(timeout=JOIN_TIMEOUT)
        finally:
            server.close()

    def test_non_object_response_is_a_protocol_error(self):
        server = _ScriptedServer(b"[1, 2, 3]\n")
        try:
            with OptimizerClient(port=server.port) as client:
                with pytest.raises(ProtocolError):
                    client.submit({"op": "ping"}).result(timeout=JOIN_TIMEOUT)
        finally:
            server.close()

    def test_eof_fails_pending_with_connection_lost(self):
        server = _ScriptedServer(b"")  # close without answering
        try:
            with OptimizerClient(port=server.port) as client:
                future = client.submit({"op": "ping"})
                with pytest.raises(ConnectionLost) as excinfo:
                    future.result(timeout=JOIN_TIMEOUT)
                # Compat: pre-existing callers catch ConnectionError.
                assert isinstance(excinfo.value, ConnectionError)
        finally:
            server.close()


# ---------------------------------------------------------------------- #
# client: retry / reconnect / deadline
# ---------------------------------------------------------------------- #
class TestClientResilience:
    def test_retry_differential_under_injected_faults(self):
        """Dropped responses and torn reads cost retries, never answers:
        plan digests with faults == plan digests without faults."""
        requests = [
            {"workload": "ec2", "params": {"stars": 1, "corners": 3, "views": 1}},
            {"workload": "ec1", "params": {"relations": 2, "secondary_indexes": 1}},
            {"workload": "ec2", "params": {"stars": 1, "corners": 3, "views": 1},
             "strategy": "oqf"},
        ]

        def run(fault_injector):
            with OptimizerServer(
                shards=1, workers=1, fault_injector=fault_injector
            ) as server:
                with OptimizerClient(
                    port=server.port,
                    retries=6,
                    backoff_base=0.01,
                    backoff_seed=0,
                ) as client:
                    responses = [
                        client.request(dict(record), timeout=JOIN_TIMEOUT)
                        for record in requests
                    ]
                    replays, reconnects = client.replays, client.reconnects
            assert [r["status"] for r in responses] == ["ok"] * len(requests)
            return [r["plan_digests"] for r in responses], replays, reconnects

        clean, clean_replays, _ = run(None)
        faults = (
            FaultInjector(seed=11)
            .rule("server.write", times=2)
            .rule("server.read", times=1, after=1)
        )
        chaotic, replays, reconnects = run(faults)
        assert chaotic == clean
        assert clean_replays == 0
        assert replays >= 3  # every injected fault cost a replay...
        assert reconnects >= 3  # ...over a fresh connection
        assert faults.counters == {"server.write": 2, "server.read": 1}

    def test_overloaded_retry_after_rides_the_protocol(self):
        record = overloaded_record(
            "r1", ServiceOverloaded("busy", shard=0, retry_after=0.25)
        )
        assert record["status"] == "overloaded"
        assert record["retry_after"] == 0.25

    def test_deadline_bounds_the_retry_loop(self):
        server = OptimizerServer(shards=1, workers=1)
        client = OptimizerClient(
            port=server.port,
            retries=50,
            backoff_base=0.05,
            deadline=0.5,
            backoff_seed=0,
        )
        try:
            server.stop()  # every attempt now fails; only the deadline stops us
            start = time.monotonic()
            with pytest.raises((ConnectionError, TimeoutError)):
                client.request(dict(EC2_REQUEST))
            assert time.monotonic() - start < 10.0
        finally:
            client.close()
            server.stop()


# ---------------------------------------------------------------------- #
# shard supervision
# ---------------------------------------------------------------------- #
class TestShardSupervision:
    def test_runner_crash_resolves_request_and_restarts_runner(self):
        workload = build_ec2(1, 3, 1)
        faults = FaultInjector().rule("shard.execute", times=1, crash=True)
        with OptimizerService(
            shards=1, workers=1, max_inflight=1, fault_injector=faults
        ) as service:
            crashed = service.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            )
            # Never a hung future: the victim resolves with a typed record.
            assert not crashed.ok
            assert crashed.error_type == "RunnerCrash"
            assert "runner died" in crashed.error
            # The shard healed: the next request executes normally and its
            # plans are exactly the single-shot plans.
            healed = service.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            )
            assert healed.ok
            assert plan_digest(healed.result.plans) == _single_shot_digests(workload)
            stats = service.stats()
        assert stats.runner_failures == 1
        assert stats.runner_restarts >= 1
        assert stats.queue_depth == 0  # the crashed request released its slot
        assert stats.requests == 2
        assert stats.errors == 1

    def test_crash_surfaces_as_typed_error_over_the_socket(self):
        faults = FaultInjector().rule("shard.execute", times=1, crash=True)
        with OptimizerServer(
            shards=1, workers=1, max_inflight=1, fault_injector=faults
        ) as server:
            with OptimizerClient(port=server.port) as client:
                crashed = client.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                assert crashed["status"] == "error"
                assert crashed["error_type"] == "RunnerCrash"
                healed = client.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                assert healed["status"] == "ok"
                stats = client.stats()
        assert stats["runner_failures"] == 1
        assert stats["runner_restarts"] >= 1

    def test_supervisor_sweep_restarts_a_silently_dead_runner(self):
        from repro.service.shard import _SHUTDOWN, Shard

        shard = Shard(0, workers=1, max_inflight=2, supervisor_interval=0.05)
        try:
            # Kill one runner without letting it report (it just exits).
            shard._tasks.put(_SHUTDOWN)
            deadline = time.monotonic() + JOIN_TIMEOUT
            while time.monotonic() < deadline:
                with shard._lock:
                    alive = sum(runner.is_alive() for runner in shard._runners)
                if shard.stats().runner_restarts >= 1 and alive == 2:
                    break
                time.sleep(0.02)
            stats = shard.stats()
            assert stats.runner_restarts >= 1
            assert stats.runner_failures == 0  # nothing was in flight
        finally:
            shard.shutdown()

    def test_sweep_racing_shutdown_strands_no_runner(self):
        """A sweep whose wait timed out just as shutdown began must not
        replace runners that exited on their shutdown sentinel: the
        replacement would take a busy runner's sentinel, and that runner
        would block forever (shutdown's join then waits out its timeout)."""
        from repro.service.shard import Shard

        class LateStop(threading.Event):
            def wait(self, timeout=None):
                time.sleep(timeout)
                return False  # timed out "just before" the flag was set

        started, release, done = threading.Event(), threading.Event(), threading.Event()

        class BlockingRequest:
            request_id, strategy = "blocker", "fb"

            def resolved_constraints(self):
                started.set()
                release.wait(JOIN_TIMEOUT)
                raise RuntimeError("released")

        shard = Shard(0, workers=1, max_inflight=2, supervisor_interval=0.01)
        shard._stopping = LateStop()
        with shard._lock:
            runners = list(shard._runners)
        shard.submit(BlockingRequest(), lambda *outcome: done.set())
        assert started.wait(JOIN_TIMEOUT)
        shard.shutdown(wait=False)
        # The idle runner exits on its sentinel while the busy one's waits
        # in the queue; give the sweep time to (wrongly) replace it.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and all(r.is_alive() for r in runners):
            time.sleep(0.01)
        time.sleep(0.1)
        release.set()
        for runner in runners:
            runner.join(10.0)
        shard._supervisor.join(10.0)
        assert done.is_set()
        assert not any(runner.is_alive() for runner in runners)
        assert not shard._supervisor.is_alive()
        assert shard.stats().runner_restarts == 0


# ---------------------------------------------------------------------- #
# snapshots: corruption, staleness, atomicity
# ---------------------------------------------------------------------- #
def _save_warm_snapshot(path):
    """Run one request through a service and snapshot it; returns digests."""
    workload = build_ec2(1, 3, 1)
    with OptimizerService(shards=1, workers=1) as service:
        response = service.submit(workload.query, catalog=workload.catalog).result(
            timeout=JOIN_TIMEOUT
        )
        response.raise_for_error()
        saved = service.save_caches(path)
    assert saved == 1
    return plan_digest(response.result.plans)


class TestSnapshotRobustness:
    def test_corrupt_snapshot_degrades_to_counted_cold_start(self, tmp_path):
        path = tmp_path / "warm.snap"
        path.write_bytes(b"\x00garbage, definitely not a snapshot")
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=1) as service:
            restored, error = service.recover_caches(path)
            assert restored == 0
            assert isinstance(error, SnapshotError)
            assert error.reason == "corrupt"
            # The service is perfectly serviceable cold.
            response = service.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            )
            assert response.ok
            stats = service.stats()
        assert stats.recoveries == 1
        assert stats.snapshots_loaded == 0

    def test_truncated_snapshot_is_detected(self, tmp_path):
        path = tmp_path / "warm.snap"
        _save_warm_snapshot(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason in ("corrupt", "checksum")

    def test_checksum_catches_a_flipped_payload_bit(self, tmp_path):
        path = tmp_path / "warm.snap"
        _save_warm_snapshot(path)
        envelope = pickle.loads(path.read_bytes())
        payload = bytearray(envelope["payload"])
        payload[len(payload) // 2] ^= 0xFF
        envelope["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "checksum"

    def test_unsupported_version_is_typed(self, tmp_path):
        path = tmp_path / "warm.snap"
        _save_warm_snapshot(path)
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = 99
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(SnapshotError) as excinfo:
            read_snapshot(path)
        assert excinfo.value.reason == "version"

    def test_stale_constraint_signature_skips_the_session(self, tmp_path):
        """A session whose constraints changed since the snapshot was taken
        must cold-start, never serve fixpoints computed under old rules."""
        path = tmp_path / "warm.snap"
        _save_warm_snapshot(path)
        envelope = pickle.loads(path.read_bytes())
        envelope["manifest"]["sessions"][0]["constraints_digest"] = "0" * 64
        path.write_bytes(pickle.dumps(envelope))
        # File-level validation still passes; the session itself is stale.
        _, entries = read_snapshot(path)
        assert [stale for _, stale in entries] == [True]
        with OptimizerService(shards=1, workers=1) as service:
            restored, error = service.recover_caches(path)
            assert (restored, error) == (0, None)
            stats = service.stats()
        assert stats.stale_sessions == 1
        assert stats.recoveries == 0  # the file was fine; only the session was stale

    def test_failed_write_leaves_previous_snapshot_intact(self, tmp_path):
        path = tmp_path / "warm.snap"
        _save_warm_snapshot(path)
        before = path.read_bytes()
        workload = build_ec1(2, 1)
        faults = FaultInjector().rule("snapshot.write")
        with OptimizerService(shards=1, workers=1) as service:
            service.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            )
            with pytest.raises(SnapshotError) as excinfo:
                service.save_caches(path, faults=faults)
        assert excinfo.value.reason == "io"
        assert path.read_bytes() == before  # atomic: old snapshot untouched
        assert not list(tmp_path.glob("*.tmp-*"))  # no litter either

    def test_legacy_v1_snapshot_still_loads(self, tmp_path):
        """PR 5 bare-pickle snapshots (no manifest) remain readable."""
        path = tmp_path / "warm.snap"
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=1) as saving:
            saving.submit(workload.query, catalog=workload.catalog).result(
                timeout=JOIN_TIMEOUT
            ).raise_for_error()
            sessions = []
            for shard in saving._shards:
                for signature, label, registry, memo in shard.export_sessions():
                    sessions.append(
                        {"signature": signature, "label": label,
                         "registry": registry, "memo": memo}
                    )
        path.write_bytes(pickle.dumps({"version": 1, "sessions": sessions}))
        with OptimizerService(shards=1, workers=1) as restarted:
            assert restarted.load_caches(path) == 1
            response = restarted.submit(
                workload.query, catalog=workload.catalog
            ).result(timeout=JOIN_TIMEOUT)
            assert response.ok
            stats = restarted.stats()
        assert stats.cache_misses == 0  # served warm from the legacy snapshot


class TestSnapshotManager:
    def _warm_service(self):
        workload = build_ec2(1, 3, 1)
        service = OptimizerService(shards=1, workers=1)
        service.submit(workload.query, catalog=workload.catalog).result(
            timeout=JOIN_TIMEOUT
        ).raise_for_error()
        return service

    def test_periodic_loop_snapshots_without_a_shutdown(self, tmp_path):
        path = tmp_path / "warm.snap"
        service = self._warm_service()
        try:
            manager = SnapshotManager(service, path, interval=0.05).start()
            deadline = time.monotonic() + JOIN_TIMEOUT
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            manager.stop(final_save=False)
            assert manager.snapshots_written >= 1
            _, entries = read_snapshot(path)
            assert len(entries) == 1
        finally:
            service.shutdown()

    def test_trigger_without_a_loop_saves_synchronously(self, tmp_path):
        path = tmp_path / "warm.snap"
        service = self._warm_service()
        try:
            manager = SnapshotManager(service, path)  # no interval, no loop
            manager.trigger()
            assert path.exists()
            assert manager.stats()["snapshots_written"] == 1
        finally:
            service.shutdown()

    @pytest.mark.skipif(not hasattr(signal, "SIGUSR1"), reason="needs SIGUSR1")
    def test_sigusr1_triggers_a_snapshot(self, tmp_path):
        path = tmp_path / "warm.snap"
        service = self._warm_service()
        manager = SnapshotManager(service, path)
        try:
            manager.install_signal_handler()
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.monotonic() + JOIN_TIMEOUT
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert path.exists()
        finally:
            manager.restore_signal_handler()
            service.shutdown()

    def test_snapshots_while_serving_never_fail_or_tear(self, tmp_path):
        # Regression: sessions are pickled live while runners keep inserting
        # into the caches.  Before the locked-copy __getstate__ fixes, the
        # pickle walk raised "OrderedDict mutated during iteration" — an
        # exception SnapshotManager.save() did not catch, so the periodic
        # loop thread died silently and no snapshot was ever taken again.
        path = tmp_path / "warm.snap"
        mixes = [build_ec1(2, 1), build_ec2(1, 3, 1), build_ec1(3, 0)]
        with OptimizerService(shards=1, workers=2, max_inflight=4) as service:
            stop = threading.Event()
            failures = []

            def snapshot_hammer():
                while not stop.is_set():
                    try:
                        service.save_caches(path)
                    except Exception as error:  # noqa: BLE001 - the assertion
                        failures.append(error)
                        return

            hammer = threading.Thread(target=snapshot_hammer, daemon=True)
            hammer.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not failures:
                futures = [
                    service.submit(w.query, strategy="fb", catalog=w.catalog)
                    for w in mixes
                ]
                for future in futures:
                    future.result(timeout=JOIN_TIMEOUT).raise_for_error()
            stop.set()
            hammer.join(timeout=JOIN_TIMEOUT)
        assert not failures, f"concurrent snapshot failed: {failures[0]!r}"
        # The last snapshot written mid-traffic is complete and loadable.
        with OptimizerService(shards=1, workers=1) as restarted:
            restored, error = restarted.recover_caches(path)
            assert error is None
            assert restored >= 1

    def test_failed_saves_are_counted_and_reported_never_raised(self, tmp_path):
        path = tmp_path / "warm.snap"
        service = self._warm_service()
        try:
            seen = []
            manager = SnapshotManager(
                service,
                path,
                faults=FaultInjector().rule("snapshot.write"),
                on_error=seen.append,
            )
            assert manager.save() is None
            assert manager.snapshot_failures == 1
            assert manager.snapshots_written == 0
            assert manager.last_error is not None
            assert len(seen) == 1 and isinstance(seen[0], SnapshotError)
        finally:
            service.shutdown()


# ---------------------------------------------------------------------- #
# admission recovery (satellite): overload burst -> drain -> accept again
# ---------------------------------------------------------------------- #
class TestAdmissionRecovery:
    @staticmethod
    def _blocking_optimizer(release, started):
        from repro.chase.optimizer import CBOptimizer

        class BlockingOptimizer(CBOptimizer):
            def optimize(self, query, **kwargs):
                started.set()
                assert release.wait(JOIN_TIMEOUT), "test never released the runner"
                return super().optimize(query, **kwargs)

        return BlockingOptimizer

    def test_shard_accepts_again_after_an_overload_burst(self, monkeypatch):
        import repro.service.shard as shard_module

        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(
            shard_module, "CBOptimizer", self._blocking_optimizer(release, started)
        )
        workload = build_ec2(1, 3, 1)
        expected = _single_shot_digests(workload)
        burst = 3
        with OptimizerServer(
            shards=1, workers=1, max_inflight=1, max_queue_depth=1
        ) as server:
            with OptimizerClient(port=server.port) as plain:
                blocked = plain.submit(dict(EC2_REQUEST))
                assert started.wait(JOIN_TIMEOUT)
                # Burst past admission: every extra request sheds, typed.
                shed = [
                    plain.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                    for _ in range(burst)
                ]
                assert [r["status"] for r in shed] == ["overloaded"] * burst
                # A retrying client parks on the overload; once the runner
                # drains, the shard accepts again and serves the real plans.
                with OptimizerClient(
                    port=server.port, retries=50, backoff_base=0.01, backoff_seed=0
                ) as retrying:
                    threading.Timer(0.25, release.set).start()
                    retried = retrying.request(dict(EC2_REQUEST), timeout=JOIN_TIMEOUT)
                    assert retried["status"] == "ok"
                    assert retried["plan_digests"] == expected
                    overload_replays = retrying.replays
                assert blocked.result(timeout=JOIN_TIMEOUT)["status"] == "ok"
                stats = plain.stats()
        # Exact reconciliation: executed = blocked + retried; every shed
        # response a client saw (including the retrier's failed attempts)
        # was counted as a rejection exactly once.
        assert stats["requests"] == 2
        assert stats["rejected"] == burst + overload_replays
        assert stats["errors"] == 0
        assert stats["queue_peak"] == 1
        assert stats["queue_depth"] == 0


# ---------------------------------------------------------------------- #
# crash-recovery differential (subprocess kill -9) — acceptance criterion
# ---------------------------------------------------------------------- #
REPO_ROOT = Path(__file__).resolve().parents[1]

CRASH_MIX = [
    {"id": "q1", "workload": "ec2", "params": {"stars": 1, "corners": 3, "views": 1}},
    {"id": "q2", "workload": "ec1", "params": {"relations": 2, "secondary_indexes": 1}},
    {"id": "q3", "workload": "ec2", "params": {"stars": 1, "corners": 3, "views": 1},
     "strategy": "oqf"},
]


class TestCrashRecoveryDifferential:
    def _spawn_server(self, tmp_path, snapshot, interval="0.2"):
        port_file = tmp_path / "port"
        if port_file.exists():
            port_file.unlink()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file),
                "--snapshot", str(snapshot), "--snapshot-interval", interval,
                "--shards", "1", "--max-inflight", "1",
            ],
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + JOIN_TIMEOUT
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise AssertionError(
                    f"server died at boot: {process.communicate()[1]}"
                )
            if port_file.exists() and port_file.read_text().strip():
                return process, int(port_file.read_text().strip())
            time.sleep(0.02)
        process.kill()
        raise AssertionError("server never wrote its port file")

    def test_kill_nine_restart_replays_identically_and_warm(self, tmp_path):
        snapshot = tmp_path / "warm.snap"
        fresh = {
            record["id"]: _single_shot_digests(
                build_ec1(**record["params"])
                if record["workload"] == "ec1"
                else build_ec2(**record["params"]),
                record.get("strategy", "fb"),
            )
            for record in CRASH_MIX
        }

        # Life 1: warm the server, let the periodic loop snapshot, kill -9.
        process, port = self._spawn_server(tmp_path, snapshot)
        try:
            with OptimizerClient(port=port, retries=3, backoff_base=0.05) as client:
                for record in CRASH_MIX:
                    response = client.request(dict(record), timeout=JOIN_TIMEOUT)
                    assert response["status"] == "ok"
                    assert response["plan_digests"] == fresh[record["id"]]
            warmed_at = time.time()
            deadline = time.monotonic() + JOIN_TIMEOUT
            # Wait for a periodic snapshot *started* after the warm-up, so
            # the latest snapshot provably contains every complete session.
            # One fresh mtime is not enough: a save that began mid-request
            # (exporting a partially-warm session) can finish — and stamp its
            # rename — after warmed_at.  Saves are serialized, so a snapshot
            # strictly newer than one renamed at/after warmed_at must have
            # begun after the warm-up finished.
            first_fresh = None
            while time.monotonic() < deadline:
                if snapshot.exists():
                    mtime = os.path.getmtime(snapshot)
                    if first_fresh is None:
                        if mtime >= warmed_at:
                            first_fresh = mtime
                    elif mtime > first_fresh:
                        break
                time.sleep(0.05)
            else:
                raise AssertionError(
                    "no post-warm-up periodic snapshot within the deadline"
                )
            process.send_signal(signal.SIGKILL)  # no drain, no final save
            process.wait(timeout=JOIN_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()

        # Life 2: restart from the latest periodic snapshot; the replay is
        # digest-identical to fresh single-shot runs and fully warm.
        process, port = self._spawn_server(tmp_path, snapshot)
        try:
            with OptimizerClient(port=port, retries=3, backoff_base=0.05) as client:
                for record in CRASH_MIX:
                    response = client.request(dict(record), timeout=JOIN_TIMEOUT)
                    assert response["status"] == "ok"
                    assert response["plan_digests"] == fresh[record["id"]]
                stats = client.stats()
            assert stats["snapshots_loaded"] == 1
            assert stats["recoveries"] == 0
            assert stats["cache_misses"] == 0, "crash restart was not warm"
            assert stats["cache_hits"] > 0
            process.terminate()  # graceful SIGTERM drain
            _, stderr = process.communicate(timeout=JOIN_TIMEOUT)
            assert process.returncode == 0, stderr
        finally:
            if process.poll() is None:
                process.kill()

    def test_corrupted_snapshot_boots_cold_with_exit_zero(self, tmp_path):
        snapshot = tmp_path / "warm.snap"
        snapshot.write_bytes(b"\x80\x04 definitely torn")
        process, port = self._spawn_server(tmp_path, snapshot)
        try:
            with OptimizerClient(port=port) as client:
                assert client.ping(timeout=JOIN_TIMEOUT)
                response = client.request(dict(CRASH_MIX[0]), timeout=JOIN_TIMEOUT)
                assert response["status"] == "ok"
                stats = client.stats()
            assert stats["recoveries"] == 1
            assert stats["snapshots_loaded"] == 0
            process.terminate()
            _, stderr = process.communicate(timeout=JOIN_TIMEOUT)
            assert process.returncode == 0, stderr
            assert "starting cold" in stderr
        finally:
            if process.poll() is None:
                process.kill()
