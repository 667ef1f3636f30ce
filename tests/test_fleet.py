"""Fleet layer: consistent-hash routing, sync exchange, shared snapshot store.

The differential discipline of :mod:`tests.test_differential` extended to
the fleet: a router in front of N backend servers must be *invisible* —
identical plan-set digests to a fresh single-shot run for every request —
while the behaviours that make a fleet worth running stay observable:

* ``overloaded`` responses are re-routed to the next replica on the ring,
  not shed (and shed only when *every* backend rejects);
* a dead backend fails over and flips the health gauge, never an error to
  the client while a replica lives;
* the ``sync`` exchange moves chase-cache entries and containment verdicts
  between processes, guarded by the structural constraint digest — a
  tampered digest is rejected whole;
* the shared snapshot store warms a *fresh* process from any fleet
  member's saves, degrading per file on corruption.

Plus the routing-identity regressions this PR fixes: constraint sets whose
names collide but whose bodies differ must never alias (shard index,
session label, ring placement), and a server's ``retry_after`` hint must be
honoured exactly rather than clamped into the jitter schedule.
"""

import random
import threading
import time

import pytest

from repro.chase.implication import constraints_digest
from repro.schema.constraints import Dependency
from repro.service import OptimizerClient, OptimizerServer, OptimizerService
from repro.service.fleet import (
    FleetRouter,
    HashRing,
    SnapshotStore,
    StoreSaver,
    SyncExchanger,
    parse_backend,
)
from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest
from repro.service.shard import session_label, shard_index
from repro.service.snapshots import SnapshotManager
from repro.workloads import build_ec2

#: Generous bound for every join/wait in this module: a hang is a bug.
JOIN_TIMEOUT = 120.0

#: The differential request mix (mirrors tests/test_differential.py): every
#: workload family and every strategy, small enough to run twice.
MIX = [
    ("ec1", {"relations": 2, "secondary_indexes": 1}, "fb"),
    ("ec1", {"relations": 3, "secondary_indexes": 0}, "ocs"),
    ("ec2", {"stars": 1, "corners": 3, "views": 1}, "fb"),
    ("ec2", {"stars": 1, "corners": 3, "views": 2}, "oqf"),
    ("ec3", {"classes": 3, "asrs": 0}, "fb"),
    ("ec3", {"classes": 3, "asrs": 1}, "ocs"),
]

EC2_REQUEST = {
    "workload": "ec2",
    "params": {"stars": 1, "corners": 3, "views": 1},
    "strategy": "fb",
}


def _mix_records(rounds=1):
    records = []
    for round_index in range(rounds):
        for index, (name, params, strategy) in enumerate(MIX):
            records.append(
                {
                    "id": f"m{round_index}-{index}",
                    "workload": name,
                    "params": dict(params),
                    "strategy": strategy,
                }
            )
    return records


def _single_shot_digests(rounds=1):
    digests = []
    for _ in range(rounds):
        for name, params, strategy in MIX:
            builder, _ = WORKLOAD_BUILDERS[name]
            workload = builder(**params)
            result = workload.optimizer().optimize(workload.query, strategy=strategy)
            digests.append(plan_digest(result.plans))
    return digests


def _offline_client(backoff_base=0.05, backoff_max=2.0, backoff_seed=0):
    """An :class:`OptimizerClient` with no socket, for the pure backoff math.

    ``__init__`` dials the server eagerly; the delay schedule
    (:meth:`_next_delay` / :meth:`_jitter`) only touches these attributes.
    """
    client = OptimizerClient.__new__(OptimizerClient)
    client.backoff_base = backoff_base
    client.backoff_max = backoff_max
    client._rng = random.Random(backoff_seed)
    client._rng_lock = threading.Lock()
    return client


# ---------------------------------------------------------------------- #
# the routing-identity bugfix: structural digests, not sorted names
# ---------------------------------------------------------------------- #
class TestRoutingIdentity:
    """Same constraint *names*, different *bodies* — must never alias."""

    @staticmethod
    def _same_name_different_body():
        first = [
            Dependency.parse(
                "DEP", "forall r in R implies exists s in S where s.A = r.A"
            )
        ]
        second = [
            Dependency.parse(
                "DEP", "forall r in R implies exists t in T where t.B = r.B"
            )
        ]
        return first, second

    def test_structural_digests_differ(self):
        first, second = self._same_name_different_body()
        assert constraints_digest(first) != constraints_digest(second)

    def test_shard_index_is_digest_based(self):
        """The placement hash is the structural digest's leading bits —
        the pre-fleet name-only hash sent both sets to the same shard and
        (worse) the same fleet session."""
        first, second = self._same_name_different_body()
        for constraints in (first, second):
            expected = int(constraints_digest(constraints)[:16], 16)
            for shard_count in (1, 2, 3, 7, 1024):
                assert shard_index(constraints, shard_count) == expected % shard_count
        # With a wide modulus the two sets land apart (aliasing would put
        # re-routed traffic and exchanged state under one identity).
        assert shard_index(first, 1 << 60) != shard_index(second, 1 << 60)

    def test_session_labels_differ(self):
        first, second = self._same_name_different_body()
        label_first, label_second = session_label(first), session_label(second)
        assert label_first != label_second
        assert label_first.startswith("1c-")
        assert label_first == f"1c-{constraints_digest(first)[:8]}"

    def test_ring_placement_keys_off_the_structural_digest(self):
        first, second = self._same_name_different_body()
        ring = HashRing(["a:1", "b:2", "c:3", "d:4"], replicas=64)
        preference_first = ring.preference(constraints_digest(first))
        preference_second = ring.preference(constraints_digest(second))
        # Distinct digests get independent walks; equal digests identical ones.
        assert preference_first == ring.preference(constraints_digest(first))
        assert set(preference_first) == set(preference_second) == {"a:1", "b:2", "c:3", "d:4"}
        assert preference_first != preference_second


# ---------------------------------------------------------------------- #
# the backoff bugfixes: exact retry_after hints, locked jitter RNG
# ---------------------------------------------------------------------- #
class TestBackoffHints:
    def test_retry_after_hint_is_honoured_exactly(self):
        """A hint above ``backoff_max`` must not be clamped or jittered —
        clamping made the client come back *earlier* than the overloaded
        server asked, re-hammering the very shard that shed it."""
        client = _offline_client(backoff_base=0.05, backoff_max=2.0)
        assert client._next_delay(0, suggested=10.0) == 10.0
        assert client._next_delay(7, suggested=10.0) == 10.0  # attempt-independent
        assert client._next_delay(0, suggested=0.125) == 0.125  # below the cap too
        assert client._next_delay(0, suggested=-1.0) == 0.0  # garbage clamps to now

    def test_hint_is_deterministic_across_draws(self):
        """The hint path must not consume (or depend on) the jitter stream."""
        first = _offline_client(backoff_seed=1)
        second = _offline_client(backoff_seed=2)
        assert first._next_delay(3, suggested=5.5) == second._next_delay(3, suggested=5.5)
        # And it must not advance the RNG: computed backoff stays aligned.
        reference = _offline_client(backoff_seed=1)
        first._next_delay(0, suggested=9.0)
        assert first._next_delay(1) == reference._next_delay(1)

    def test_computed_backoff_stays_capped_and_jittered(self):
        client = _offline_client(backoff_base=0.05, backoff_max=2.0)
        for attempt in range(10):
            delay = client._next_delay(attempt)
            base = min(2.0, 0.05 * (2**attempt))
            assert base <= delay <= base * 1.25

    def test_deadline_still_bounds_a_long_hint(self):
        """The one legitimate cap on a hint: the caller's own deadline."""
        client = _offline_client()
        give_up_at = time.monotonic() + 0.05
        start = time.monotonic()
        assert client._backoff(0, give_up_at, suggested=30.0) is False
        assert time.monotonic() - start < 1.0  # refused, not slept


class TestJitterRngLocking:
    def test_concurrent_draws_are_serialised(self):
        """8 threads share one client's jitter RNG; with the per-RNG lock
        the draws are exactly the seeded sequence (in some order) — an
        unlocked ``random.Random`` can tear its internal state instead."""
        client = _offline_client(backoff_seed=1234)
        draws = []
        draws_lock = threading.Lock()

        def worker():
            for _ in range(200):
                value = client._jitter()
                with draws_lock:
                    draws.append(value)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive()
        reference = random.Random(1234)
        expected = sorted(reference.random() for _ in range(8 * 200))
        assert sorted(draws) == expected


# ---------------------------------------------------------------------- #
# membership: backend specs and the consistent-hash ring
# ---------------------------------------------------------------------- #
class TestMembership:
    def test_parse_backend(self):
        assert parse_backend("example.org:7411") == ("example.org", 7411)
        assert parse_backend(":7411") == ("127.0.0.1", 7411)
        for bad in ("nope", "host:", "host:abc", ""):
            with pytest.raises(ValueError):
                parse_backend(bad)

    def test_ring_routes_deterministically_and_covers_all_backends(self):
        names = ["a:1", "b:2", "c:3"]
        ring = HashRing(names, replicas=64)
        keys = [constraints_digest([f"k{i}"]) for i in range(64)]
        for key in keys:
            preference = ring.preference(key)
            assert preference[0] == ring.route(key)
            assert sorted(preference) == sorted(names)  # all, distinct
            assert preference == ring.preference(key)  # memoised + stable
        assert len({ring.route(key) for key in keys}) == len(names)  # spread

    def test_membership_change_only_moves_keys_to_the_new_backend(self):
        """The consistent-hashing contract: adding a replica never shuffles
        keys *between* surviving backends — the moved keys all land on the
        newcomer, so the rest of the fleet keeps its warm sessions."""
        names = ["a:1", "b:2", "c:3"]
        before = HashRing(names, replicas=64)
        after = HashRing(names + ["d:4"], replicas=64)
        moved = 0
        for i in range(256):
            key = constraints_digest([f"k{i}"])
            if before.route(key) != after.route(key):
                moved += 1
                assert after.route(key) == "d:4"
        assert 0 < moved < 256  # the newcomer took some keys, not all

    def test_ring_rejects_empty_membership(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a:1"], replicas=0)


# ---------------------------------------------------------------------- #
# the fleet differential: a router in front of N backends is invisible
# ---------------------------------------------------------------------- #
class TestFleetDifferential:
    def test_routed_fleet_matches_single_shot(self):
        """Cold + warm rounds of the full mix through router + 2 backends:
        identical plan-set digests to the single-shot reference, every
        request routed (none shed, none errored), and the per-backend
        spread is exactly what the ring dictates."""
        reference = _single_shot_digests(rounds=2)
        records = _mix_records(rounds=2)
        with OptimizerServer(shards=1, workers=2) as server_a:
            with OptimizerServer(shards=1, workers=2) as server_b:
                backends = [
                    f"127.0.0.1:{server_a.port}",
                    f"127.0.0.1:{server_b.port}",
                ]
                with FleetRouter(backends) as router:
                    with OptimizerClient(port=router.port) as client:
                        responses = client.request_many(records, timeout=JOIN_TIMEOUT)
                    stats = router.stats()
                    expected_primary = {}
                    for name, params, _strategy in MIX:
                        builder, _ = WORKLOAD_BUILDERS[name]
                        workload = builder(**params)
                        digest = constraints_digest(workload.catalog.constraints())
                        expected_primary[digest] = router.ring.route(digest)
        assert [response["status"] for response in responses] == ["ok"] * len(records)
        assert [response["id"] for response in responses] == [r["id"] for r in records]
        assert [response["plan_digests"] for response in responses] == reference
        assert stats.requests == stats.routed == len(records)
        assert stats.shed == stats.errors == stats.failovers == 0
        assert stats.backends == stats.backends_healthy == 2
        # Placement is a pure function of the structural digest: with 6
        # distinct catalogs the ring spreads sessions over both backends.
        assert len(set(expected_primary.values())) == 2

    def test_router_stats_and_ping_ops_answered_locally(self):
        with OptimizerServer(shards=1, workers=1) as server:
            with FleetRouter([f"127.0.0.1:{server.port}"]) as router:
                with OptimizerClient(port=router.port) as client:
                    assert client.ping()
                    stats = client.stats()
        assert stats["backends"] == 1
        assert "routed" in stats and "rerouted" in stats and "shed" in stats

    def test_invalid_request_stops_at_the_router_edge(self):
        with OptimizerServer(shards=1, workers=1) as server:
            with FleetRouter([f"127.0.0.1:{server.port}"]) as router:
                with OptimizerClient(port=router.port) as client:
                    response = client.request(
                        {"id": "bad", "workload": "nope"}, timeout=JOIN_TIMEOUT
                    )
                stats = router.stats()
        assert response["status"] == "error"
        assert stats.errors == 1
        assert stats.routed == 0  # never burned a backend hop


# ---------------------------------------------------------------------- #
# overload re-routing and failover
# ---------------------------------------------------------------------- #
class TestOverloadReroute:
    @staticmethod
    def _blocking_optimizer(release, started):
        from repro.chase.optimizer import CBOptimizer

        class BlockingOptimizer(CBOptimizer):
            def optimize(self, query, **kwargs):
                started.set()
                assert release.wait(JOIN_TIMEOUT), "test never released the runner"
                return super().optimize(query, **kwargs)

        return BlockingOptimizer

    def test_overloaded_primary_reroutes_to_replica(self, monkeypatch):
        """Primary at capacity: the second request of the same catalog is
        re-routed to the replica and *succeeds* — the single-server
        behaviour (a typed shed) becomes a routed request."""
        import repro.service.shard as shard_module

        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(
            shard_module, "CBOptimizer", self._blocking_optimizer(release, started)
        )
        bounds = dict(shards=1, workers=1, max_inflight=1, max_queue_depth=1)
        try:
            with OptimizerServer(**bounds) as server_a:
                with OptimizerServer(**bounds) as server_b:
                    backends = [
                        f"127.0.0.1:{server_a.port}",
                        f"127.0.0.1:{server_b.port}",
                    ]
                    with FleetRouter(backends) as router:
                        with OptimizerClient(port=router.port) as client:
                            first = client.submit(dict(EC2_REQUEST, id="f1"))
                            assert started.wait(JOIN_TIMEOUT)
                            # Same catalog -> same primary; its one slot is
                            # taken, so the router must hop to the replica.
                            second = client.submit(dict(EC2_REQUEST, id="f2"))
                            # Hold the primary's slot until the hop actually
                            # happened — releasing earlier would race the
                            # second request into the freed slot.
                            deadline = time.monotonic() + JOIN_TIMEOUT
                            while (
                                router.stats().rerouted < 1
                                and time.monotonic() < deadline
                            ):
                                time.sleep(0.01)
                            assert router.stats().rerouted == 1
                            release.set()
                            first_response = first.result(timeout=JOIN_TIMEOUT)
                            second_response = second.result(timeout=JOIN_TIMEOUT)
                        stats = router.stats()
        finally:
            release.set()
        assert first_response["status"] == "ok"
        assert second_response["status"] == "ok"
        assert first_response["plan_digests"] == second_response["plan_digests"]
        assert stats.routed == 2
        assert stats.rerouted == 1  # exactly the second request's extra hop
        assert stats.shed == 0

    def test_all_backends_overloaded_sheds_with_hint_intact(self, monkeypatch):
        """Only when *every* backend rejects does the router shed — and the
        last ``retry_after`` hint rides through so clients back off right."""
        import repro.service.shard as shard_module

        release, started = threading.Event(), threading.Event()
        monkeypatch.setattr(
            shard_module, "CBOptimizer", self._blocking_optimizer(release, started)
        )
        try:
            with OptimizerServer(
                shards=1,
                workers=1,
                max_inflight=1,
                max_queue_depth=1,
                overload_retry_after=0.25,
            ) as server:
                with FleetRouter([f"127.0.0.1:{server.port}"]) as router:
                    with OptimizerClient(port=router.port) as client:
                        blocked = client.submit(dict(EC2_REQUEST, id="b1"))
                        assert started.wait(JOIN_TIMEOUT)
                        shed = client.request(
                            dict(EC2_REQUEST, id="b2"), timeout=JOIN_TIMEOUT
                        )
                        release.set()
                        assert blocked.result(timeout=JOIN_TIMEOUT)["status"] == "ok"
                    stats = router.stats()
        finally:
            release.set()
        assert shed["status"] == "overloaded"
        assert shed["retry_after"] == 0.25
        assert shed["id"] == "b2"
        assert stats.shed == 1

    def test_dead_backend_fails_over_and_flips_health(self):
        with OptimizerServer(shards=1, workers=2) as server_a:
            with OptimizerServer(shards=1, workers=2) as server_b:
                servers = {
                    f"127.0.0.1:{server_a.port}": server_a,
                    f"127.0.0.1:{server_b.port}": server_b,
                }
                with FleetRouter(list(servers)) as router:
                    workload = build_ec2(1, 3, 1)
                    digest = constraints_digest(workload.catalog.constraints())
                    primary = router.ring.route(digest)
                    servers[primary].stop()  # kill exactly the primary
                    with OptimizerClient(port=router.port) as client:
                        response = client.request(
                            dict(EC2_REQUEST, id="x1"), timeout=JOIN_TIMEOUT
                        )
                    stats = router.stats()
                    ready, detail = router.readiness()
        assert response["status"] == "ok"  # the replica answered
        assert stats.failovers >= 1
        assert stats.routed == 1
        assert stats.backends_healthy == 1
        assert ready and detail["healthy"] == 1

    def test_no_backend_alive_is_a_typed_error_and_not_ready(self):
        server = OptimizerServer(shards=1, workers=1)
        name = f"127.0.0.1:{server.port}"
        server.stop()
        with FleetRouter([name]) as router:
            with OptimizerClient(port=router.port) as client:
                response = client.request(dict(EC2_REQUEST, id="x1"), timeout=JOIN_TIMEOUT)
            ready, detail = router.readiness()
            stats = router.stats()
        assert response["status"] == "error"
        assert not ready and detail["reason"] == "no healthy backends"
        assert stats.backends_healthy == 0


# ---------------------------------------------------------------------- #
# the sync exchange: digest-guarded cross-process cache/memo movement
# ---------------------------------------------------------------------- #
class TestSyncExchange:
    def test_digest_mismatch_is_rejected_whole(self):
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1) as source:
            source.submit(
                workload.query, catalog=workload.catalog
            ).result().raise_for_error()
            exported = source.export_sync()
        assert exported  # the warm session produced deltas
        tampered = [dict(entry, digest="0" * 64) for entry in exported]
        with OptimizerService(shards=1) as target:
            merged, rejected = target.merge_sync(tampered)
            assert (merged, rejected) == (0, len(tampered))
            # Malformed payloads are rejected the same way, not raised.
            merged, rejected = target.merge_sync([{"digest": "x", "data": "!!"}])
            assert (merged, rejected) == (0, 1)
            # The untampered export merges cleanly into the same service.
            merged, rejected = target.merge_sync(exported)
            assert (merged, rejected) == (len(exported), 0)
            stats = target.stats()
        assert stats.sync_rejected == len(tampered) + 1
        assert stats.sync_sessions_merged == len(exported)

    def test_exports_are_incremental(self):
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1) as service:
            service.submit(
                workload.query, catalog=workload.catalog
            ).result().raise_for_error()
            assert service.export_sync()  # first export ships the deltas
            assert service.export_sync() == []  # nothing new since

    def test_exchange_round_lets_the_peer_serve_warm(self):
        """A catalog computed only on backend A: after one exchange round,
        backend B's *first* request of it reuses A's chase fixpoints and
        containment verdicts — same plans, measurably warmer."""
        record = dict(EC2_REQUEST, id="warm")
        with OptimizerServer(shards=1, workers=2) as server_a:
            with OptimizerServer(shards=1, workers=2) as server_b:
                names = [f"127.0.0.1:{server_a.port}", f"127.0.0.1:{server_b.port}"]
                clients = {}
                try:
                    for name in names:
                        host, port = parse_backend(name)
                        clients[name] = OptimizerClient(host=host, port=port)
                    cold = clients[names[0]].request(
                        dict(record), timeout=JOIN_TIMEOUT
                    )
                    assert cold["status"] == "ok"
                    exchanger = SyncExchanger(names, clients.__getitem__)
                    assert exchanger.run_once(timeout=JOIN_TIMEOUT) >= 1
                    warm = clients[names[1]].request(
                        dict(record), timeout=JOIN_TIMEOUT
                    )
                    stats_b = server_b.service.stats()
                finally:
                    for client in clients.values():
                        client.close()
        assert warm["status"] == "ok"
        assert warm["plan_digests"] == cold["plan_digests"]  # the differential bar
        # B never computed this catalog, yet its first serve hit state that
        # only A's run could have produced.
        assert warm["memo_hits"] > cold["memo_hits"]
        assert warm["cache_hits"] > cold["cache_hits"]
        assert stats_b.sync_merges >= 1
        assert stats_b.sync_sessions_merged >= 1
        assert exchanger.totals()[0] == 1

    def test_unreachable_backend_is_skipped_and_reported(self):
        health = {}
        with OptimizerServer(shards=1, workers=1) as server:
            live = f"127.0.0.1:{server.port}"
            dead_server = OptimizerServer(shards=1, workers=1)
            dead = f"127.0.0.1:{dead_server.port}"
            dead_server.stop()
            clients = {}

            def client_for(name):
                if name not in clients:
                    host, port = parse_backend(name)
                    clients[name] = OptimizerClient(host=host, port=port)
                return clients[name]

            try:
                exchanger = SyncExchanger(
                    [live, dead],
                    client_for,
                    on_health=lambda name, healthy: health.__setitem__(name, healthy),
                )
                exchanger.run_once(timeout=JOIN_TIMEOUT)
            finally:
                for client in clients.values():
                    client.close()
        assert health[dead] is False
        assert health[live] is True
        assert exchanger.failures >= 1

    def test_sync_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SyncExchanger(["a:1"], lambda name: None, interval=0)


# ---------------------------------------------------------------------- #
# the shared snapshot store
# ---------------------------------------------------------------------- #
class TestSnapshotStore:
    @staticmethod
    def _warm_service(service):
        digests = []
        for name, params, strategy in MIX[:2]:
            builder, _ = WORKLOAD_BUILDERS[name]
            workload = builder(**params)
            response = service.submit(
                workload.query, strategy=strategy, catalog=workload.catalog
            ).result()
            response.raise_for_error()
            digests.append(constraints_digest(workload.catalog.constraints()))
        return digests

    def test_store_files_are_keyed_by_structural_digest(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as service:
            digests = self._warm_service(service)
            saved = StoreSaver(service, store).save_caches("ignored-path")
        assert saved == len(digests)
        assert store.files() == sorted(store.path_for(digest) for digest in digests)

    def test_fresh_process_boots_warm_from_the_store(self, tmp_path):
        """The scale-up contract: a brand-new service (different shard
        count, nothing in common with the saver) restores every session any
        fleet member stored."""
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as saver:
            self._warm_service(saver)
            StoreSaver(saver, store).save_caches("ignored-path")
        with OptimizerService(shards=2) as fresh:
            restored, failures = store.restore(fresh)
            assert (restored, failures) == (2, 0)
            assert fresh.stats().sessions_restored == 2
            # The restored state actually serves: warm hits on first contact.
            name, params, strategy = MIX[0]
            builder, _ = WORKLOAD_BUILDERS[name]
            workload = builder(**params)
            response = fresh.submit(
                workload.query, strategy=strategy, catalog=workload.catalog
            ).result()
            response.raise_for_error()
            assert fresh.stats().cache_hits > 0

    def test_corrupt_file_degrades_that_catalog_only(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as saver:
            self._warm_service(saver)
            StoreSaver(saver, store).save_caches("ignored-path")
        victim = store.files()[0]
        with open(victim, "r+b") as handle:
            handle.write(b"garbage-not-a-snapshot")
        with OptimizerService(shards=1) as fresh:
            restored, failures = store.restore(fresh)
            stats = fresh.stats()
        assert (restored, failures) == (1, 1)
        assert stats.recoveries == 1  # counted, never a boot failure

    def test_snapshot_manager_drives_the_store(self, tmp_path):
        """SnapshotManager's periodic/SIGUSR1/drain machinery needs no
        changes: the StoreSaver facade routes its saves into the store."""
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as service:
            digests = self._warm_service(service)
            manager = SnapshotManager(StoreSaver(service, store), store.root)
            assert manager.save() == len(digests)
            assert manager.snapshots_written == 1
        assert len(store.files()) == len(digests)
