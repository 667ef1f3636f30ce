"""Fleet layer: consistent-hash routing and the shared snapshot store.

The differential discipline of :mod:`tests.test_differential` extended to
the fleet: a router in front of N backend servers must be *invisible* —
identical plan-set digests to a fresh single-shot run for every request —
while the behaviours that make a fleet worth running stay observable:

* ``overloaded`` responses are re-routed to the next replica on the ring,
  not shed (and shed only when *every* backend rejects);
* a dead backend fails over and flips the health gauge, never an error to
  the client while a replica lives;
* the shared snapshot store is read through on a session miss: a *fresh*
  process serves any fleet member's saved sessions warm on first contact,
  a corrupt or stale file costs that one catalog a counted cold start, and
  a missing file is a plain cold start.

Plus the routing-identity regressions: constraint sets whose names collide
but whose bodies differ must never alias (shard index, session label, ring
placement), and a server's ``retry_after`` hint must be honoured exactly
rather than clamped into the jitter schedule.
"""

import glob
import io
import json
import os
import random
import threading
import time

import pytest

from repro.chase.implication import constraints_digest
from repro.schema.constraints import Dependency
from repro.service import EventLog, OptimizerClient, OptimizerServer, OptimizerService, Tracer
from repro.service.fleet import FleetRouter, HashRing, SnapshotStore, StoreSaver, parse_backend
from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest
from repro.service.shard import session_label, shard_index
from repro.service.snapshots import SnapshotManager, write_snapshot
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


def _digest(workload):
    return constraints_digest(workload.catalog.constraints())


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

    def test_ring_spreads_the_mix_over_two_backends(self):
        """Placement is a pure function of the structural digest: on two
        fixed backend names, the mix's 6 catalogs land on both."""
        ring = HashRing(["127.0.0.1:7411", "127.0.0.1:7412"])
        placements = set()
        for name, params, _strategy in MIX:
            builder, _ = WORKLOAD_BUILDERS[name]
            placements.add(ring.route(_digest(builder(**params))))
        assert placements == {"127.0.0.1:7411", "127.0.0.1:7412"}

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
        request routed (none shed, none errored), and each backend served
        exactly the requests the ring routes to it.

        The ring hashes the backends' OS-assigned ports, so which backend
        serves which catalog, and whether one serves them all, varies from
        run to run; the spread over two backends is checked on fixed names
        in :class:`TestMembership`."""
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
                    routed = dict.fromkeys(backends, 0)
                    for record in records:
                        builder, _ = WORKLOAD_BUILDERS[record["workload"]]
                        workload = builder(**record["params"])
                        routed[router.ring.route(_digest(workload))] += 1
                served = {
                    backends[0]: server_a.service.stats().requests,
                    backends[1]: server_b.service.stats().requests,
                }
        assert [response["status"] for response in responses] == ["ok"] * len(records)
        assert [response["id"] for response in responses] == [r["id"] for r in records]
        assert [response["plan_digests"] for response in responses] == reference
        assert stats.requests == stats.routed == len(records)
        assert stats.shed == stats.errors == stats.failovers == 0
        assert stats.backends == stats.backends_healthy == 2
        # Placement is a pure function of the structural digest, and no
        # request failed over: each backend served its ring share.
        assert served == routed

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
# the shared snapshot store
# ---------------------------------------------------------------------- #
def _store_files(store):
    return sorted(glob.glob(os.path.join(store.root, "*", "*.snap")))


def _serve(service, entry):
    """Serve one MIX entry; returns ``(response, plan digest, constraint digest)``."""
    name, params, strategy = entry
    builder, _ = WORKLOAD_BUILDERS[name]
    workload = builder(**params)
    response = service.submit(
        workload.query, strategy=strategy, catalog=workload.catalog
    ).result(timeout=JOIN_TIMEOUT)
    response.raise_for_error()
    return (
        response,
        plan_digest(response.result.plans),
        constraints_digest(workload.catalog.constraints()),
    )


def _file_ids(store):
    """``{path: (inode, mtime)}`` of every store file: a rewrite changes both."""
    return {
        path: (os.stat(path).st_ino, os.stat(path).st_mtime_ns) for path in _store_files(store)
    }


def _saved_store(tmp_path, entries):
    """A store holding one file per entry, saved by a 1-shard service;
    returns it with the saver's (cold) plan digests."""
    store = SnapshotStore(tmp_path / "store")
    with OptimizerService(shards=1, workers=1) as saver:
        digests = [_serve(saver, entry)[1] for entry in entries]
        assert StoreSaver(saver, store).save_caches("ignored-path") == len(entries)
    return store, digests


class TestSnapshotStore:
    def test_store_files_are_keyed_by_structural_digest(self, tmp_path):
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as service:
            digests = [_serve(service, entry)[2] for entry in MIX[:2]]
            saved = StoreSaver(service, store).save_caches("ignored-path")
        assert saved == len(digests)
        assert _store_files(store) == sorted(store.path_for(digest) for digest in digests)

    def test_snapshot_manager_drives_the_store(self, tmp_path):
        """SnapshotManager's periodic/SIGUSR1/drain machinery needs no
        changes: the StoreSaver facade routes its saves into the store."""
        store = SnapshotStore(tmp_path / "store")
        with OptimizerService(shards=1) as service:
            digests = [_serve(service, entry)[2] for entry in MIX[:2]]
            manager = SnapshotManager(StoreSaver(service, store), store.root)
            assert manager.save() == len(digests)
            assert manager.snapshots_written == 1
        assert len(_store_files(store)) == len(digests)

    def test_a_warm_only_service_rewrites_no_file_at_drain(self, tmp_path):
        """A service that read its sessions from the store and served them
        warm learned nothing new: its drain-time save writes no file."""
        store, _ = _saved_store(tmp_path, MIX[:2])
        before = _file_ids(store)
        with OptimizerService(shards=1, workers=1, store=store) as fresh:
            for entry in MIX[:2]:
                response, _, _ = _serve(fresh, entry)
                assert response.metrics.cache_misses == response.metrics.memo_misses == 0
            manager = SnapshotManager(StoreSaver(fresh, store), store.root)
            manager.stop()  # the drain-time save
            assert manager.snapshots_written == 1
        assert _file_ids(store) == before

    def test_a_session_that_missed_rewrites_only_its_own_file(self, tmp_path):
        """Serving a new strategy on a stored catalog chases new fixpoints:
        the next save rewrites that catalog's file and no other."""
        store, _ = _saved_store(tmp_path, MIX[:2])
        before = _file_ids(store)
        name, params, strategy = MIX[1]
        assert strategy == "ocs"
        with OptimizerService(shards=1, workers=1, store=store) as fresh:
            _serve(fresh, MIX[0])
            response, _, digest = _serve(fresh, (name, params, "fb"))
            assert response.metrics.cache_misses > 0
            assert StoreSaver(fresh, store).save_caches("ignored-path") == 1
            assert StoreSaver(fresh, store).save_caches("ignored-path") == 0
        after = _file_ids(store)
        assert sorted(after) == sorted(before)
        assert {path for path in before if after[path] != before[path]} == {
            store.path_for(digest)
        }

    def test_corrupt_file_degrades_that_catalog_only(self, tmp_path):
        """A corrupt file costs its catalog one counted recovery and a cold,
        correct serve; the other catalog is still read warm."""
        store, cold = _saved_store(tmp_path, MIX[:2])
        builder, _ = WORKLOAD_BUILDERS[MIX[0][0]]
        digest = constraints_digest(builder(**MIX[0][1]).catalog.constraints())
        with open(store.path_for(digest), "r+b") as handle:
            handle.write(b"garbage-not-a-snapshot")
        with OptimizerService(shards=1, workers=1, store=store) as fresh:
            (broken, broken_digest, _), (warm, warm_digest, _) = (
                _serve(fresh, entry) for entry in MIX[:2]
            )
            stats = fresh.stats()
        assert [broken_digest, warm_digest] == cold  # served, and correct
        assert broken.metrics.cache_misses > 0  # cold
        assert warm.metrics.cache_misses == warm.metrics.memo_misses == 0
        assert stats.recoveries == 1
        assert stats.sessions_restored == 1


class TestStoreReadThrough:
    def test_first_contact_reads_the_store_warm(self, tmp_path):
        """The scale-up contract: a fresh service with a different shard
        count serves every stored catalog warm on first contact, with the
        plans of a cold run."""
        store, cold = _saved_store(tmp_path, MIX)
        with OptimizerService(shards=2, workers=1, store=store) as fresh:
            served = [_serve(fresh, entry) for entry in MIX]
            stats = fresh.stats()
        assert [digest for _, digest, _ in served] == cold
        for response, _, _ in served:
            assert response.metrics.cache_misses == response.metrics.memo_misses == 0
            assert response.metrics.cache_hits > 0
        assert stats.snapshots_loaded == stats.sessions_restored == len(MIX)
        assert stats.recoveries == stats.stale_sessions == 0

    def test_a_stale_file_is_skipped_and_counted(self, tmp_path):
        """A document whose advertised digest disagrees with its constraints
        is not merged: that catalog starts cold, counted as stale."""
        store, cold = _saved_store(tmp_path, MIX[:1])
        (path,) = _store_files(store)
        with open(path, "rb") as handle:
            _header, document = handle.read().splitlines()
        write_snapshot(path, [dict(json.loads(document), constraints_digest="0" * 64)])
        with OptimizerService(shards=1, workers=1, store=store) as fresh:
            response, digest, _ = _serve(fresh, MIX[0])
            stats = fresh.stats()
        assert digest == cold[0]
        assert response.metrics.cache_misses > 0
        assert stats.stale_sessions == 1
        assert stats.sessions_restored == stats.recoveries == 0

    def test_a_request_meeting_a_loading_session_waits_for_the_load(
        self, tmp_path, monkeypatch
    ):
        """Two first contacts with one catalog, the load slowed down: one
        request reads the file, the other waits for it, and both run warm.
        Each bills its part to the ``store_load`` stage: the reader the
        slowed load, the waiter its wait."""
        store, cold = _saved_store(tmp_path, MIX[:1])
        recover = OptimizerService.recover_caches
        readers = []

        def slow_recover(self, path):
            readers.append(path)
            time.sleep(0.2)
            return recover(self, path)

        monkeypatch.setattr(OptimizerService, "recover_caches", slow_recover)
        name, params, strategy = MIX[0]
        workload = WORKLOAD_BUILDERS[name][0](**params)
        with OptimizerService(
            shards=1, workers=1, max_inflight=2, store=store, tracer=Tracer()
        ) as fresh:
            futures = [
                fresh.submit(workload.query, strategy=strategy, catalog=workload.catalog)
                for _ in range(2)
            ]
            responses = [future.result(timeout=JOIN_TIMEOUT) for future in futures]
            stats = fresh.stats()
        for response in responses:
            response.raise_for_error()
            assert plan_digest(response.result.plans) == cold[0]
            assert response.metrics.cache_misses == response.metrics.memo_misses == 0
        assert stats.snapshots_loaded == stats.sessions_restored == 1
        assert len(readers) == 1
        # The reader's store_load holds the slowed load; the waiter's, its wait.
        loads = [response.trace.stage_seconds()["store_load"] for response in responses]
        assert max(loads) >= 0.2
        assert min(loads) > 0

    def test_sessions_from_a_boot_snapshot_serve_beside_the_store(self, tmp_path):
        """A ``--snapshot`` load creates its sessions through the merge path,
        not a request: they are ready at once and never re-read the store."""
        store, cold = _saved_store(tmp_path, MIX[:1])
        path = tmp_path / "boot.snap"
        with OptimizerService(shards=1, workers=1) as saver:
            _serve(saver, MIX[0])
            saver.save_caches(path)
        with OptimizerService(shards=1, workers=1, store=store) as fresh:
            assert fresh.recover_caches(path) == (1, None)
            response, digest, _ = _serve(fresh, MIX[0])
            stats = fresh.stats()
        assert digest == cold[0]
        assert response.metrics.cache_misses == response.metrics.memo_misses == 0
        assert stats.snapshots_loaded == stats.sessions_restored == 1

    def test_an_evicted_session_reads_its_file_again(self, tmp_path):
        store, cold = _saved_store(tmp_path, MIX[:2])
        with OptimizerService(shards=1, workers=1, max_sessions=1, store=store) as fresh:
            served = [_serve(fresh, entry) for entry in (MIX[0], MIX[1], MIX[0])]
            stats = fresh.stats()
        assert [digest for _, digest, _ in served] == [cold[0], cold[1], cold[0]]
        for response, _, _ in served:
            assert response.metrics.cache_misses == response.metrics.memo_misses == 0
        assert stats.as_dict()["sessions_evicted"] == 2
        assert stats.snapshots_loaded == 3

    def test_no_file_is_a_plain_cold_start(self, tmp_path):
        store = SnapshotStore(tmp_path / "empty-store")
        events = io.StringIO()
        with OptimizerService(
            shards=1, workers=1, store=store, event_log=EventLog(stream=events)
        ) as fresh:
            response, digest, _ = _serve(fresh, MIX[0])
            stats = fresh.stats()
        name, params, strategy = MIX[0]
        workload = WORKLOAD_BUILDERS[name][0](**params)
        single_shot = workload.optimizer().optimize(workload.query, strategy=strategy)
        assert digest == plan_digest(single_shot.plans)
        assert response.metrics.cache_misses > 0
        assert stats.recoveries == stats.snapshots_loaded == stats.stale_sessions == 0
        names = [json.loads(line)["event"] for line in events.getvalue().splitlines()]
        assert "request.completed" in names
        assert not [name for name in names if name.startswith("snapshot.")]
