"""Cache persistence: the session codec, service snapshots, warm restarts.

Covers the persistence layer the serving mode's ``--snapshot`` flag drives:

* :mod:`repro.service.codec` — every chase-cache entry, containment
  verdict and restriction table of a live session survives encode + decode
  exactly;
* :meth:`OptimizerService.save_caches` / :meth:`load_caches` — whole warm
  sessions re-routed by constraint digest, also across a *different* shard
  count, and merged under the loading service's LRU bounds;
* restart semantics — a loaded service serves entirely from warm state
  (hit rates 1.0, counters describing only the new life) and produces plan
  sets identical to the saving life's.
"""

import json

from repro.chase.implication import ChaseCacheRegistry, constraints_digest
from repro.cq.memo import ContainmentMemo
from repro.service import OptimizerService
from repro.service.codec import Session, decode_session, encode_session
from repro.service.protocol import plan_digest
from repro.service.snapshots import read_snapshot
from repro.workloads import build_ec1, build_ec2

MIX = [
    (build_ec2(1, 3, 1), "fb"),
    (build_ec2(1, 3, 2), "oqf"),
    (build_ec1(2, 1), "ocs"),
]


def _run(service, rounds=2):
    """Serve the mix ``rounds`` times (two rounds: warm in-life too)."""
    digests = []
    for workload, strategy in MIX * rounds:
        response = service.submit(
            workload.query, strategy=strategy, catalog=workload.catalog
        ).result()
        response.raise_for_error()
        digests.append(plan_digest(response.result.plans))
    return digests


def _restrictions(query):
    return query.__dict__.get("_restrictions") or {}


def _live_sessions(service):
    return [session for shard in service._shards for session in shard.sessions()]


def _codec_round_trip(constraints, caches=(), verdicts=()):
    """Encode, serialise, parse and decode one session's state."""
    constraints = tuple(constraints)
    state = Session("test", constraints_digest(constraints), constraints, caches, verdicts)
    return decode_session(json.loads(json.dumps(encode_session(state))))


class TestRegistrySnapshot:
    def test_save_load_round_trip(self):
        """A registry's entries survive the codec and answer without re-chasing."""
        workload = build_ec2(1, 3, 1)
        constraints = workload.catalog.constraints()
        registry = ChaseCacheRegistry()
        cache = registry.for_constraints(constraints)
        chased = cache.chase(workload.query)
        exported = registry.export_entries()

        loaded = ChaseCacheRegistry()
        loaded.merge_entries(_codec_round_trip(constraints, caches=exported).caches)
        assert len(loaded) == 1
        warm = loaded.for_constraints(constraints)
        assert len(warm) == len(cache)
        # The loaded fixpoint answers without re-chasing.
        result = warm.chase_result(workload.query)
        assert result.query == chased
        assert (warm.hits, warm.misses) == (1, 0)

    def test_load_reimposes_bound(self, tmp_path):
        """State saved unbounded loads under the loading service's bound."""
        path = tmp_path / "sessions.snap"
        with OptimizerService(shards=1, workers=1) as saving:  # unbounded
            _run(saving, rounds=1)
            saving.save_caches(path)
        with OptimizerService(shards=1, workers=1, max_cache_entries=1) as bounded:
            assert bounded.load_caches(path) == len(MIX)
            caches = [
                entries
                for session in _live_sessions(bounded)
                for _, entries in session.registry.export_entries()
            ]
        assert caches
        assert all(len(entries) <= 1 for entries in caches)

    def test_memo_pickle_round_trip(self):
        """Memo verdicts round-trip through the data-only codec (no pickle)."""
        first = build_ec2(1, 3, 1).query
        second = build_ec1(2, 1).query
        memo = ContainmentMemo(max_entries=8)
        expected = memo.check(first, first), memo.check(second, first)
        decoded = _codec_round_trip((), verdicts=memo.export())
        clone = ContainmentMemo(max_entries=8)
        clone.merge_exported(decoded.verdicts)
        assert clone.lookup(first, first) == expected[0]
        assert clone.lookup(second, first) == expected[1]
        assert len(clone) == len(memo)


class TestSessionCodec:
    def test_round_trip_preserves_entries_verdicts_and_restrictions(self):
        with OptimizerService(shards=1, workers=1) as service:
            _run(service, rounds=1)
            documents = service.export_sessions()
            live = _live_sessions(service)
        assert len(documents) == len(live) == len(MIX)
        tables = 0
        for document, session in zip(documents, live):
            decoded = decode_session(json.loads(json.dumps(document)))
            assert decoded.label == session.label
            assert frozenset(decoded.constraints) == session.signature
            caches = session.registry.export_entries()
            assert len(decoded.caches) == len(caches)
            for (dependencies, entries), (twin_dependencies, twin_entries) in zip(
                caches, decoded.caches
            ):
                assert list(twin_dependencies) == list(dependencies)
                assert list(twin_entries) == list(entries)
                for (_, fixpoint), (_, twin) in zip(entries, twin_entries):
                    assert str(twin) == str(fixpoint)
                    assert _restrictions(twin) == _restrictions(fixpoint)
                    tables += len(_restrictions(fixpoint))
            assert list(decoded.verdicts) == session.memo.export()
        assert tables > 0  # the backchase's restrictions were encoded


class TestServiceSnapshot:
    def test_restarted_service_is_fully_warm_and_identical(self, tmp_path):
        path = tmp_path / "sessions.snap"
        with OptimizerService(shards=2, workers=1) as saving:
            reference = _run(saving)
            saved = saving.save_caches(path)
        assert saved == len(MIX)  # one session per distinct catalog

        with OptimizerService(shards=2, workers=1) as restarted:
            assert restarted.load_caches(path) == saved
            assert _run(restarted) == reference
            stats = restarted.stats()
        # The new life serves entirely from persisted state, and its
        # counters describe only this life (merging transfers no counts).
        assert stats.cache_misses == 0
        assert stats.memo_misses == 0
        assert stats.cache_hits > 0
        assert stats.memo_hits > 0

    def test_snapshot_reroutes_across_different_shard_count(self, tmp_path):
        path = tmp_path / "sessions.snap"
        with OptimizerService(shards=3, workers=1) as saving:
            reference = _run(saving)
            saving.save_caches(path)

        with OptimizerService(shards=1, workers=1) as restarted:
            restarted.load_caches(path)
            assert _run(restarted) == reference
            stats = restarted.stats()
        assert stats.cache_misses == 0

    def test_restrictions_travel_with_the_snapshot(self, tmp_path):
        """The snapshot carries each fixpoint's restriction table."""
        path = tmp_path / "sessions.snap"
        workload = build_ec2(1, 3, 1)
        with OptimizerService(shards=1, workers=1) as saving:
            saving.submit(workload.query, catalog=workload.catalog).result().raise_for_error()
            saving.save_caches(path)

        tables = 0
        for session in read_snapshot(path):
            for _, entries in session.caches:
                for _, fixpoint in entries:
                    tables += len(_restrictions(fixpoint))
        assert tables > 0  # the backchase's restrictions were persisted
