"""First-class observability: tracing, Prometheus/health HTTP, event logs.

The tentpole invariant is the **span-tree bound**: on the serial executor a
traced request's stage seconds are disjoint wall-clock slices, so
``sum(stages) <= duration`` per trace.  Around it: the tracing core's
outermost-only accounting, the Tracer ring/JSONL log, exhaustive
``/metrics`` coverage of the stats surface, health/readiness semantics,
the structured event stream, and the three-way stats parity (socket op vs.
in-process call vs. HTTP endpoint).
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    EventLog,
    FaultInjector,
    ObservabilityServer,
    OptimizerClient,
    OptimizerServer,
    OptimizerService,
    ServiceOverloaded,
    StageHistograms,
    Tracer,
    log_event,
    render_metrics,
)
from repro.service.metrics import STAGE_LATENCY_BUCKETS, ServiceStats
from repro.service.observability.httpd import PROMETHEUS_CONTENT_TYPE
from repro.trace import STAGES, RequestTrace, activate, active_trace, traced_stage
from repro.workloads import build_ec1, build_ec2

JOIN_TIMEOUT = 120.0


def _get(port, path):
    try:
        with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
            return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, error.headers.get("Content-Type", ""), error.read().decode()


def _submit_one(service, workload=None, strategy="fb"):
    workload = workload if workload is not None else build_ec2(1, 2, 1)
    return service.submit(
        workload.query, strategy=strategy, catalog=workload.catalog
    ).result(timeout=JOIN_TIMEOUT)


# ---------------------------------------------------------------------- #
# The tracing core (repro.trace)
# ---------------------------------------------------------------------- #
class TestTraceCore:
    def test_record_and_as_dict(self):
        trace = RequestTrace("r1")
        trace.record("chase", 0.25)
        trace.record("chase", 0.25)
        trace.annotate("chase", cache_hits=3)
        record = trace.finish("ok").as_dict()
        assert record["request_id"] == "r1"
        assert record["status"] == "ok"
        (span,) = record["stages"]
        assert span["stage"] == "chase"
        assert span["count"] == 2
        assert span["seconds"] == pytest.approx(0.5)
        assert span["attrs"] == {"cache_hits": 3}

    def test_traced_stage_bills_the_active_trace(self):
        @traced_stage("restrict")
        def work():
            time.sleep(0.01)
            return 42

        trace = RequestTrace("r2")
        with activate(trace):
            assert work() == 42
        assert trace.stage_seconds()["restrict"] > 0

    def test_traced_stage_outermost_only(self):
        """Nested same-thread stage calls must not double-bill wall time."""

        @traced_stage("containment")
        def inner():
            time.sleep(0.01)

        @traced_stage("containment")
        def outer():
            inner()
            inner()

        trace = RequestTrace("r3")
        with activate(trace):
            outer()
        record = trace.finish("ok").as_dict()
        (span,) = record["stages"]
        # Only the outermost frame records: one span covering both inner
        # sleeps, not three overlapping intervals summing to ~2x the wall.
        assert span["count"] == 1
        assert 0.02 <= span["seconds"] < 0.05

    def test_no_active_trace_is_free(self):
        @traced_stage("chase")
        def work():
            return "plain"

        assert active_trace() is None
        assert work() == "plain"

    def test_activate_none_is_a_no_op(self):
        with activate(None):
            assert active_trace() is None

    def test_observer_receives_stage_observations(self):
        histograms = StageHistograms()
        trace = RequestTrace("r4", observer=histograms)
        trace.record("serialize", 0.002)
        snapshot = histograms.snapshot()
        assert snapshot["serialize"]["count"] == 1
        assert snapshot["serialize"]["sum"] == pytest.approx(0.002)


# ---------------------------------------------------------------------- #
# The span tree through the full service pipeline (the tentpole)
# ---------------------------------------------------------------------- #
class TestServiceTracing:
    def test_response_carries_a_complete_span_tree(self):
        tracer = Tracer()
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            response = _submit_one(service)
        assert response.ok
        record = response.trace.as_dict()
        assert record["status"] == "ok"
        assert {span["stage"] for span in record["stages"]} == set(STAGES)

    def test_stage_seconds_sum_within_request_latency(self):
        """On the serial executor every stage is a disjoint wall-clock slice
        of its request, so the billed seconds sum to at most the duration."""
        tracer = Tracer()
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            responses = [
                _submit_one(service, build_ec2(1, 2, 1)),
                _submit_one(service, build_ec1(2, 1), strategy="ocs"),
                _submit_one(service, build_ec2(1, 3, 2), strategy="oqf"),
            ]
        for response in responses:
            record = response.trace.as_dict()
            billed = sum(span["seconds"] for span in record["stages"])
            assert billed <= record["duration_s"]
            assert billed > 0

    def test_trace_attributes_match_request_metrics(self):
        tracer = Tracer()
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            response = _submit_one(service)
        spans = {span["stage"]: span for span in response.trace.as_dict()["stages"]}
        assert spans["chase"]["attrs"]["cache_hits"] == response.metrics.cache_hits
        assert spans["chase"]["attrs"]["cache_misses"] == response.metrics.cache_misses
        assert spans["containment"]["attrs"]["memo_hits"] == response.metrics.memo_hits
        assert spans["containment"]["attrs"]["memo_misses"] == response.metrics.memo_misses

    def test_untraced_service_attaches_no_trace(self):
        with OptimizerService(shards=1, workers=1) as service:
            response = _submit_one(service)
        assert response.trace is None
        assert response.plan_digests is None

    def test_rejected_request_exports_a_rejected_trace(self):
        tracer = Tracer()
        events = []

        class _Recorder:
            def emit(self, event, **fields):
                events.append((event, fields))

        workload = build_ec2(1, 2, 1)
        with OptimizerService(
            shards=1,
            workers=1,
            max_inflight=1,
            max_queue_depth=1,
            tracer=tracer,
            event_log=_Recorder(),
        ) as service:
            futures, rejected = [], 0
            for _ in range(16):
                try:
                    futures.append(
                        service.submit(workload.query, catalog=workload.catalog)
                    )
                except ServiceOverloaded:
                    rejected += 1
            for future in futures:
                future.result(timeout=JOIN_TIMEOUT)
        assert rejected > 0
        statuses = [record["status"] for record in tracer.recent()]
        assert statuses.count("rejected") == rejected
        assert sum(1 for name, _ in events if name == "request.rejected") == rejected

    def test_tracer_ring_is_bounded_and_counts(self):
        tracer = Tracer(ring_size=2)
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            for _ in range(4):
                _submit_one(service)
        assert len(tracer.recent()) == 2
        assert tracer.counters() == (4, 4)

    def test_trace_log_is_jsonl(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        tracer = Tracer(trace_log=str(path))
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            _submit_one(service)
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == 1
        assert {span["stage"] for span in records[0]["stages"]} == set(STAGES)

    def test_traced_response_encodes_trace_on_the_wire(self):
        from repro.service.protocol import encode_response

        tracer = Tracer()
        workload = build_ec2(1, 2, 1)
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            response = _submit_one(service, workload)
        record = encode_response("r1", workload, "fb", response)
        assert record["status"] == "ok"
        assert {span["stage"] for span in record["trace"]["stages"]} == set(STAGES)
        # The serialize span already digested the plans; the codec reuses it.
        assert record["plan_digests"] == response.plan_digests


# ---------------------------------------------------------------------- #
# Stage histograms + Prometheus rendering
# ---------------------------------------------------------------------- #
class TestPrometheusRendering:
    def test_histogram_buckets_are_cumulative(self):
        histograms = StageHistograms(buckets=(0.01, 0.1))
        histograms.observe_stage("chase", 0.005)
        histograms.observe_stage("chase", 0.05)
        histograms.observe_stage("chase", 5.0)
        series = histograms.snapshot()["chase"]
        assert series["buckets"] == [(0.01, 1), (0.1, 2), ("+Inf", 3)]
        assert series["count"] == 3
        assert series["sum"] == pytest.approx(5.055)

    def test_default_buckets_are_sorted(self):
        assert list(STAGE_LATENCY_BUCKETS) == sorted(STAGE_LATENCY_BUCKETS)

    def test_every_stats_field_becomes_a_gauge(self):
        """Exhaustive by construction: iterate the live as_dict mapping."""
        with OptimizerService(shards=2, workers=1) as service:
            _submit_one(service)
            stats = service.stats()
        text = render_metrics(stats)
        for key in stats.as_dict():
            assert f"# TYPE repro_{key} gauge" in text, key
            assert f"\nrepro_{key} " in "\n" + text, key

    def test_shard_gauges_are_labelled(self):
        with OptimizerService(shards=2, workers=1) as service:
            _submit_one(service)
            stats = service.stats()
        text = render_metrics(stats)
        assert 'repro_shard_requests{shard="0"}' in text
        assert 'repro_shard_requests{shard="1"}' in text

    def test_histogram_family_renders(self):
        histograms = StageHistograms(buckets=(0.01,))
        histograms.observe_stage("chase", 0.5)
        stats = ServiceStats()
        text = render_metrics(stats, histograms=histograms)
        assert "# TYPE repro_stage_latency_seconds histogram" in text
        assert 'repro_stage_latency_seconds_bucket{stage="chase",le="0.01"} 0' in text
        assert 'repro_stage_latency_seconds_bucket{stage="chase",le="+Inf"} 1' in text
        assert 'repro_stage_latency_seconds_count{stage="chase"} 1' in text

    def test_exposition_shape(self):
        """Every sample line belongs to a family with HELP and TYPE headers."""
        histograms = StageHistograms()
        histograms.observe_stage("chase", 0.01)
        text = render_metrics(ServiceStats(), histograms=histograms)
        typed = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                typed.add(line.split()[2])
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0].split()[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in typed:
                    base = name[: -len(suffix)]
            assert base in typed, line


# ---------------------------------------------------------------------- #
# The HTTP sidecar
# ---------------------------------------------------------------------- #
class TestObservabilityServer:
    def test_health_ready_metrics_traces(self):
        tracer = Tracer()
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            _submit_one(service)
            with ObservabilityServer(service, tracer=tracer) as obs:
                status, _, body = _get(obs.port, "/healthz")
                assert (status, body) == (200, "ok\n")
                status, _, body = _get(obs.port, "/readyz")
                assert status == 200 and json.loads(body)["ready"] is True
                status, content_type, body = _get(obs.port, "/metrics")
                assert status == 200
                assert content_type == PROMETHEUS_CONTENT_TYPE
                assert "repro_stage_latency_seconds_bucket" in body
                status, _, body = _get(obs.port, "/traces?limit=1")
                traces = json.loads(body)["traces"]
                assert len(traces) == 1
                assert {s["stage"] for s in traces[0]["stages"]} == set(STAGES)

    def test_readyz_turns_503_when_service_unready(self):
        service = OptimizerService(shards=1, workers=1)
        with ObservabilityServer(service) as obs:
            status, _, _ = _get(obs.port, "/readyz")
            assert status == 200
            service.shutdown()
            status, _, body = _get(obs.port, "/readyz")
            assert status == 503
            assert json.loads(body)["ready"] is False

    def test_broken_readiness_probe_reads_as_503(self):
        with OptimizerService(shards=1, workers=1) as service:
            def probe():
                raise RuntimeError("probe exploded")

            with ObservabilityServer(service, readiness=probe) as obs:
                status, _, body = _get(obs.port, "/readyz")
        assert status == 503
        assert "probe exploded" in json.loads(body)["detail"]["error"]

    def test_unknown_route_is_404_and_traces_without_tracer_too(self):
        with OptimizerService(shards=1, workers=1) as service:
            with ObservabilityServer(service) as obs:
                status, _, _ = _get(obs.port, "/nope")
                assert status == 404
                status, _, body = _get(obs.port, "/traces")
                assert status == 404
                assert "not enabled" in json.loads(body)["error"]

    def test_stop_is_idempotent(self):
        with OptimizerService(shards=1, workers=1) as service:
            obs = ObservabilityServer(service)
            obs.stop()
            obs.stop()


# ---------------------------------------------------------------------- #
# Stats parity: socket op vs. in-process call vs. HTTP endpoint (satellite)
# ---------------------------------------------------------------------- #
class TestStatsParity:
    def test_three_surfaces_agree_field_for_field(self):
        with OptimizerService(shards=2, workers=1) as service:
            with OptimizerServer(service=service) as server:
                with OptimizerClient(port=server.port) as client:
                    client.request(
                        {"workload": "ec2", "params": {"stars": 1, "corners": 2, "views": 1}},
                        timeout=JOIN_TIMEOUT,
                    )
                    with ObservabilityServer(service) as obs:
                        socket_stats = client.stats()
                        local_stats = service.stats().as_dict()
                        _, _, body = _get(obs.port, "/stats")
                        http_stats = json.loads(body)
        assert socket_stats == local_stats == http_stats
        assert local_stats["requests"] == 1


# ---------------------------------------------------------------------- #
# Structured event logs
# ---------------------------------------------------------------------- #
class TestEventLog:
    def test_emit_writes_jsonl(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=str(path)) as log:
            log.emit("request.admitted", request_id="r1", shard=0)
            log_event(log, "request.completed", request_id="r1", status="ok")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["request.admitted", "request.completed"]
        assert all("ts" in r for r in records)
        assert log.emitted == 2 and log.dropped == 0

    def test_log_event_none_is_a_no_op(self):
        assert log_event(None, "anything") is None

    def test_emit_never_raises_on_a_dead_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path))
        log.close()
        log.emit("after.close")
        assert log.dropped == 1

    def test_stream_and_path_are_exclusive(self, tmp_path):
        import io

        with pytest.raises(ValueError):
            EventLog(stream=io.StringIO(), path=str(tmp_path / "x"))

    def test_request_lifecycle_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(path=str(path)) as log:
            with OptimizerService(shards=1, workers=1, event_log=log) as service:
                _submit_one(service)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        names = [r["event"] for r in records]
        assert names == ["request.admitted", "request.completed"]
        assert records[1]["status"] == "ok"
        assert records[1]["latency_s"] > 0

    def test_runner_crash_and_restart_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        faults = FaultInjector().rule("shard.execute", times=1, crash=True)
        with EventLog(path=str(path)) as log:
            with OptimizerService(
                shards=1, workers=1, fault_injector=faults, event_log=log
            ) as service:
                crashed = _submit_one(service)
                healed = _submit_one(service)
        assert not crashed.ok and healed.ok
        names = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        assert "runner.crashed" in names
        assert "runner.restarted" in names

    def test_snapshot_events(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        snapshot_path = tmp_path / "caches.snap"
        with EventLog(path=str(events_path)) as log:
            with OptimizerService(shards=1, workers=1, event_log=log) as service:
                _submit_one(service)
                service.save_caches(str(snapshot_path))
            with OptimizerService(shards=1, workers=1, event_log=log) as warm:
                warm.load_caches(str(snapshot_path))
        records = [json.loads(line) for line in events_path.read_text().splitlines()]
        loaded = [r for r in records if r["event"] == "snapshot.loaded"]
        assert len(loaded) == 1
        assert loaded[0]["sessions_restored"] >= 1


# ---------------------------------------------------------------------- #
# The stats-surface satellites
# ---------------------------------------------------------------------- #
class TestStatsSatellites:
    def test_sessions_restored_is_tracked_and_exported(self, tmp_path):
        """record_snapshot_load used to drop its ``sessions`` argument."""
        snapshot_path = tmp_path / "caches.snap"
        with OptimizerService(shards=1, workers=1) as service:
            _submit_one(service)
            service.save_caches(str(snapshot_path))
        with OptimizerService(shards=1, workers=1) as warm:
            restored = warm.load_caches(str(snapshot_path))
            stats = warm.stats()
        assert restored >= 1
        assert stats.sessions_restored == restored
        assert stats.as_dict()["sessions_restored"] == restored
        assert stats.snapshots_loaded == 1

    def test_p99_latency_property_and_export(self):
        stats = ServiceStats(latencies=[float(i) for i in range(1, 101)])
        assert stats.p99_latency == pytest.approx(100.0, abs=1.0)
        assert stats.p99_latency >= stats.p95_latency >= stats.p50_latency
        assert stats.as_dict()["p99_latency_s"] == round(stats.p99_latency, 6)

    def test_readiness_probe(self):
        service = OptimizerService(shards=1, workers=1)
        ready, detail = service.readiness()
        assert ready and detail == {"shards": 1}
        service.shutdown()
        ready, detail = service.readiness()
        assert not ready and "shut down" in detail["reason"]


# ---------------------------------------------------------------------- #
# The obs-check CLI (drives the same scrape make serve-obs-smoke runs)
# ---------------------------------------------------------------------- #
class TestObsCheckCli:
    def test_obs_check_passes_against_a_live_sidecar(self, capsys):
        from repro.cli import main

        tracer = Tracer()
        with OptimizerService(shards=1, workers=1, tracer=tracer) as service:
            _submit_one(service)
            with ObservabilityServer(service, tracer=tracer) as obs:
                code = main(["obs-check", "--port", str(obs.port)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["obs_check"] == "ok"

    def test_obs_check_fails_without_traces(self, capsys):
        from repro.cli import main

        with OptimizerService(shards=1, workers=1) as service:
            with ObservabilityServer(service) as obs:
                code = main(["obs-check", "--port", str(obs.port)])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["obs_check"] == "failed"
