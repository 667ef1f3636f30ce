"""The traced run: per-layer metrics from spans, and the tracing overhead.

A traced run measures one fixed, seeded request list three times in one
process: phase A untraced, phase B with the span wrappers of :mod:`spans`
installed (and, for churn-socket, a server started through ``launcher.py``),
then phase A again with the wrappers removed.  Per-layer metrics come from
phase B.  The tracing overhead on each end-to-end metric is phase B minus the
mean of the two A phases, so drift that is linear over the run cancels; it
goes in the run record, not in the per-layer metrics, because it is a cost of
the benchmark's wrappers rather than of a program layer.  cold-optimize first
runs the list once untimed, so every phase sees the same process-wide
congruence caches.  The in-process workloads print the engine layers only
(:data:`SERVICE_LAYERS` are the service workloads' own).

Times are per request, in ms, unless the name says otherwise; counts are
totals over the request list (the engine counts repeat exactly for a seed);
rates are shares.  ``setup.build_ms`` and ``snapshot.load_ms`` are set-up
times of phase B.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict

from loop import WORK_DIR
from metrics import IN_PROCESS, end_to_end, properties
from spans import END, EXTRA, LAYER, PARENT, RID, SELF, SID, START, SpanRecorder, install, load_spans
from workloads import Phase

#: per-request self time (ms) of a layer's spans
SELF_MS = {
    "chase.self_ms": "chase",
    "containment.self_ms": "containment",
    "restrict.self_ms": "restrict",
    "backchase.self_ms": "backchase",
    "stratify.self_ms": "stratify",
    "optimizer.self_ms": "optimizer",
    "scheduler.wait_ms": "scheduler",
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "protocol.digest_ms": "protocol.digest",
    "build.request_ms": "build",
}
#: outermost calls into a layer (a span nested in one of its own layer is not a call)
CALLS = {"chase.calls": "chase", "containment.calls": "containment", "restrict.calls": "restrict"}
#: totals of counts read from the calls' results
EXTRA_COUNTS = {
    "chase.closure_queries": "closure_queries",
    "backchase.subqueries_explored": "subqueries_explored",
    "backchase.equivalence_checks": "equivalence_checks",
}
#: layers only the service workloads reach; the in-process ones do not print them
SERVICE_LAYERS = {
    "service.admission_ms",
    "service.queue_wait_ms",
    "shard.sessions_evicted",
    "shard.miss_share",
    "scheduler.wait_ms",
    "scheduler.waves",
    "scheduler.cross_request_waves",
    "protocol.decode_ms",
    "protocol.encode_ms",
    "protocol.digest_ms",
    "socket.overhead_ms",
    "snapshot.load_ms",
    "snapshot.bytes",
    "snapshot.sessions_restored",
    "cache.evictions",
}
UNITS = {name: "ms" for name in SELF_MS}
UNITS.update({name: "count" for name in list(CALLS) + list(EXTRA_COUNTS)})
UNITS.update(
    {
        "cache.hit_rate": "share",
        "cache.evictions": "count",
        "memo.hit_rate": "share",
        "unattributed_share": "share",
        "service.admission_ms": "ms",
        "service.queue_wait_ms": "ms",
        "shard.sessions_evicted": "count",
        "shard.miss_share": "share",
        "scheduler.waves": "count",
        "scheduler.cross_request_waves": "count",
        "socket.overhead_ms": "ms",
        "snapshot.load_ms": "ms",
        "snapshot.bytes": "bytes",
        "snapshot.sessions_restored": "count",
        "setup.build_ms": "ms",
        "gc.pause_ms": "ms",
        "gc.collections": "count",
    }
)


def traced_run(workload, count):
    """Run phases A, B and A again; returns ``(metrics, properties)``.

    Phase B's spans are written to ``.work/trace-<workload>-seed<N>.jsonl``
    (and ``...-server.jsonl`` for the server's) when the run ends.
    """
    if workload.name == "cold-optimize":
        warm = Phase()
        workload.setup(warm, traced=False)
        workload.run(warm, workload.requests(count))
    before = _untraced_phase(workload, count)

    recorder = SpanRecorder()
    uninstall = install(recorder)
    phase_b = Phase()
    setup_started = time.perf_counter()
    try:
        workload.setup(phase_b, traced=True)
        workload.run(phase_b, workload.requests(count), recorder=recorder)
    finally:
        uninstall()
    traced = end_to_end(workload.name, phase_b)
    after = _untraced_phase(workload, count)

    values = layer_metrics(phase_b, recorder, setup_started)
    if workload.name in IN_PROCESS:
        values = {name: value for name, value in values.items() if name not in SERVICE_LAYERS}
    stem = os.path.join(WORK_DIR, f"trace-{workload.name}-seed{workload.seed}")
    recorder.dump(stem + ".jsonl")
    if phase_b.server_spans is not None:
        shutil.copyfile(phase_b.server_spans, stem + "-server.jsonl")
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    props = properties(workload.name, phase_b)
    props["untraced_before"] = before
    props["traced"] = traced
    props["untraced_after"] = after
    props["overhead"] = {
        name: traced[name] - (before[name] + after[name]) / 2.0 for name in traced
    }
    return metrics, props


def _untraced_phase(workload, count):
    """Set up and run the request list without spans; its end-to-end metrics."""
    phase = Phase()
    workload.setup(phase, traced=False)
    workload.run(phase, workload.requests(count))
    return end_to_end(workload.name, phase)


def layer_metrics(phase, recorder, setup_started):
    requests = len(phase.requests)
    window = (phase.started, phase.last)
    sources = [(recorder.spans, recorder.gc_pauses)]
    if phase.server_spans is not None:
        sources.append(load_spans(phase.server_spans))

    self_s = defaultdict(float)
    calls = defaultdict(int)
    extras = defaultdict(int)
    setup_build_s = 0.0
    snapshot_load_s = 0.0
    sessions_restored = 0
    gc_pause_s = 0.0
    gc_collections = 0
    intervals = defaultdict(list)
    optimizer_start = {}
    for spans, gc_pauses in sources:
        layer_of = {span[SID]: span[LAYER] for span in spans}
        for span in spans:
            layer = span[LAYER]
            if span[START] < window[0]:
                if span[START] >= setup_started and layer == "build":
                    setup_build_s += span[SELF]
                if layer == "snapshot":
                    snapshot_load_s = span[END] - span[START]
                    sessions_restored = span[EXTRA]["sessions_restored"]
                continue
            if span[START] > window[1]:
                continue
            self_s[layer] += span[SELF]
            if layer_of.get(span[PARENT]) != layer:
                calls[layer] += 1
            for key, value in (span[EXTRA] or {}).items():
                extras[key] += value
            if span[RID] is not None:
                intervals[span[RID]].append((span[START], span[END]))
                if layer == "optimizer":
                    optimizer_start.setdefault(span[RID], span[START])
        for started, ended in gc_pauses:
            if window[0] <= started <= window[1]:
                gc_pause_s += ended - started
                gc_collections += 1

    values = {name: self_s[layer] * 1000.0 / requests for name, layer in SELF_MS.items()}
    values.update({name: calls[layer] for name, layer in CALLS.items()})
    values.update({name: extras[key] for name, key in EXTRA_COUNTS.items()})

    before = phase.stats_before or {}
    after = phase.stats_after or {}
    values.update(
        {
            "cache.hit_rate": _rate(phase.requests, "cache_hits", "cache_misses"),
            "cache.evictions": after.get("cache_evictions", 0) - before.get("cache_evictions", 0),
            "memo.hit_rate": _rate(phase.requests, "memo_hits", "memo_misses"),
            "unattributed_share": _unattributed(phase.requests, intervals, optimizer_start),
            "service.admission_ms": _mean_ms(phase.requests, "admission_s"),
            "service.queue_wait_ms": _mean_ms(phase.requests, "queue_wait_s"),
            "shard.sessions_evicted": after.get("sessions_evicted", 0)
            - before.get("sessions_evicted", 0),
            "shard.miss_share": _miss_share(phase.requests),
            "scheduler.waves": after.get("waves", 0) - before.get("waves", 0),
            "scheduler.cross_request_waves": after.get("cross_request_waves", 0)
            - before.get("cross_request_waves", 0),
            "socket.overhead_ms": (
                sum(
                    request["completed"] - request["submitted"] - request["service_latency_s"]
                    for request in phase.requests
                )
                * 1000.0
                / requests
                if phase.server_spans is not None
                else 0.0
            ),
            "snapshot.load_ms": snapshot_load_s * 1000.0,
            "snapshot.bytes": phase.snapshot_bytes,
            "snapshot.sessions_restored": sessions_restored,
            "setup.build_ms": setup_build_s * 1000.0,
            "gc.pause_ms": gc_pause_s * 1000.0 / requests,
            "gc.collections": gc_collections,
        }
    )
    return values


def _rate(requests, hits_field, misses_field):
    """Hit rate of the per-request registry or memo counters (0 without them)."""
    hits = sum(request.get(hits_field, 0) for request in requests)
    misses = sum(request.get(misses_field, 0) for request in requests)
    return hits / (hits + misses) if hits + misses else 0.0


def _miss_share(requests):
    """Share of requests that missed the chase cache at least once."""
    return sum(1 for request in requests if request.get("cache_misses", 0)) / len(requests)


def _mean_ms(requests, field):
    return sum(request.get(field, 0.0) for request in requests) * 1000.0 / len(requests)


def _unattributed(requests, intervals, optimizer_start):
    """Share of request latency that no span (nor the service's queue wait) covers."""
    total = uncovered = 0.0
    for request in requests:
        begin, end = request["submitted"], request["completed"]
        spans = list(intervals.get(request["id"], ()))
        queue_wait = request.get("queue_wait_s", 0.0)
        if queue_wait and request["id"] in optimizer_start:
            picked_up = optimizer_start[request["id"]]
            spans.append((picked_up - queue_wait, picked_up))
        covered = 0.0
        reach = begin
        for started, ended in sorted(spans):
            started, ended = max(started, reach), min(ended, end)
            if ended > started:
                covered += ended - started
                reach = ended
        total += end - begin
        uncovered += end - begin - covered
    return uncovered / total if total else 0.0
