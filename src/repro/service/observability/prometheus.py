"""Prometheus text-exposition rendering for the service stats surface.

Zero-dep: the text format is lines of ``name{labels} value`` with
``# HELP`` / ``# TYPE`` headers, which needs no client library.  Coverage
is mechanical on purpose: :func:`render_metrics` iterates the *actual*
``ServiceStats.as_dict()`` mapping, so a gauge added to the stats surface
shows up on ``/metrics`` automatically — the conformance test asserts the
families exhaustively, and PR 8's ``metrics-conformance`` lint already
guarantees the dict itself cannot silently drop a collector gauge.

Families
--------
``repro_<key>``
    One gauge per ``ServiceStats.as_dict()`` field (service-wide).
``repro_shard_<field>{shard="N"}``
    The per-shard breakdown of every numeric ``ShardStats`` field.
``repro_stage_latency_seconds{stage="..."}``
    Per-stage latency histograms fed by request tracing
    (``_bucket``/``_sum``/``_count`` with cumulative ``le`` buckets).
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields

_HELP = {
    "requests": "Completed requests (exact total).",
    "errors": "Requests that resolved with an error.",
    "rejected": "Requests shed by admission control.",
    "shards": "Configured shard count.",
    "sessions": "Warm sessions currently held across shards.",
    "sessions_evicted": "Warm sessions evicted by the per-shard LRU bound.",
    "queue_depth": "Requests admitted and not yet completed.",
    "queue_peak": "High-water mark of the admission queue depth.",
    "runner_restarts": "Replacement runner threads spawned by supervision.",
    "runner_failures": "Requests whose runner thread died executing them.",
    "recoveries": "Cold-start recoveries from unusable snapshots.",
    "stale_sessions": "Snapshot sessions skipped for changed constraints.",
    "snapshots_loaded": "Successful snapshot loads.",
    "sessions_restored": "Warm sessions restored from snapshots.",
    "sync_exports": "Fleet sync exports answered (delta rounds).",
    "sync_sessions_exported": "Hot sessions shipped to fleet peers.",
    "sync_merges": "Fleet sync merges applied.",
    "sync_sessions_merged": "Peer sessions folded into local caches.",
    "sync_rejected": "Peer sync entries rejected (digest mismatch/malformed).",
    "routed": "Requests forwarded to a backend by the fleet router.",
    "rerouted": "Overloaded responses re-routed to another replica.",
    "failovers": "Requests re-dispatched after a backend transport failure.",
    "shed": "Requests returned overloaded (no replica had capacity).",
    "backends": "Backends configured on the fleet router's ring.",
    "backends_healthy": "Backends that answered their last probe or request.",
    "sync_rounds": "Cache/memo exchange rounds driven by the router.",
    "sync_sessions_moved": "Session deltas relayed between backends.",
    "cache_hits": "Chase-cache hits across all sessions.",
    "cache_misses": "Chase-cache misses across all sessions.",
    "cache_evictions": "Chase-cache LRU evictions.",
    "cache_hit_rate": "Chase-cache hit rate in [0, 1].",
    "memo_hits": "Containment-memo hits across all sessions.",
    "memo_misses": "Containment-memo misses across all sessions.",
    "memo_evictions": "Containment-memo LRU evictions.",
    "memo_hit_rate": "Containment-memo hit rate in [0, 1].",
    "p50_latency_s": "Median request latency over the bounded window (s).",
    "p95_latency_s": "p95 request latency over the bounded window (s).",
    "p99_latency_s": "p99 request latency over the bounded window (s).",
}


def _format_value(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_metrics(stats, histograms=None, namespace="repro"):
    """Render ``stats`` (a :class:`~repro.service.metrics.ServiceStats`)
    plus optional per-stage ``histograms`` as Prometheus exposition text.

    Every ``stats.as_dict()`` field becomes a ``<namespace>_<key>`` gauge;
    every numeric :class:`~repro.service.metrics.ShardStats` field becomes
    a ``<namespace>_shard_<field>`` gauge labelled by shard; ``histograms``
    (a :class:`~repro.service.metrics.StageHistograms` snapshot provider)
    becomes the ``<namespace>_stage_latency_seconds`` histogram family.
    """
    lines = []
    for key, value in stats.as_dict().items():
        name = f"{namespace}_{key}"
        lines.append(f"# HELP {name} {_HELP.get(key, key)}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(value)}")
    lines.extend(_render_shards(stats.shards, namespace))
    if histograms is not None:
        lines.extend(_render_histograms(histograms, namespace))
    return "\n".join(lines) + "\n"


def _render_shards(shards, namespace):
    if not shards:
        return []
    lines = []
    numeric_fields = [
        spec.name
        for spec in dataclass_fields(shards[0])
        if spec.name != "shard"
        and isinstance(getattr(shards[0], spec.name), (int, float))
    ]
    for field_name in numeric_fields:
        name = f"{namespace}_shard_{field_name}"
        lines.append(f"# HELP {name} Per-shard {field_name.replace('_', ' ')}.")
        lines.append(f"# TYPE {name} gauge")
        for shard in shards:
            value = _format_value(getattr(shard, field_name))
            lines.append(f'{name}{{shard="{shard.shard}"}} {value}')
    return lines


def _render_histograms(histograms, namespace):
    name = f"{namespace}_stage_latency_seconds"
    lines = [
        f"# HELP {name} Wall seconds billed to each request pipeline stage.",
        f"# TYPE {name} histogram",
    ]
    for stage, series in histograms.snapshot().items():
        for bound, cumulative in series["buckets"]:
            le = bound if isinstance(bound, str) else repr(float(bound))
            lines.append(f'{name}_bucket{{stage="{stage}",le="{le}"}} {cumulative}')
        lines.append(f'{name}_sum{{stage="{stage}"}} {repr(series["sum"])}')
        lines.append(f'{name}_count{{stage="{stage}"}} {series["count"]}')
    return lines


__all__ = ["render_metrics"]
