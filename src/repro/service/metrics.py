"""Metrics for the long-lived optimizer service.

Everything the service reports — per-request latencies, per-shard cache,
memo and queue counters, service-wide aggregates — lives here,
together with the tiny percentile helper the benchmarks use for p50/p95
latency.  All collectors are thread-safe: requests complete on shard runner
threads and read-side calls (``OptimizerService.stats()``) can arrive
concurrently.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field


def percentile(values, fraction):
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1]).

    Returns 0.0 on an empty input so latency summaries degrade gracefully
    before any request completed.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class RequestMetrics:
    """Per-request accounting attached to every :class:`ServiceResponse`.

    ``cache_hits`` / ``cache_misses`` (chase fixpoints) and ``memo_hits`` /
    ``memo_misses`` (containment verdicts) are deltas of the session's
    counters across the request's runtime.  With ``max_inflight > 1``,
    concurrent requests against the *same* catalog share that session, so
    the deltas are best-effort attribution (they may include a concurrent
    sibling's activity); the :class:`ShardStats` aggregates are always
    exact.  Run single-inflight when per-request numbers must be precise.
    """

    request_id: object
    shard: int
    session: str
    strategy: str
    latency: float
    plan_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    timed_out: bool = False
    error: str | None = None


@dataclass
class ShardStats:
    """One shard's snapshot: sessions, queue, cache and memo state.

    ``queue_depth`` is the *current* admitted-request gauge (queued on the
    runner pool plus executing), ``queue_peak`` its high-water mark and
    ``rejected`` the requests shed at admission
    (:class:`~repro.errors.ServiceOverloaded`).  ``runner_failures`` counts
    requests whose runner thread died executing them (each resolved with a
    typed :class:`~repro.errors.RunnerCrash`), ``runner_restarts`` the
    replacement runners the supervisor spawned.
    """

    shard: int
    sessions: int
    sessions_evicted: int
    requests: int
    cache_caches: int
    cache_entries: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    queue_depth: int = 0
    queue_peak: int = 0
    rejected: int = 0
    runner_restarts: int = 0
    runner_failures: int = 0
    memo_entries: int = 0
    memo_hits: int = 0
    memo_misses: int = 0
    memo_evictions: int = 0

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def memo_hit_rate(self):
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0


@dataclass
class ServiceStats:
    """Service-wide snapshot returned by :meth:`OptimizerService.stats`.

    ``latencies`` (and therefore the percentiles) cover the collector's
    most recent bounded window; ``requests``/``errors``/``rejected`` are
    exact totals (rejected requests never execute, so they appear in no
    other counter).  ``recoveries`` counts cold-start recoveries after a
    snapshot that could not be loaded (missing/corrupt/wrong version) and
    ``stale_sessions`` the per-session loads skipped because their
    constraint-set signature no longer matched the snapshot manifest.
    """

    shards: list = field(default_factory=list)
    requests: int = 0
    errors: int = 0
    rejected: int = 0
    recoveries: int = 0
    stale_sessions: int = 0
    snapshots_loaded: int = 0
    sessions_restored: int = 0
    sync_exports: int = 0
    sync_sessions_exported: int = 0
    sync_merges: int = 0
    sync_sessions_merged: int = 0
    sync_rejected: int = 0
    latencies: list = field(default_factory=list, repr=False)

    @property
    def cache_hits(self):
        return sum(shard.cache_hits for shard in self.shards)

    @property
    def cache_misses(self):
        return sum(shard.cache_misses for shard in self.shards)

    @property
    def cache_evictions(self):
        return sum(shard.cache_evictions for shard in self.shards)

    @property
    def cache_hit_rate(self):
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def memo_hits(self):
        return sum(shard.memo_hits for shard in self.shards)

    @property
    def memo_misses(self):
        return sum(shard.memo_misses for shard in self.shards)

    @property
    def memo_evictions(self):
        return sum(shard.memo_evictions for shard in self.shards)

    @property
    def memo_hit_rate(self):
        total = self.memo_hits + self.memo_misses
        return self.memo_hits / total if total else 0.0

    @property
    def queue_depth(self):
        return sum(shard.queue_depth for shard in self.shards)

    @property
    def queue_peak(self):
        return sum(shard.queue_peak for shard in self.shards)

    @property
    def runner_restarts(self):
        return sum(shard.runner_restarts for shard in self.shards)

    @property
    def runner_failures(self):
        return sum(shard.runner_failures for shard in self.shards)

    @property
    def p50_latency(self):
        return percentile(self.latencies, 0.50)

    @property
    def p95_latency(self):
        return percentile(self.latencies, 0.95)

    @property
    def p99_latency(self):
        return percentile(self.latencies, 0.99)

    def as_dict(self):
        """JSON-friendly summary (the CLI's ``serve``/``batch`` print this)."""
        return {
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "shards": len(self.shards),
            "sessions": sum(shard.sessions for shard in self.shards),
            "sessions_evicted": sum(shard.sessions_evicted for shard in self.shards),
            "queue_depth": self.queue_depth,
            "queue_peak": self.queue_peak,
            "runner_restarts": self.runner_restarts,
            "runner_failures": self.runner_failures,
            "recoveries": self.recoveries,
            "stale_sessions": self.stale_sessions,
            "snapshots_loaded": self.snapshots_loaded,
            "sessions_restored": self.sessions_restored,
            "sync_exports": self.sync_exports,
            "sync_sessions_exported": self.sync_sessions_exported,
            "sync_merges": self.sync_merges,
            "sync_sessions_merged": self.sync_sessions_merged,
            "sync_rejected": self.sync_rejected,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_evictions": self.memo_evictions,
            "memo_hit_rate": round(self.memo_hit_rate, 4),
            "p50_latency_s": round(self.p50_latency, 6),
            "p95_latency_s": round(self.p95_latency, 6),
            "p99_latency_s": round(self.p99_latency, 6),
        }


class MetricsCollector:  # repro-lint: ignore[pickle-safety] never pickled — snapshots persist caches, not gauges
    """Thread-safe accumulator for completed-request metrics.

    Latencies are kept in a bounded ring buffer (``max_samples``, default
    4096): a long-lived service must not grow per-request state without
    bound, so the percentiles describe the most recent window while the
    request/error/rejection totals stay exact.
    """

    def __init__(self, max_samples=4096):
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=max_samples)  # guarded-by: _lock
        self._requests = 0  # guarded-by: _lock
        self._errors = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock
        self._recoveries = 0  # guarded-by: _lock
        self._stale_sessions = 0  # guarded-by: _lock
        self._snapshots_loaded = 0  # guarded-by: _lock
        self._sessions_restored = 0  # guarded-by: _lock
        self._sync_exports = 0  # guarded-by: _lock
        self._sync_sessions_exported = 0  # guarded-by: _lock
        self._sync_merges = 0  # guarded-by: _lock
        self._sync_sessions_merged = 0  # guarded-by: _lock
        self._sync_rejected = 0  # guarded-by: _lock

    def record(self, metrics):
        with self._lock:
            self._requests += 1
            self._latencies.append(metrics.latency)
            if metrics.error is not None:
                self._errors += 1

    def record_rejection(self):
        """Count an admission rejection (the request never executed)."""
        with self._lock:
            self._rejected += 1

    def record_recovery(self):
        """Count a cold-start recovery from an unusable snapshot."""
        with self._lock:
            self._recoveries += 1

    def record_stale_sessions(self, count):
        """Count snapshot sessions skipped for a changed constraint signature."""
        with self._lock:
            self._stale_sessions += count

    def record_snapshot_load(self, sessions):
        """Count one successful snapshot load and the ``sessions`` it restored."""
        with self._lock:
            self._snapshots_loaded += 1
            self._sessions_restored += sessions

    def record_sync_export(self, sessions):
        """Count one fleet sync export and the hot ``sessions`` it shipped."""
        with self._lock:
            self._sync_exports += 1
            self._sync_sessions_exported += sessions

    def record_sync_merge(self, merged, rejected):
        """Count one fleet sync merge: sessions folded in vs. rejected.

        Rejections are digest-mismatch (the peer's constraint set is not the
        one this digest names — its fixpoints are unusable here) or
        malformed entries; both are skipped, never partially merged.
        """
        with self._lock:
            self._sync_merges += 1
            self._sync_sessions_merged += merged
            self._sync_rejected += rejected

    def snapshot(self):
        """Return ``(requests, errors, rejected, recent latencies)`` as copies."""
        with self._lock:
            return self._requests, self._errors, self._rejected, list(self._latencies)

    def sync_snapshot(self):
        """Return the fleet-sync counters as one consistent tuple."""
        with self._lock:
            return (
                self._sync_exports,
                self._sync_sessions_exported,
                self._sync_merges,
                self._sync_sessions_merged,
                self._sync_rejected,
            )

    def recovery_snapshot(self):
        """Return ``(recoveries, stale_sessions, snapshots_loaded, sessions_restored)``."""
        with self._lock:
            return (
                self._recoveries,
                self._stale_sessions,
                self._snapshots_loaded,
                self._sessions_restored,
            )


#: Default latency buckets (seconds) for the per-stage histograms: spaced
#: to resolve both cache-hit requests (sub-millisecond stages) and cold
#: chase fixpoints (seconds).
STAGE_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
)


class StageHistograms:  # repro-lint: ignore[pickle-safety] never pickled — live Prometheus state, not snapshot payload
    """Thread-safe per-stage latency histograms (Prometheus semantics).

    One cumulative-bucket histogram per pipeline stage
    (:data:`repro.trace.STAGES` plus any future instrumentation), fed live
    by :class:`~repro.trace.RequestTrace` observers at record time.  Each
    series keeps per-bucket counts, a running sum and a total count — the
    exact triple the Prometheus text format's ``_bucket``/``_sum``/
    ``_count`` lines need.
    """

    def __init__(self, buckets=STAGE_LATENCY_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._series = {}  # guarded-by: _lock  stage -> [bucket counts + inf, sum, count]

    def observe_stage(self, stage, seconds):
        """Record one observation of ``seconds`` spent in ``stage``."""
        with self._lock:
            series = self._series.setdefault(
                stage, [[0] * (len(self.buckets) + 1), 0.0, 0]
            )
            counts, _, _ = series
            for index, bound in enumerate(self.buckets):
                if seconds <= bound:
                    counts[index] += 1
                    break
            else:
                counts[len(self.buckets)] += 1
            series[1] += seconds
            series[2] += 1

    def snapshot(self):
        """``{stage: {"buckets": [(le, cumulative), ...], "sum", "count"}}``.

        Bucket counts come back *cumulative* (Prometheus ``le`` semantics),
        with a final ``("+Inf", count)`` entry.
        """
        with self._lock:
            series = {
                stage: (list(counts), total, count)
                for stage, (counts, total, count) in self._series.items()
            }
        snapshot = {}
        for stage, (counts, total, count) in sorted(series.items()):
            cumulative = []
            running = 0
            for bound, bucket_count in zip(self.buckets, counts):
                running += bucket_count
                cumulative.append((bound, running))
            cumulative.append(("+Inf", count))
            snapshot[stage] = {
                "buckets": cumulative,
                "sum": total,
                "count": count,
            }
        return snapshot


__all__ = [
    "MetricsCollector",
    "RequestMetrics",
    "STAGE_LATENCY_BUCKETS",
    "ServiceStats",
    "ShardStats",
    "StageHistograms",
    "percentile",
]
