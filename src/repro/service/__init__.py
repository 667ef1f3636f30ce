"""Long-lived optimizer serving: sharded multi-query C&B with warm caches.

This package is the architectural step from "library call" to "service": an
:class:`OptimizerService` keeps worker pools and per-catalog chase caches
warm across :meth:`~repro.service.service.OptimizerService.submit` calls,
routes requests to shards by constraint-set signature, and runs the
backchase/OQF/OCS work of every in-flight query on its shard's worker pool.
Plan sets are signature-identical to single-shot
:class:`~repro.chase.optimizer.CBOptimizer` runs.

Modules
-------
``service``
    The façade: admission, routing, futures, lifecycle, cache snapshots.
``shard``
    Warm per-catalog sessions (chase caches + containment memos), bounded
    admission, request runner threads and one worker pool per shard.
``scheduler``
    The adapter that runs a request's backchase chunks and OQF/OCS stage
    tasks on its shard's worker pool.
``metrics``
    Per-request/shard/service accounting and latency percentiles.
``protocol``
    The JSONL request/response codec shared by the CLI, the socket server
    and the client.
``codec``
    The data-only session codec shared by snapshots and the fleet's
    shared snapshot store.
``server`` / ``client``
    The TCP front end: JSONL over a socket with graceful drain, typed
    overload responses, and id-based response demultiplexing; the client
    adds reconnect, bounded retries with capped exponential backoff, and
    deadline-aware give-up.
``snapshots``
    Crash-safe cache persistence: atomic snapshot files whose header and
    body checksum are checked before any session document is decoded,
    constraint-digest staleness detection, periodic + SIGUSR1-triggered
    snapshotting.
``faults``
    Deterministic, seedable fault injection threaded through the server,
    shards and snapshot IO — the chaos suite's backbone.
``observability``
    First-class observability: per-request span trees threaded through
    the whole pipeline (:class:`~repro.service.observability.Tracer`),
    the Prometheus/health HTTP sidecar
    (:class:`~repro.service.observability.httpd.ObservabilityServer`, not
    re-exported here: import it from ``repro.service.observability.httpd``,
    so only a process that serves HTTP loads ``http.server``) and the
    structured JSONL event log
    (:class:`~repro.service.observability.EventLog`).
"""

from repro.errors import (
    ConnectionLost,
    InjectedCrash,
    InjectedFault,
    ProtocolError,
    RunnerCrash,
    ServiceOverloaded,
    SnapshotError,
)
from repro.service.client import OptimizerClient
from repro.service.faults import FaultInjector
from repro.service.metrics import (
    RequestMetrics,
    ServiceStats,
    ShardStats,
    StageHistograms,
    percentile,
)
from repro.service.observability import EventLog, Tracer, log_event, render_metrics
from repro.service.scheduler import ScheduledPool
from repro.service.server import OptimizerServer
from repro.service.service import OptimizerService, ServiceRequest, ServiceResponse
from repro.service.shard import Shard, ShardSession, shard_index
from repro.service.snapshots import SnapshotManager, read_snapshot, write_snapshot

__all__ = [
    "ConnectionLost",
    "EventLog",
    "FaultInjector",
    "InjectedCrash",
    "InjectedFault",
    "OptimizerClient",
    "OptimizerServer",
    "OptimizerService",
    "ProtocolError",
    "RequestMetrics",
    "RunnerCrash",
    "ScheduledPool",
    "ServiceOverloaded",
    "ServiceRequest",
    "ServiceResponse",
    "ServiceStats",
    "Shard",
    "ShardSession",
    "ShardStats",
    "SnapshotError",
    "SnapshotManager",
    "StageHistograms",
    "Tracer",
    "log_event",
    "percentile",
    "read_snapshot",
    "render_metrics",
    "shard_index",
    "write_snapshot",
]
