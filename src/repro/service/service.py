"""The long-lived optimizer service: sharded multi-query C&B serving.

:class:`OptimizerService` turns the library-call optimizer into a serving
layer:

* **Warm state.**  Worker pools and per-catalog chase caches are created
  once and kept alive across ``submit`` calls, so the second request against
  a catalog pays neither pool startup nor re-chasing (every chase fixpoint —
  the input query's, the backchase candidates', the OQF fragments', the OCS
  stages' — is memoised per constraint set and reused).
* **Sharding.**  Requests are routed by the signature of their constraint
  set (:func:`~repro.service.shard.shard_index`), so one catalog's traffic
  always lands on the same shard — and therefore the same warm caches —
  while distinct catalogs spread over the shard pool.
* **One worker pool per shard.**  Within a shard, the backchase wave chunks
  and OQF/OCS stage tasks of every in-flight request go straight to the
  shard's worker pool through a per-request
  :class:`~repro.service.scheduler.ScheduledPool`; each request waits on
  its own futures.

Plan sets are signature-identical to a fresh
:class:`~repro.chase.optimizer.CBOptimizer` run with the same knobs: the
service reuses the exact engine code paths, shares only per-constraint-set
chase fixpoints (which are deterministic), and never reorders any
plan-producing merge.  The test suite and the ``serve-smoke`` target assert
this end to end.

Usage::

    from repro.service import OptimizerService

    with OptimizerService(shards=2, workers=2) as service:
        future = service.submit(workload.query, catalog=workload.catalog)
        response = future.result()
        print(response.result.plan_count, service.stats().cache_hit_rate)
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

from repro.errors import ServiceOverloaded
from repro.chase.implication import constraints_digest
from repro.chase.optimizer import STRATEGIES
from repro.service.metrics import MetricsCollector, ServiceStats
from repro.service.observability.events import log_event
from repro.service.protocol import decode_sync_session, plan_digest
from repro.service.shard import Shard, shard_index


@dataclass
class ServiceRequest:
    """One admitted optimization request.

    Either ``catalog`` or an explicit ``constraints`` list must be given
    (mirroring :class:`~repro.chase.optimizer.CBOptimizer`); OQF needs the
    catalog's skeletons, so strategy ``"oqf"`` requires ``catalog``.
    """

    query: object
    strategy: str = "fb"
    catalog: object = None
    constraints: list | None = None
    timeout: float | None = None
    request_id: object = None

    def resolved_constraints(self):
        """The dependency set the request will be chased under (for routing)."""
        if self.constraints is not None:
            return list(self.constraints)
        return list(self.catalog.constraints())

    def validate(self):
        if self.catalog is None and self.constraints is None:
            raise ValueError("ServiceRequest needs a catalog or an explicit constraint list")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )


@dataclass
class ServiceResponse:
    """What a request's future resolves to.

    ``result`` is the engine's :class:`~repro.chase.optimizer.OptimizationResult`
    (``None`` on error); ``metrics`` the per-request service accounting.
    ``error_type`` carries the failure's exception class name (e.g.
    ``"RunnerCrash"``, ``"ChaseTimeout"``) so callers and the JSONL
    protocol can distinguish failure modes without parsing messages.

    When the service runs with a tracer, ``trace`` is the request's
    finished :class:`~repro.trace.RequestTrace` span tree (admission wait,
    queue wait, chase, containment, restrict, serialize — with cache/memo
    attribution) and ``plan_digests`` the protocol plan-set signature,
    computed inside the trace's ``serialize`` span so the JSONL encoder
    reuses it instead of re-hashing.
    """

    request_id: object
    result: object = None
    metrics: object = None
    error: str | None = None
    error_type: str | None = None
    trace: object = None
    plan_digests: list | None = None

    @property
    def ok(self):
        return self.error is None

    def raise_for_error(self):
        """Re-raise the request's failure, if any (returns self otherwise)."""
        if self.error is not None:
            raise RuntimeError(f"request {self.request_id!r} failed: {self.error}")
        return self


@dataclass
class _PendingRequest:  # repro-lint: ignore[pickle-safety] never pickled — lives only inside one submit() call's plumbing
    """Book-keeping pairing an admitted request with its future."""

    request: ServiceRequest
    trace: object = None
    future: Future = field(default_factory=Future)
    _claim: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def claim(self):
        """Atomically claim the right to resolve this request (once ever)."""
        return self._claim.acquire(blocking=False)


class OptimizerService:  # repro-lint: ignore[pickle-safety] never pickled — save_caches() exports session state instead
    """Long-lived, sharded, cache-warm C&B optimizer service.

    Parameters
    ----------
    shards:
        Number of independent shards (runner threads + worker pool +
        sessions each).  Catalogs are spread over shards deterministically.
    workers:
        Threads of every shard's worker pool (``None`` = CPU count).  The
        pool is a thread pool, never a process pool: detached workers
        could not share the warm caches that justify the service.
    max_inflight:
        Concurrently executing requests (runner threads) per shard.
    max_queue_depth:
        Admission bound per shard: maximum requests admitted at a time
        (executing plus waiting for a runner thread).  Past it,
        :meth:`submit` raises :class:`~repro.errors.ServiceOverloaded`
        instead of queueing without bound (``None`` = unbounded, the
        historical in-process behaviour).
    max_cache_entries:
        LRU bound for every per-constraint-set chase cache (``None`` =
        unbounded; set this for long-lived deployments).
    max_memo_entries:
        LRU bound for every session's containment memo (``None`` =
        unbounded).
    max_sessions:
        LRU bound on warm sessions per shard (``None`` = unbounded; set
        this too for long-lived deployments serving many distinct
        catalogs).
    default_timeout:
        Per-request wall-clock budget applied when a request carries none.
    overload_retry_after:
        Optional back-off hint (seconds) attached to admission rejections;
        surfaced on ``overloaded`` responses for retrying clients.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector` threaded
        through shard execution and snapshot IO (chaos testing).
    tracer:
        Optional :class:`~repro.service.observability.tracing.Tracer`.
        When set, every admitted request carries a
        :class:`~repro.trace.RequestTrace` through shard queueing, the
        worker pool and the engine's chase/containment/restrict stages, and
        every :class:`ServiceResponse` comes back with the finished span
        tree on ``response.trace``.
    event_log:
        Optional :class:`~repro.service.observability.events.EventLog`;
        the service emits ``request.admitted`` / ``request.rejected`` /
        ``request.completed`` events (shards add runner crash/restart,
        snapshot loads add ``snapshot.loaded`` / ``snapshot.recovered``).
    """

    def __init__(
        self,
        shards=1,
        workers=None,
        max_inflight=4,
        max_queue_depth=None,
        max_cache_entries=None,
        max_memo_entries=None,
        max_sessions=None,
        default_timeout=None,
        overload_retry_after=None,
        fault_injector=None,
        tracer=None,
        event_log=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        self.default_timeout = default_timeout
        self.fault_injector = fault_injector
        self.tracer = tracer
        self.event_log = event_log
        self._shards = [
            Shard(
                shard_id,
                workers=workers,
                max_inflight=max_inflight,
                max_queue_depth=max_queue_depth,
                max_cache_entries=max_cache_entries,
                max_memo_entries=max_memo_entries,
                max_sessions=max_sessions,
                overload_retry_after=overload_retry_after,
                fault_injector=fault_injector,
                event_log=event_log,
            )
            for shard_id in range(shards)
        ]
        self._metrics = MetricsCollector()
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        #: Per-session delta markers for export_sync (signature ->
        #: {"caches": {cache_sig: marker}, "memo": marker}), so each sync
        #: round ships only what was learned since the previous one.
        self._sync_markers = {}  # guarded-by: _sync_lock
        self._sync_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        query,
        strategy="fb",
        catalog=None,
        constraints=None,
        timeout=None,
        request_id=None,
    ):
        """Admit one request; returns a Future of :class:`ServiceResponse`.

        The future always resolves to a response — engine failures are
        reported on ``response.error`` rather than raised, so a JSONL batch
        over a mixed workload degrades per-request instead of aborting.
        Admission is the exception: past a shard's ``max_queue_depth`` the
        call raises :class:`~repro.errors.ServiceOverloaded` *synchronously*
        (no future exists — nothing was admitted), so callers can shed or
        retry immediately.
        """
        admitted_at = time.perf_counter()
        request = ServiceRequest(
            query=query,
            strategy=strategy,
            catalog=catalog,
            constraints=constraints,
            timeout=timeout if timeout is not None else self.default_timeout,
            request_id=request_id if request_id is not None else next(self._request_ids),
        )
        request.validate()
        with self._lock:
            if self._closed:
                raise RuntimeError("OptimizerService is shut down")
            index = shard_index(request.resolved_constraints(), len(self._shards))
            shard = self._shards[index]
        trace = (
            self.tracer.start_trace(request.request_id)
            if self.tracer is not None
            else None
        )
        pending = _PendingRequest(request, trace=trace)
        try:
            shard.submit(request, self._make_resolver(pending), trace=trace)
        except ServiceOverloaded:
            self._metrics.record_rejection()
            if trace is not None:
                self.tracer.export(trace.finish("rejected"))
            log_event(
                self.event_log,
                "request.rejected",
                request_id=request.request_id,
                shard=index,
                strategy=request.strategy,
            )
            raise
        if trace is not None:
            # Admission wait: validation, routing and the admission-control
            # gate — everything between entering submit and the request
            # landing on a runner queue.
            trace.record("admission_wait", time.perf_counter() - admitted_at)
        log_event(
            self.event_log,
            "request.admitted",
            request_id=request.request_id,
            shard=index,
            strategy=request.strategy,
        )
        return pending.future

    def submit_many(self, requests):
        """Admit a batch (iterable of dicts or :class:`ServiceRequest` field
        mappings) and wait for all; returns responses in submission order."""
        futures = [
            self.submit(**(request if isinstance(request, dict) else vars(request)))
            for request in requests
        ]
        return [future.result() for future in futures]

    def _make_resolver(self, pending):
        def on_done(request, result, metrics, exc):
            # A request resolves exactly once: the normal completion path
            # and a crashed runner's typed-failure path can both call the
            # resolver, but only the claim winner records + resolves —
            # counted *before* set_result, so a caller waking from
            # future.result() already sees itself in the service totals.
            if not pending.claim():
                return
            trace = pending.trace
            plan_digests = None
            if trace is not None:
                if result is not None:
                    # The serialize span: the protocol's plan-set signature
                    # is computed here, inside the trace's root duration,
                    # and reused by encode_response — so the stage sum
                    # stays bounded by the measured request latency.
                    serialize_started = time.perf_counter()
                    plan_digests = plan_digest(result.plans)
                    trace.record(
                        "serialize", time.perf_counter() - serialize_started
                    )
                trace.finish("ok" if exc is None else "error")
            self._metrics.record(metrics)
            if trace is not None and self.tracer is not None:
                self.tracer.export(trace)
            log_event(
                self.event_log,
                "request.completed",
                request_id=request.request_id,
                shard=metrics.shard,
                status="ok" if exc is None else "error",
                latency_s=round(metrics.latency, 6),
            )
            pending.future.set_result(
                ServiceResponse(
                    request_id=request.request_id,
                    result=result,
                    metrics=metrics,
                    error=None if exc is None else str(exc),
                    error_type=None if exc is None else type(exc).__name__,
                    trace=trace,
                    plan_digests=plan_digests,
                )
            )

        return on_done

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    @property
    def shard_count(self):
        return len(self._shards)

    def shard_for(self, catalog=None, constraints=None):
        """The shard index a catalog/constraint set routes to (for tests)."""
        deps = list(constraints) if constraints is not None else list(catalog.constraints())
        return shard_index(deps, len(self._shards))

    def stats(self):
        """Service-wide snapshot: shards, caches, memos, queues, latencies."""
        requests, errors, rejected, latencies = self._metrics.snapshot()
        recoveries, stale_sessions, snapshots_loaded, sessions_restored = (
            self._metrics.recovery_snapshot()
        )
        (
            sync_exports,
            sync_sessions_exported,
            sync_merges,
            sync_sessions_merged,
            sync_rejected,
        ) = self._metrics.sync_snapshot()
        return ServiceStats(
            shards=[shard.stats() for shard in self._shards],
            requests=requests,
            errors=errors,
            rejected=rejected,
            recoveries=recoveries,
            stale_sessions=stale_sessions,
            snapshots_loaded=snapshots_loaded,
            sessions_restored=sessions_restored,
            sync_exports=sync_exports,
            sync_sessions_exported=sync_sessions_exported,
            sync_merges=sync_merges,
            sync_sessions_merged=sync_sessions_merged,
            sync_rejected=sync_rejected,
            latencies=latencies,
        )

    def readiness(self):
        """Readiness probe: ``(ready, detail)`` for the ``/readyz`` endpoint.

        Ready means the service still admits requests (not shut down) and
        every shard's supervised runner pool has at least one live runner —
        a shard with zero runners would admit requests that nothing ever
        executes.  Snapshot-loaded readiness is layered on top by the CLI
        (it knows whether a ``--snapshot`` was requested).
        """
        with self._lock:
            closed = self._closed
        if closed:
            return False, {"reason": "service is shut down"}
        stalled = [
            shard.shard_id for shard in self._shards if shard.live_runners() == 0
        ]
        if stalled:
            return False, {"reason": "shards without live runners", "shards": stalled}
        return True, {"shards": len(self._shards)}

    # ------------------------------------------------------------------ #
    # cache persistence (warm restarts)
    # ------------------------------------------------------------------ #
    def save_caches(self, path, faults=None):
        """Snapshot every shard's warm sessions (chase caches + memos) to ``path``.

        Returns the number of sessions saved.  The write is crash-safe
        (:func:`~repro.service.snapshots.write_snapshot`: temp file + fsync +
        atomic rename, manifest with per-session constraint digests, payload
        checksum), so it is safe to call from the periodic
        :class:`~repro.service.snapshots.SnapshotManager` loop while traffic
        is in flight — a concurrent snapshot may merely miss the newest
        entries; it can never leave a torn file.
        """
        from repro.service.snapshots import write_snapshot

        return write_snapshot(
            path,
            self.export_sessions(),
            faults=faults if faults is not None else self.fault_injector,
        )

    def export_sessions(self):
        """Every shard's warm sessions as snapshot-shaped dicts.

        The same ``{"signature", "label", "registry", "memo"}`` shape
        :func:`~repro.service.snapshots.write_snapshot` persists — shared by
        :meth:`save_caches` (one file) and the fleet's
        :class:`~repro.service.fleet.store.SnapshotStore` (one file per
        constraint digest).
        """
        sessions = []
        for shard in self._shards:
            for signature, label, registry, memo in shard.export_sessions():
                sessions.append(
                    {"signature": signature, "label": label, "registry": registry, "memo": memo}
                )
        return sessions

    def restore_session(self, signature, label, registry, memo):
        """Install one exported session, routed like live traffic.

        Routing goes through :func:`~repro.service.shard.shard_index` on the
        structural constraint digest, so restored state lands exactly where
        admission will send that constraint set's requests.
        """
        constraints = list(signature)
        shard = self._shards[shard_index(constraints, len(self._shards))]
        shard.restore_session(signature, label, registry, memo)

    def load_caches(self, path, faults=None):
        """Restore a :meth:`save_caches` snapshot into this service's shards.

        Each session is re-routed by its constraint-set signature (the same
        :func:`~repro.service.shard.shard_index` admission uses), so the
        shard count may differ from the saving process's.  Placement
        compatibility: ``shard_index`` hashes the structural
        :func:`~repro.chase.implication.constraints_digest` — the identity
        the snapshot manifest itself records — so re-routing agrees with
        staleness: a session the manifest says is fresh lands exactly where
        admission will route that constraint set's traffic, even across
        processes (and across fleet backends sharing a snapshot store).
        Sessions whose
        constraint-set digest no longer matches the snapshot manifest are
        *skipped* (stale: their fixpoints were computed under different
        constraints) and counted in ``stats().stale_sessions``.  Returns the
        number of sessions restored; raises
        :class:`~repro.errors.SnapshotError` when the file itself is
        missing, corrupt, fails its checksum, or has an unsupported version
        (use :meth:`recover_caches` to degrade to a cold start instead).
        """
        from repro.service.snapshots import read_snapshot

        _, entries = read_snapshot(
            path, faults=faults if faults is not None else self.fault_injector
        )
        restored = 0
        stale = 0
        for entry, is_stale in entries:
            if is_stale:
                stale += 1
                continue
            self.restore_session(
                entry["signature"], entry["label"], entry["registry"], entry["memo"]
            )
            restored += 1
        if stale:
            self._metrics.record_stale_sessions(stale)
        self._metrics.record_snapshot_load(restored)
        log_event(
            self.event_log,
            "snapshot.loaded",
            path=os.fspath(path),
            sessions_restored=restored,
            stale_sessions=stale,
        )
        return restored

    # ------------------------------------------------------------------ #
    # fleet sync (cross-process cache/memo exchange)
    # ------------------------------------------------------------------ #
    def export_sync(self):
        """Export every warm session's cache/memo *deltas* for a fleet peer.

        Returns a list of wire entries
        (:func:`~repro.service.protocol.encode_sync_session`): one per
        session that learned anything since the previous export — new chase
        fixpoints (per-constraint-set cache entries) and new containment
        verdicts.  Per-session markers make consecutive calls incremental;
        an entry landing mid-export is shipped twice, which
        :meth:`merge_sync` absorbs (merges are idempotent).
        """
        from repro.service.protocol import encode_sync_session

        exported = []
        for shard in self._shards:
            for signature, label, registry, memo in shard.export_sessions():
                with self._sync_lock:
                    markers = self._sync_markers.setdefault(
                        signature, {"caches": {}, "memo": 0}
                    )
                    cache_markers = dict(markers["caches"])
                    memo_marker = markers["memo"]
                entries, new_cache_markers = registry.export_entries(cache_markers)
                new_memo_marker = memo.snapshot()
                memo_entries = memo.export_since(memo_marker)
                with self._sync_lock:
                    markers = self._sync_markers[signature]
                    markers["caches"].update(new_cache_markers)
                    markers["memo"] = new_memo_marker
                if not entries and not memo_entries:
                    continue
                exported.append(
                    encode_sync_session(signature, entries, memo_entries, label=label)
                )
        self._metrics.record_sync_export(len(exported))
        log_event(self.event_log, "sync.exported", sessions=len(exported))
        return exported

    def merge_sync(self, sessions):
        """Merge a peer's :meth:`export_sync` payload; returns ``(merged, rejected)``.

        The constraint-digest guard: each entry's structural digest is
        *recomputed* from the payload's exact constraint set and compared
        against the advertised one — on mismatch the entry is rejected
        whole (counted, never partially merged), because exchanged fixpoints
        and verdicts are only valid under the dependency set they were
        computed with.  Accepted entries route by the same
        :func:`~repro.service.shard.shard_index` admission uses, creating
        the session on first contact, so a scaled-up replica warms catalogs
        it has never served.
        """
        merged = 0
        rejected = 0
        for entry in sessions:
            try:
                advertised, payload = decode_sync_session(entry)
            except ValueError:
                rejected += 1
                continue
            signature = payload["signature"]
            if constraints_digest(signature) != advertised:
                rejected += 1
                continue
            constraints = list(signature)
            with self._lock:
                if self._closed:
                    break
                shard = self._shards[shard_index(constraints, len(self._shards))]
            session = shard.session_for(constraints)
            session.registry.merge_entries(payload.get("caches") or {})
            session.memo.merge_exported(payload.get("memo") or [])
            merged += 1
        self._metrics.record_sync_merge(merged, rejected)
        log_event(self.event_log, "sync.merged", sessions=merged, rejected=rejected)
        return merged, rejected

    def recover_caches(self, path):
        """Load a snapshot, degrading to a cold start on *any* failure.

        The crash-recovery contract of the serving layer: an unusable
        snapshot (missing, truncated, checksum mismatch, wrong version) must
        never crash the server at boot and never serve stale state — it
        costs a recovery (counted in ``stats().recoveries``) and an empty
        cache, nothing more.  Returns ``(sessions_restored, error)`` where
        ``error`` is ``None`` on success or the
        :class:`~repro.errors.SnapshotError` explaining the cold start.
        """
        from repro.errors import SnapshotError

        try:
            return self.load_caches(path), None
        except SnapshotError as error:
            self._metrics.record_recovery()
            log_event(
                self.event_log,
                "snapshot.recovered",
                path=os.fspath(path),
                error=str(error),
            )
            return 0, error

    def shutdown(self, wait=True):
        """Drain every shard and release the pools (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for shard in self._shards:
            shard.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.shutdown()
        return False


__all__ = ["OptimizerService", "ServiceRequest", "ServiceResponse"]
