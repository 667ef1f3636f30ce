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
* **Store read-through.**  With a shared
  :class:`~repro.service.fleet.store.SnapshotStore`, a request that creates
  its session first loads that constraint digest's store file, so a process
  serves warm state that any fleet member saved.

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

from repro.errors import ServiceOverloaded, SnapshotError
from repro.chase.implication import constraints_digest
from repro.chase.optimizer import STRATEGIES
from repro.service.codec import Session, encode_session
from repro.service.metrics import MetricsCollector, ServiceStats
from repro.service.observability.events import log_event
from repro.service.protocol import plan_digest
from repro.service.shard import Shard, shard_index
from repro.service.snapshots import read_snapshot, write_snapshot


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
    queue wait, store load, chase, containment, restrict, serialize — with
    cache/memo attribution) and ``plan_digests`` the protocol plan-set
    signature, computed inside the trace's ``serialize`` span so the JSONL
    encoder reuses it instead of re-hashing.
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
class _PendingRequest:
    """Book-keeping pairing an admitted request with its future."""

    request: ServiceRequest
    trace: object = None
    future: Future = field(default_factory=Future)
    _claim: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def claim(self):
        """Atomically claim the right to resolve this request (once ever)."""
        return self._claim.acquire(blocking=False)


class OptimizerService:
    """Long-lived, sharded, cache-warm C&B optimizer service.

    Parameters
    ----------
    shards:
        Number of independent shards (runner threads + worker pool +
        sessions each).  Catalogs are spread over shards deterministically.
    workers:
        Threads of every shard's worker pool (``None`` = CPU count).  The
        pool's threads share the session's warm caches and memo.
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
    store:
        Optional :class:`~repro.service.fleet.store.SnapshotStore`.  When a
        request creates its session, the runner first loads
        ``store.path_for(digest)`` through :meth:`recover_caches`: a bad
        file costs a counted recovery and a cold start, and a missing file
        is a plain cold start, counted nowhere.
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
        store=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        self.default_timeout = default_timeout
        self.fault_injector = fault_injector
        self.tracer = tracer
        self.event_log = event_log
        self.store = store
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
                on_new_session=self._read_through if store is not None else None,
            )
            for shard_id in range(shards)
        ]
        self._metrics = MetricsCollector()
        self._request_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock

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
        admitted_at = time.perf_counter()
        pending = _PendingRequest(request, trace=trace)
        try:
            task = shard.submit(request, self._make_resolver(pending), trace=trace)
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
            # Admission wait: the admission-control gate, from the trace's
            # start until the request lands on its runner queue.  It ends
            # where the shard's queue_wait starts, so no interval is billed
            # twice and the stages stay within the root span.
            trace.record("admission_wait", task.enqueued_at - admitted_at)
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
        return ServiceStats(
            shards=[shard.stats() for shard in self._shards],
            requests=requests,
            errors=errors,
            rejected=rejected,
            recoveries=recoveries,
            stale_sessions=stale_sessions,
            snapshots_loaded=snapshots_loaded,
            sessions_restored=sessions_restored,
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
    # warm state: one export path and one merge path for every sink
    # ------------------------------------------------------------------ #
    def export_sessions(self):
        """Every warm session as a session document — the one export path.

        Entries are copied under their owner's lock, so this is safe under
        traffic; an entry landing mid-export may simply be missed.
        """
        return [
            _encode(session) for shard in self._shards for session in shard.sessions()
        ]

    def changed_sessions(self):
        """``(session, misses, document)`` for every loaded session that may
        differ from its snapshot-store file: one this process has neither
        loaded from nor saved to the store, or one that missed (computed a
        fixpoint or a verdict) since it last did.  A session still loading is
        skipped, so a save never writes a half-merged copy over its file.
        The saver records ``misses`` as ``session.stored_misses`` once the
        document is written.
        """
        changed = []
        for shard in self._shards:
            for session in shard.sessions():
                if not session.loaded.is_set():
                    continue
                misses = session.misses()
                if misses != session.stored_misses:
                    changed.append((session, misses, _encode(session)))
        return changed

    def _merge(self, session):
        """The one merge path: install a decoded session; False if stale.

        The digest is *recomputed* from the decoded constraint set; on a
        mismatch nothing merges, because fixpoints and verdicts are only
        valid under the exact dependency set they were computed with.
        Otherwise the session routes like live traffic (so the shard count
        may differ from the exporter's) and merges idempotently into
        ``session_for`` under that shard's cache, memo and session bounds,
        leaving this service's hit/miss counters untouched; the target is
        then marked loaded, so requests waiting on it run warm.
        """
        constraints = session.constraints
        if constraints_digest(constraints) != session.constraints_digest:
            return False
        target, _ = self._shards[shard_index(constraints, len(self._shards))].session_for(
            constraints
        )
        target.registry.merge_entries(session.caches)
        target.memo.merge_exported(session.verdicts)
        target.loaded.set()
        return True

    def save_caches(self, path, faults=None):
        """Snapshot every shard's warm sessions to ``path``; returns the count.

        The write is crash-safe (:func:`~repro.service.snapshots.
        write_snapshot`: temp file + fsync + atomic rename, body checksum in
        the header), so it is safe to call from the periodic
        :class:`~repro.service.snapshots.SnapshotManager` loop while traffic
        is in flight — a concurrent snapshot may merely miss the newest
        entries; it can never leave a torn file.
        """
        return write_snapshot(
            path,
            self.export_sessions(),
            faults=faults if faults is not None else self.fault_injector,
        )

    def load_caches(self, path, faults=None):
        """Merge a :meth:`save_caches` snapshot into this service's shards.

        Every session goes through :meth:`_merge`; one whose recomputed
        digest disagrees with the file's is skipped as stale and counted in
        ``stats().stale_sessions``.  Returns the number of sessions
        restored; raises :class:`~repro.errors.SnapshotError` when the file
        itself is unusable (use :meth:`recover_caches` to degrade to a cold
        start instead).
        """
        sessions = read_snapshot(
            path, faults=faults if faults is not None else self.fault_injector
        )
        restored = sum(1 for session in sessions if self._merge(session))
        stale = len(sessions) - restored
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

    def recover_caches(self, path):
        """Load a snapshot, degrading to a cold start on *any* failure.

        The crash-recovery contract of the serving layer: an unusable
        snapshot (missing, truncated, checksum mismatch, wrong version, an
        old pickle snapshot) must never crash the server at boot and never
        serve stale state — it costs a recovery (counted in
        ``stats().recoveries``) and an empty cache, nothing more.  Returns
        ``(sessions_restored, error)``; ``error`` is ``None`` on success.
        """
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

    def _read_through(self, session):
        """Load the store file of a session a request just created.

        Runs on the request's runner thread, outside the shard lock.  The
        file goes through :meth:`recover_caches`, whose merge reaches
        ``session_for`` without this hook, so one load never starts another.
        A session that read its file holds what the file holds, so it is
        stamped clean until it misses (see :meth:`changed_sessions`).
        """
        path = self.store.path_for(constraints_digest(session.signature))
        if os.path.exists(path) and self.recover_caches(path)[0]:
            session.stored_misses = session.misses()

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


def _encode(session):
    """One shard session as a session document (copied under its locks)."""
    return encode_session(
        Session(
            session.label,
            constraints_digest(session.signature),
            tuple(session.signature),
            session.registry.export_entries(),
            session.memo.export(),
        )
    )


__all__ = ["OptimizerService", "ServiceRequest", "ServiceResponse"]
