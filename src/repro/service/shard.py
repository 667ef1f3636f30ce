"""Shards: warm per-catalog sessions plus a supervised request runner pool.

A shard is the unit of placement in the optimizer service: it owns a small
pool of *runner* threads that execute whole requests, one persistent worker
pool that runs the requests' backchase chunks and OQF/OCS stage tasks
(through a per-request :class:`~repro.service.scheduler.ScheduledPool`),
and a registry of :class:`ShardSession` objects — one per
distinct constraint-set signature routed to the shard.  A session holds the
warm :class:`~repro.chase.implication.ChaseCacheRegistry` whose chase
fixpoints survive across requests *and* the warm
:class:`~repro.cq.memo.ContainmentMemo` whose containment verdicts do; since
the admission layer routes a catalog to the same shard every time, the
second request against a catalog finds the first one's fixpoints and
verdicts already cached.

Admission control: a shard accepts at most ``max_queue_depth`` requests at a
time (queued on the runner pool plus executing).  Past the bound,
:meth:`Shard.submit` raises :class:`~repro.errors.ServiceOverloaded` instead
of buffering — bounded queues are what keep tail latency and memory flat
under overload; callers (the socket front end) translate the rejection into
a typed ``overloaded`` response the client can retry on.

Supervision: runner threads are owned by the shard (not a
``ThreadPoolExecutor``) and watched two ways.  A runner that dies with an
unhandled executor failure (anything that escapes the per-request
``except Exception`` — a ``BaseException``, an injected crash, a failure in
the resolution path) reports itself: the in-flight request's future is
resolved with a typed :class:`~repro.errors.RunnerCrash` (never a hung
future), the admission slot is released exactly once, and a replacement
runner is spawned before the thread exits.  A background supervisor sweep
additionally detects runners that died *without* reporting (however
improbable) and restarts them.  Both paths are counted
(``runner_failures`` / ``runner_restarts``) and exported through
:class:`~repro.service.metrics.ShardStats`.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import RunnerCrash, ServiceOverloaded
from repro.chase.implication import (
    ChaseCacheRegistry,
    constraint_signature,
    constraints_digest,
)
from repro.chase.optimizer import CBOptimizer
from repro.cq.memo import ContainmentMemo
from repro.service.faults import maybe_fail
from repro.service.metrics import RequestMetrics, ShardStats
from repro.service.observability.events import log_event
from repro.service.scheduler import ScheduledPool
from repro.trace import activate

#: Queue sentinel that makes a runner thread exit its loop.
_SHUTDOWN = object()


def resolve_worker_count(workers):
    """Resolve the ``workers`` knob: ``None`` means the machine's CPU count."""
    return max(1, workers if workers is not None else (os.cpu_count() or 1))


def shard_index(constraints, shard_count):
    """Deterministically map a constraint set to a shard.

    Hashes the *structural* :func:`constraints_digest` (name + body of every
    dependency, sorted) so the placement is stable across processes and runs
    (``hash()`` is salted per process).  It used to hash only the sorted
    dependency *names*, so two constraint sets with identical names but
    different bodies aliased to the same placement — wrong for anything that
    keys cache validity on the set's structure (snapshots, the fleet ring
    and the snapshot store's file names all use the same digest).
    """
    digest = constraints_digest(constraints)
    return int(digest[:16], 16) % max(1, shard_count)


def session_label(constraints):
    """Short human-readable identity for a session (stats / JSONL output).

    Built from the structural digest so same-name/different-body constraint
    sets get distinct labels (they are distinct sessions).
    """
    constraints = list(constraints)
    return f"{len(constraints)}c-{constraints_digest(constraints)[:8]}"


@dataclass
class ShardSession:
    """Warm per-constraint-set state kept alive between requests.

    ``loaded`` is set once the session's warm state is in: by the request
    that created it, after reading its store file; by a merge that filled
    it; or at creation when the shard has no read-through.  Requests wait
    on it, so one that meets a session another request is still loading
    runs on the loaded state rather than on a cold one.

    ``stored_misses`` is :meth:`misses` when this process last loaded or
    saved the session's snapshot-store file (``None`` until it has): a
    session whose misses have not moved since holds what its file holds.
    """

    label: str
    signature: object
    registry: ChaseCacheRegistry
    memo: ContainmentMemo
    requests: int = 0
    created_at: float = field(default_factory=time.monotonic)
    loaded: threading.Event = field(default_factory=threading.Event, repr=False)
    stored_misses: int | None = None

    def misses(self):
        """Chase-cache plus memo misses: each one a fixpoint or a verdict
        this process computed (a merged entry is not a miss)."""
        return self.registry.stats()["misses"] + self.memo.stats()["misses"]


class _RunnerTask:
    """One admitted request travelling through the runner queue.

    ``slot_released`` makes admission-slot release idempotent: the normal
    completion path and the crash path can both reach it, but exactly one
    decrements the gauge.  ``trace`` is the request's span tree (or
    ``None``); ``enqueued_at`` stamps admission time so the runner that
    picks the task up can bill the queue wait.
    """

    __slots__ = ("request", "on_done", "slot_released", "trace", "enqueued_at")

    def __init__(self, request, on_done, trace=None):
        self.request = request
        self.on_done = on_done
        self.slot_released = False
        self.trace = trace
        self.enqueued_at = time.perf_counter()


class Shard:
    """One shard: supervised runner threads + worker pool + warm sessions.

    Locking invariant (checked mechanically by ``repro-lint``'s
    lock-discipline rule): every mutable counter and container on the shard
    is annotated ``# guarded-by: _lock`` and only touched inside
    ``with self._lock``.  The session table, admission gauges and runner
    bookkeeping are all read by three thread families at once (runners,
    the supervisor sweep, stats callers), so *every* access — including
    "harmless" reads in stats paths — goes through the lock.

    Parameters
    ----------
    shard_id:
        Position in the service's shard list (also reported in stats).
    workers:
        Threads of the shard's worker pool, which runs every request's
        backchase chunks and OQF/OCS stage tasks (``None`` = CPU count).
    max_inflight:
        Runner threads, i.e. how many requests the shard executes
        concurrently (their chunks and stage tasks share the worker pool).
    max_queue_depth:
        Admission bound: maximum requests admitted at a time (executing plus
        waiting for a runner thread).  ``None`` (the default) preserves the
        unbounded in-process behaviour; the socket front end sets it so an
        overloaded server rejects instead of queueing without bound.  Must
        be ``>= max_inflight`` to be useful (lower values just cap
        concurrency earlier).
    max_cache_entries:
        LRU bound applied to every per-constraint-set
        :class:`~repro.chase.implication.ChaseCache` of every session
        (``None`` = unbounded).
    max_memo_entries:
        LRU bound on every session's containment memo (``None`` =
        unbounded).
    max_sessions:
        LRU bound on warm sessions per shard (``None`` = unbounded).  A
        long-lived service receiving many distinct catalogs would otherwise
        accumulate one session (and its cache registry) per configuration
        forever.  Eviction only unlinks the session from the shard — a
        request already running against it keeps its own reference and
        completes safely; the next request for that catalog starts cold
        again, or reads its snapshot-store file again when the service has
        a store.
    overload_retry_after:
        Optional back-off hint (seconds) attached to admission rejections
        and surfaced on ``overloaded`` responses for retrying clients.
    fault_injector:
        Optional :class:`~repro.service.faults.FaultInjector`; the shard
        consults the ``shard.execute`` site once per executed request.
    event_log:
        Optional :class:`~repro.service.observability.events.EventLog`;
        the shard emits ``runner.crashed`` / ``runner.restarted`` events.
    on_new_session:
        Optional ``session -> None`` callable that a runner calls, outside
        the lock and before the engine runs, when its request created the
        session (the service's snapshot-store read-through); other requests
        for that session wait until it returns.
    supervisor_interval:
        Seconds between supervisor sweeps for silently-dead runners.
    """

    def __init__(
        self,
        shard_id,
        workers=None,
        max_inflight=4,
        max_queue_depth=None,
        max_cache_entries=None,
        max_memo_entries=None,
        max_sessions=None,
        overload_retry_after=None,
        fault_injector=None,
        event_log=None,
        on_new_session=None,
        supervisor_interval=0.25,
    ):
        if max_sessions is not None and max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1 or None, got {max_sessions!r}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth!r}"
            )
        self.shard_id = shard_id
        self.max_queue_depth = max_queue_depth
        self.max_cache_entries = max_cache_entries
        self.max_memo_entries = max_memo_entries
        self.max_sessions = max_sessions
        self.overload_retry_after = overload_retry_after
        self.workers = resolve_worker_count(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=f"svc-shard{shard_id}-worker"
        )
        self._faults = fault_injector
        self._event_log = event_log
        self._on_new_session = on_new_session
        # get() stays untimed: SimpleQueue.get(timeout=...) can hang on CPython 3.11 (perfbench/stall_check.py)
        self._tasks = queue.SimpleQueue()
        self._sessions = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._requests = 0  # guarded-by: _lock
        self._sessions_evicted = 0  # guarded-by: _lock
        self._queue_depth = 0  # guarded-by: _lock
        self._queue_peak = 0  # guarded-by: _lock
        self._rejected = 0  # guarded-by: _lock
        self._runner_restarts = 0  # guarded-by: _lock
        self._runner_failures = 0  # guarded-by: _lock
        self._runner_serial = 0  # guarded-by: _lock
        self._runners = []  # guarded-by: _lock
        self._stopping = threading.Event()
        for _ in range(max_inflight):
            self._spawn_runner()
        self._supervisor_interval = supervisor_interval
        self._supervisor = threading.Thread(  # released-by: shutdown
            target=self._supervise, name=f"svc-shard{shard_id}-supervisor", daemon=True
        )
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # sessions
    # ------------------------------------------------------------------ #
    def session_for(self, constraints):
        """Return the session for ``constraints`` and whether this call created it."""
        signature = constraint_signature(constraints)
        with self._lock:
            session = self._sessions.get(signature)
            created = session is None
            if created:
                session = ShardSession(
                    label=session_label(constraints),
                    signature=signature,
                    registry=ChaseCacheRegistry(max_entries=self.max_cache_entries),
                    memo=ContainmentMemo(max_entries=self.max_memo_entries),
                )
                if self._on_new_session is None:
                    session.loaded.set()
                self._sessions[signature] = session
                while self.max_sessions is not None and len(self._sessions) > self.max_sessions:
                    self._sessions.popitem(last=False)
                    self._sessions_evicted += 1
            else:
                self._sessions.move_to_end(signature)
            return session, created

    def sessions(self):
        """Every warm session, least recently used first (the export source)."""
        with self._lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------ #
    # runner pool + supervision
    # ------------------------------------------------------------------ #
    def _spawn_runner(self):
        """Start one runner thread (must be called *without* the lock held).

        Registration and start happen under the lock so the supervisor sweep
        never observes a registered-but-not-yet-started thread (it would
        read as dead and be spuriously replaced).  Nothing is spawned once
        shutdown has begun: shutdown queues one sentinel per runner it saw,
        and a later runner would take one and leave a seen runner blocked.
        """
        with self._lock:
            if self._stopping.is_set():
                return None
            self._runner_serial += 1
            runner = threading.Thread(
                target=self._runner_loop,
                name=f"svc-shard{self.shard_id}-runner{self._runner_serial}",
                daemon=True,
            )
            self._runners.append(runner)
            runner.start()
        return runner

    def _runner_loop(self):
        while True:
            task = self._tasks.get()
            if task is _SHUTDOWN:
                return
            try:
                self._execute(task)
            except BaseException as exc:
                # The runner dies (cleanly — it already reported, so no
                # noisy threading.excepthook); its replacement is running.
                self._runner_crashed(task, exc)
                return

    def _runner_crashed(self, task, exc):
        """A runner died executing ``task``: fail the request, self-replace."""
        error = RunnerCrash(
            f"shard {self.shard_id} runner died executing request "
            f"{task.request.request_id!r}: {exc!r}",
            shard=self.shard_id,
            request_id=task.request.request_id,
        )
        with self._lock:
            self._runner_failures += 1
            if not task.slot_released:
                task.slot_released = True
                self._queue_depth -= 1
        current = threading.current_thread()
        with self._lock:
            if current in self._runners:
                self._runners.remove(current)
            replace = not self._stopping.is_set()
            if replace:
                self._runner_restarts += 1
        log_event(
            self._event_log,
            "runner.crashed",
            shard=self.shard_id,
            request_id=task.request.request_id,
            error=repr(exc),
        )
        if replace:
            self._spawn_runner()
            log_event(
                self._event_log,
                "runner.restarted",
                shard=self.shard_id,
                reported=True,
            )
        metrics = RequestMetrics(
            request_id=task.request.request_id,
            shard=self.shard_id,
            session="",
            strategy=task.request.strategy,
            latency=0.0,
            error=str(error),
        )
        try:
            # Never a hung future: resolve it with the typed crash record.
            # If the crash struck *after* the normal path resolved it, the
            # second resolution is a no-op error we swallow.
            task.on_done(task.request, None, metrics, error)
        except Exception:
            pass

    def _supervise(self):
        """Periodically restart runners that died without reporting."""
        while not self._stopping.wait(timeout=self._supervisor_interval):
            with self._lock:
                # The wait can time out just as shutdown begins: runners that
                # exited on their shutdown sentinel are not dead.
                if self._stopping.is_set():
                    return
                dead = [runner for runner in self._runners if not runner.is_alive()]
                for runner in dead:
                    self._runners.remove(runner)
                    self._runner_restarts += 1
            for _ in dead:
                self._spawn_runner()
                log_event(
                    self._event_log,
                    "runner.restarted",
                    shard=self.shard_id,
                    reported=False,
                )

    def live_runners(self):
        """Count of live runner threads (the readiness probe's signal)."""
        with self._lock:
            return sum(1 for runner in self._runners if runner.is_alive())

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def submit(self, request, on_done, trace=None):
        """Admit ``request`` onto the runner queue; resolve through ``on_done``.

        Raises :class:`~repro.errors.ServiceOverloaded` when the shard's
        queue depth bound is reached — the request is *not* queued and
        ``on_done`` will never be called for it.  ``trace`` (when given)
        rides the task through the queue so the runner bills the queue
        wait and activates it around the engine run.
        """
        with self._lock:
            if (
                self.max_queue_depth is not None
                and self._queue_depth >= self.max_queue_depth
            ):
                self._rejected += 1
                raise ServiceOverloaded(
                    f"shard {self.shard_id} is at its queue depth bound "
                    f"({self._queue_depth}/{self.max_queue_depth})",
                    shard=self.shard_id,
                    queue_depth=self._queue_depth,
                    retry_after=self.overload_retry_after,
                )
            self._requests += 1
            self._queue_depth += 1
            self._queue_peak = max(self._queue_peak, self._queue_depth)
        task = _RunnerTask(request, on_done, trace=trace)
        try:
            self._tasks.put(task)
        except BaseException:
            self._release_slot(task)
            raise
        return task

    def _release_slot(self, task):
        with self._lock:
            if not task.slot_released:
                task.slot_released = True
                self._queue_depth -= 1

    def _execute(self, task):
        request, on_done = task.request, task.on_done
        start = time.perf_counter()
        if task.trace is not None:
            # Queue wait: admission (submit stamping enqueued_at) until a
            # runner thread picked the task up.
            task.trace.record("queue_wait", start - task.enqueued_at)
        session = None
        try:
            maybe_fail(self._faults, "shard.execute", detail=request.request_id)
            constraints = request.resolved_constraints()
            session, created = self.session_for(constraints)
            loading = time.perf_counter()
            if created and self._on_new_session is not None:
                try:
                    self._on_new_session(session)
                finally:
                    session.loaded.set()
            session.loaded.wait()
            if task.trace is not None:
                # Store load: reading the new session's store file, or
                # waiting for the request that reads it.
                task.trace.record("store_load", time.perf_counter() - loading)
            with self._lock:
                session.requests += 1
            stats_before = session.registry.stats()
            memo_before = session.memo.stats()
            optimizer = CBOptimizer(
                catalog=request.catalog,
                constraints=request.constraints,
                timeout=request.timeout,
                cache_registry=session.registry,
                containment_memo=session.memo,
                pool=ScheduledPool(self._pool, self.workers),
            )
            # The trace is ambient on this runner thread for the whole
            # engine run: chase/containment/restrict work executed inline
            # here records directly, and the ScheduledPool re-activates the
            # same trace on the pool worker that runs each chunk or stage.
            with activate(task.trace):
                result = optimizer.optimize(request.query, strategy=request.strategy)
            registry_stats = session.registry.stats()
            memo_after = session.memo.stats()
            metrics = RequestMetrics(
                request_id=request.request_id,
                shard=self.shard_id,
                session=session.label,
                strategy=request.strategy,
                latency=time.perf_counter() - start,
                plan_count=result.plan_count,
                cache_hits=registry_stats["hits"] - stats_before["hits"],
                cache_misses=registry_stats["misses"] - stats_before["misses"],
                memo_hits=memo_after["hits"] - memo_before["hits"],
                memo_misses=memo_after["misses"] - memo_before["misses"],
                timed_out=result.timed_out,
            )
            if task.trace is not None:
                # Cache/memo attribution on the stage spans: the same
                # best-effort deltas the per-request metrics report.
                task.trace.annotate(
                    "chase",
                    cache_hits=metrics.cache_hits,
                    cache_misses=metrics.cache_misses,
                )
                task.trace.annotate(
                    "containment",
                    memo_hits=metrics.memo_hits,
                    memo_misses=metrics.memo_misses,
                )
            outcome = (result, metrics, None)
        except Exception as exc:  # noqa: BLE001 - reported on the response
            metrics = RequestMetrics(
                request_id=request.request_id,
                shard=self.shard_id,
                session=session.label if session is not None else "",
                strategy=request.strategy,
                latency=time.perf_counter() - start,
                error=str(exc),
            )
            outcome = (None, metrics, exc)
        # Release the admission slot *before* resolving the future: a caller
        # that wakes from future.result() and immediately submits again must
        # find the capacity its completed request held already freed.
        self._release_slot(task)
        on_done(request, *outcome)

    # ------------------------------------------------------------------ #
    # stats / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self):
        """Snapshot this shard's sessions, queue, cache and memo counters."""
        with self._lock:
            sessions = list(self._sessions.values())
            requests = self._requests
            sessions_evicted = self._sessions_evicted
            queue_depth = self._queue_depth
            queue_peak = self._queue_peak
            rejected = self._rejected
            runner_restarts = self._runner_restarts
            runner_failures = self._runner_failures
        cache = {"caches": 0, "entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        memo = {"entries": 0, "hits": 0, "misses": 0, "evictions": 0}
        for session in sessions:
            for key, value in session.registry.stats().items():
                cache[key] += value
            for key, value in session.memo.stats().items():
                memo[key] += value
        return ShardStats(
            shard=self.shard_id,
            sessions=len(sessions),
            sessions_evicted=sessions_evicted,
            requests=requests,
            queue_depth=queue_depth,
            queue_peak=queue_peak,
            rejected=rejected,
            runner_restarts=runner_restarts,
            runner_failures=runner_failures,
            cache_caches=cache["caches"],
            cache_entries=cache["entries"],
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_evictions=cache["evictions"],
            memo_entries=memo["entries"],
            memo_hits=memo["hits"],
            memo_misses=memo["misses"],
            memo_evictions=memo["evictions"],
        )

    def shutdown(self, wait=True):
        """Drain the runner queue, stop supervision + worker pool (idempotent)."""
        with self._lock:
            if self._stopping.is_set():
                return
            self._stopping.set()
            runners = list(self._runners)
        # Sentinels queue *behind* already-admitted tasks, so wait=True
        # drains exactly like ThreadPoolExecutor.shutdown(wait=True) did.
        for _ in runners:
            self._tasks.put(_SHUTDOWN)
        if wait:
            for runner in runners:
                runner.join(timeout=60.0)
            self._supervisor.join(timeout=5.0)
        self._pool.shutdown(wait=wait)


__all__ = ["Shard", "ShardSession", "session_label", "shard_index"]
