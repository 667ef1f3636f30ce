"""Command-line entry point for running the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli list
    python -m repro.cli fig5-ec1
    python -m repro.cli plans-table
    python -m repro.cli fig9 --stars 3 --corners 2 --views 1 --size 5000
    python -m repro.cli fig10 --size 10000
    python -m repro.cli optimize ec2 --stars 2 --corners 3 --views 1 --strategy oqf
    python -m repro.cli batch --input requests.jsonl --output results.jsonl --shards 2
    python -m repro.cli serve < requests.jsonl
    python -m repro.cli serve --port 7411 --max-queue-depth 16 --snapshot warm.snap
    python -m repro.cli client --port 7411 --input requests.jsonl --check
    python -m repro.cli serve --port 7411 --snapshot-store fleet-store
    python -m repro.cli route --backend 127.0.0.1:7411 --backend 127.0.0.1:7412 \\
        --port 7410

The ``fig*`` / ``plans-table`` commands print the same rows the corresponding
figures and tables of the paper report; ``optimize`` runs a single optimizer
invocation on one of the experimental configurations, inline on one thread,
and prints the plans.

``batch`` and ``serve`` run the long-lived :mod:`repro.service` optimizer
service over a JSONL stream of requests (see
:mod:`repro.service.protocol` for the schema, or the README's "Serving
mode" section): ``batch`` reads the whole input, submits everything to the
warm sharded service, and writes one result line per request in input
order; ``serve`` streams — each input line is submitted as it is read and
results are emitted as they complete.  With ``--port``, ``serve`` instead
binds the TCP front end (:mod:`repro.service.server`) and serves the same
protocol over sockets until SIGTERM/SIGINT (graceful drain; ``--snapshot``
makes it come back warm after a restart); ``client`` pipes a JSONL file
through a running server.  With ``--check``, every response is re-verified
against a fresh single-shot :class:`~repro.chase.optimizer.CBOptimizer` run
and the process exits non-zero on any plan-set mismatch (the
``make serve-smoke`` and ``make serve-net-smoke`` targets).

``route`` runs the fleet front end (:mod:`repro.service.fleet`): it
consistent-hashes every request's structural constraint digest across the
``--backend`` ``serve`` processes and re-routes ``overloaded`` responses to
the next replica with capacity instead of shedding them.  Backends share
warm state through ``serve --snapshot-store DIR``, the fleet's per-session
snapshot directory: each saves its sessions there (at drain, and with
``--snapshot-interval`` periodically), and reads a catalog's file the first
time a request for it arrives, so a replica serves warm hits it never
computed locally.

Observability: ``--trace`` (or ``--trace-log``) threads a span tree through
every request — responses carry it under ``"trace"``; ``--event-log``
streams structured JSONL lifecycle events; ``serve --port ... --http-port``
additionally binds the HTTP sidecar (``/metrics`` in Prometheus text
format, ``/healthz``, ``/readyz``, ``/stats``, ``/traces``) and
``obs-check`` scrapes a running sidecar and exits non-zero unless every
stats gauge and the stage-latency histograms are exposed (the
``make serve-obs-smoke`` target).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from repro.experiments import figures
from repro.service.protocol import (
    WORKLOAD_BUILDERS,
    decode_request as _decode_request,
    encode_response as _encode_response,
    error_record,
    obs_check_record,
    overloaded_record,
    plan_digest as _plan_digest,
    serving_record,
    stats_record,
)
from repro.workloads import build_ec1, build_ec2, build_ec3

#: Experiment name -> (driver, keyword arguments it understands).
EXPERIMENTS = {
    "fig5-ec1": (figures.figure5_ec1, ()),
    "fig5-ec2": (figures.figure5_ec2, ()),
    "fig5-ec3": (figures.figure5_ec3, ()),
    "plans-table": (figures.plans_table_ec2, ("timeout",)),
    "fig6-ec1": (figures.figure6_ec1, ("timeout",)),
    "fig6-ec3": (figures.figure6_ec3, ("timeout",)),
    "fig7-ec2": (figures.figure7_ec2, ("timeout",)),
    "fig8": (figures.figure8_granularity, ("timeout",)),
    "fig9": (figures.figure9_plan_detail, ("stars", "corners", "views", "size", "timeout")),
    "fig10": (figures.figure10_time_reduction, ("size", "timeout")),
    "service-throughput": (
        figures.service_throughput,
        ("timeout", "workers", "shards", "repeats"),
    ),
    "warm-restart": (
        figures.warm_restart,
        ("timeout", "workers", "shards", "repeats"),
    ),
    "crash-recovery": (
        figures.crash_recovery,
        ("timeout", "workers", "shards", "repeats"),
    ),
    "stage-breakdown": (
        figures.stage_breakdown,
        ("timeout", "shards", "repeats"),
    ),
}


def build_parser():
    """Build the argparse parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the experiments of 'A Chase Too Far?' (SIGMOD 2000)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    for name, (_, accepted) in EXPERIMENTS.items():
        experiment = subparsers.add_parser(name, help=f"run the {name} experiment")
        _add_common_options(experiment)
        if "workers" in accepted:
            _add_workers_option(experiment)
        if "shards" in accepted:
            experiment.add_argument(
                "--shards", type=int, default=None, help="service shard count"
            )
            experiment.add_argument(
                "--repeats", type=int, default=None, help="repetitions of the request mix"
            )

    optimize = subparsers.add_parser(
        "optimize", help="run one optimizer invocation on a workload and print the plans"
    )
    optimize.add_argument("workload", choices=["ec1", "ec2", "ec3"])
    optimize.add_argument("--strategy", choices=["fb", "oqf", "ocs"], default="fb")
    _add_common_options(optimize)
    optimize.add_argument("--relations", type=int, default=3, help="EC1: number of relations")
    optimize.add_argument(
        "--secondary-indexes", type=int, default=0, help="EC1: number of secondary indexes"
    )
    optimize.add_argument("--classes", type=int, default=3, help="EC3: number of classes")
    optimize.add_argument("--asrs", type=int, default=0, help="EC3: number of ASRs")

    for name, streaming in (("batch", False), ("serve", True)):
        command = subparsers.add_parser(
            name,
            help=(
                "run a JSONL request stream through the warm optimizer service "
                + ("(streaming; --port binds the TCP front end instead)"
                   if streaming
                   else "(collect all, emit in input order)")
            ),
        )
        _add_service_options(command)
        if streaming:
            command.add_argument(
                "--port",
                type=int,
                default=None,
                help="serve the JSONL protocol over TCP on this port instead of "
                "stdin/stdout (0 = OS-assigned; run until SIGTERM/SIGINT, then drain)",
            )
            command.add_argument(
                "--host", default="127.0.0.1", help="bind address for --port mode"
            )
            command.add_argument(
                "--port-file",
                default=None,
                help="write the bound port to this file once listening "
                "(for scripts using --port 0)",
            )
            command.add_argument(
                "--snapshot-interval",
                type=float,
                default=None,
                help="with --port and --snapshot: background snapshot period "
                "(s) — a kill -9 loses at most this much warm state; SIGUSR1 "
                "triggers one immediately (default: snapshot at drain only)",
            )
            command.add_argument(
                "--http-port",
                type=int,
                default=None,
                help="with --port: also bind the HTTP observability sidecar "
                "(/metrics, /healthz, /readyz, /stats, /traces) on this port "
                "(0 = OS-assigned); implies --trace",
            )
            command.add_argument(
                "--http-port-file",
                default=None,
                help="write the sidecar's bound port to this file once "
                "listening (for scripts using --http-port 0)",
            )

    obs_check = subparsers.add_parser(
        "obs-check",
        help="scrape a running observability sidecar and verify /metrics "
        "covers every stats gauge (plus health/readiness/stats/traces)",
    )
    obs_check.add_argument("--host", default="127.0.0.1", help="sidecar address")
    obs_check.add_argument("--port", type=int, required=True, help="sidecar HTTP port")
    obs_check.add_argument(
        "--timeout", type=float, default=10.0, help="per-endpoint fetch timeout (s)"
    )

    route = subparsers.add_parser(
        "route",
        help="run the fleet router: consistent-hash requests across backend "
        "servers and re-route overloads",
    )
    route.add_argument(
        "--backend",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="a backend `serve --port` process (repeat once per backend)",
    )
    route.add_argument("--host", default="127.0.0.1", help="bind address")
    route.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 = OS-assigned; run until SIGTERM/SIGINT, then drain)",
    )
    route.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening "
        "(for scripts using --port 0)",
    )
    route.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        help="backend connect timeout (s) before failing over to the next "
        "replica on the ring",
    )
    route.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request backend round-trip budget (s)",
    )
    route.add_argument(
        "--ring-replicas",
        type=int,
        default=64,
        help="virtual points per backend on the consistent-hash ring",
    )
    route.add_argument(
        "--route-workers",
        type=int,
        default=16,
        help="concurrent routing workers (pipelined lines per connection)",
    )
    route.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also bind the HTTP observability sidecar (/metrics, /healthz, "
        "/readyz, /stats) for the router gauges (0 = OS-assigned)",
    )
    route.add_argument(
        "--http-port-file",
        default=None,
        help="write the sidecar's bound port to this file once listening",
    )
    route.add_argument(
        "--event-log",
        default=None,
        help="append structured JSONL routing events (route.reroute, "
        "route.failover, route.shed) to this file ('-' = stderr)",
    )
    route.add_argument(
        "--stats",
        action="store_true",
        help="print a final JSONL line with the router's gauges at drain",
    )

    client = subparsers.add_parser(
        "client", help="pipe a JSONL request file through a running TCP server"
    )
    client.add_argument("--host", default="127.0.0.1", help="server address")
    client.add_argument("--port", type=int, required=True, help="server port")
    client.add_argument(
        "--input", default="-", help="JSONL request file ('-' = stdin, the default)"
    )
    client.add_argument(
        "--output", default="-", help="JSONL result file ('-' = stdout, the default)"
    )
    client.add_argument(
        "--timeout", type=float, default=None, help="default per-request budget (s)"
    )
    client.add_argument(
        "--check",
        action="store_true",
        help="re-verify every response against a fresh single-shot optimize "
        "(exit non-zero on any plan-set mismatch, error or overload)",
    )
    client.add_argument(
        "--stats",
        action="store_true",
        help="append a final JSONL line with the server's service-wide stats",
    )
    client.add_argument(
        "--retries",
        type=int,
        default=0,
        help="replays per request on transient failures (connection reset, "
        "torn frames, overload) with capped exponential backoff (default: 0)",
    )
    client.add_argument(
        "--backoff-base",
        type=float,
        default=0.05,
        help="initial retry backoff in seconds (doubles per attempt)",
    )
    client.add_argument(
        "--backoff-max",
        type=float,
        default=2.0,
        help="backoff cap in seconds",
    )
    client.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="overall wall-clock budget (s) across all attempts of a request",
    )
    return parser


def _add_common_options(subparser):
    subparser.add_argument("--stars", type=int, default=None, help="EC2: number of stars")
    subparser.add_argument("--corners", type=int, default=None, help="EC2: corners per star")
    subparser.add_argument("--views", type=int, default=None, help="EC2: views per star")
    subparser.add_argument("--size", type=int, default=None, help="tuples per relation")
    subparser.add_argument("--timeout", type=float, default=None, help="backchase timeout (s)")


def _add_workers_option(subparser):
    subparser.add_argument(
        "--workers", type=int, default=None, help="worker-pool threads per shard"
    )


def _add_service_options(subparser):
    subparser.add_argument(
        "--input", default="-", help="JSONL request file ('-' = stdin, the default)"
    )
    subparser.add_argument(
        "--output", default="-", help="JSONL result file ('-' = stdout, the default)"
    )
    subparser.add_argument("--shards", type=int, default=1, help="service shard count")
    _add_workers_option(subparser)
    subparser.add_argument(
        "--max-inflight", type=int, default=4, help="concurrent requests per shard"
    )
    subparser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission bound per shard: requests past it get a typed "
        "'overloaded' response instead of queueing (default: unbounded)",
    )
    subparser.add_argument(
        "--max-cache-entries",
        type=int,
        default=None,
        help="LRU bound per chase cache (default: unbounded)",
    )
    subparser.add_argument(
        "--max-memo-entries",
        type=int,
        default=None,
        help="LRU bound per containment memo (default: unbounded)",
    )
    subparser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        help="LRU bound on warm sessions per shard (default: unbounded)",
    )
    subparser.add_argument(
        "--snapshot",
        default=None,
        help="cache snapshot file: loaded at startup when it exists (an "
        "unusable or stale snapshot degrades to a cold start, never a "
        "crash), saved at shutdown (warm restarts)",
    )
    subparser.add_argument(
        "--snapshot-store",
        default=None,
        metavar="DIR",
        help="shared fleet snapshot directory (one atomic file per "
        "constraint digest): a catalog's file is read when a request first "
        "creates its session, and every session is saved at shutdown — and "
        "with --snapshot-interval, periodically — so any fleet member's "
        "saves warm every other member",
    )
    subparser.add_argument(
        "--overload-retry-after",
        type=float,
        default=None,
        help="backoff hint (s) attached to 'overloaded' responses so "
        "retrying clients wait exactly this long",
    )
    subparser.add_argument(
        "--fault-spec",
        default=None,
        help="fault injection spec 'site:prob[:times],...' (sites: "
        "server.read, server.write, shard.execute, snapshot.write, "
        "snapshot.read; suffix the site with '!' to crash the runner "
        "instead) — chaos testing only",
    )
    subparser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault-injection streams",
    )
    subparser.add_argument(
        "--timeout", type=float, default=None, help="default per-request budget (s)"
    )
    subparser.add_argument(
        "--check",
        action="store_true",
        help="re-verify every response against a fresh single-shot optimize "
        "(exit non-zero on any plan-set mismatch)",
    )
    subparser.add_argument(
        "--stats",
        action="store_true",
        help="append a final JSONL line with the service-wide stats",
    )
    subparser.add_argument(
        "--trace",
        action="store_true",
        help="thread a span tree through every request (stages: "
        "admission_wait, queue_wait, store_load, chase, containment, "
        "restrict, serialize); responses carry it under 'trace'",
    )
    subparser.add_argument(
        "--trace-log",
        default=None,
        help="append every finished span tree to this JSONL file "
        "(implies --trace)",
    )
    subparser.add_argument(
        "--trace-ring",
        type=int,
        default=256,
        help="finished traces kept in memory for /traces (default: 256)",
    )
    subparser.add_argument(
        "--event-log",
        default=None,
        help="append structured JSONL lifecycle events (request "
        "admitted/rejected/completed, runner crash/restart, snapshot "
        "save/load/fail) to this file ('-' = stderr)",
    )


def _experiment_kwargs(args, accepted):
    kwargs = {}
    for name in accepted:
        value = getattr(args, name, None)
        if value is not None:
            kwargs[name] = value
    return kwargs


def _run_experiment(name, args, out):
    driver, accepted = EXPERIMENTS[name]
    result = driver(**_experiment_kwargs(args, accepted))
    print(result.render(), file=out)
    return 0


def _build_workload(args):
    if args.workload == "ec1":
        return build_ec1(args.relations, args.secondary_indexes)
    if args.workload == "ec2":
        return build_ec2(args.stars or 2, args.corners or 3, args.views or 1)
    return build_ec3(args.classes, args.asrs)


def _run_optimize(args, out):
    workload = _build_workload(args)
    optimizer = workload.optimizer(timeout=args.timeout)
    result = optimizer.optimize(workload.query, strategy=args.strategy)
    print(
        f"{args.workload.upper()} {workload.params}: {result.plan_count} plans "
        f"in {result.total_time:.3f}s with {args.strategy.upper()} "
        f"({result.subqueries_explored} subqueries explored"
        f"{', timed out' if result.timed_out else ''})",
        file=out,
    )
    for number, plan in enumerate(result.plans, start=1):
        print(f"--- plan {number}: {plan.describe(workload.catalog)}", file=out)
        print(plan.query, file=out)
    return 0


# ---------------------------------------------------------------------- #
# JSONL serving (the `batch` / `serve` / `client` subcommands; the codec
# itself lives in repro.service.protocol, shared with the socket front end)
# ---------------------------------------------------------------------- #
def _check_against_single_shot(workload, strategy, timeout, response):
    """Re-run the request single-shot and compare plan signature sets."""
    if not response.ok:
        return False
    optimizer = workload.optimizer(timeout=timeout)
    fresh = optimizer.optimize(workload.query, strategy=strategy)
    return {plan.signature() for plan in fresh.plans} == {
        plan.signature() for plan in response.result.plans
    }


def _open_maybe(path, mode, fallback):
    if path == "-":
        return fallback, False
    return open(path, mode, encoding="utf-8"), True


def _build_event_log(args):
    """The ``--event-log`` JSONL stream (``'-'`` = stderr), or ``None``."""
    from repro.service import EventLog

    spec = getattr(args, "event_log", None)
    if not spec:
        return None
    if spec == "-":
        return EventLog(stream=sys.stderr)
    return EventLog(path=spec)


def _build_tracer(args):
    """The request tracer, when any observability flag asks for one."""
    from repro.service import Tracer

    wanted = (
        getattr(args, "trace", False)
        or getattr(args, "trace_log", None)
        or getattr(args, "http_port", None) is not None
    )
    if not wanted:
        return None
    return Tracer(
        ring_size=getattr(args, "trace_ring", 256),
        trace_log=getattr(args, "trace_log", None),
    )


def _close_observability(service):
    """Release the trace-log / event-log streams a CLI run opened."""
    if service.tracer is not None:
        service.tracer.close()
    if service.event_log is not None:
        service.event_log.close()


def _build_service(args):
    """Construct the optimizer service from the shared service flags,
    loading the ``--snapshot`` file when one exists (warm restart).  A
    ``--snapshot-store`` directory is handed to the service, which reads a
    catalog's file when a request first creates its session.

    Snapshot recovery never crashes the boot: a corrupt, truncated,
    wrong-version or otherwise unusable snapshot is reported as a
    ``snapshot.unusable`` event (on the ``--event-log`` stream when one is
    configured, else stderr) and the service cold-starts (the recovery is
    counted in the stats)."""
    from repro.service import EventLog, FaultInjector, OptimizerService, log_event

    fault_injector = None
    if getattr(args, "fault_spec", None):
        fault_injector = FaultInjector.from_spec(args.fault_spec, seed=args.fault_seed)
    store = None
    if args.snapshot_store:
        from repro.service.fleet import SnapshotStore

        store = SnapshotStore(args.snapshot_store)
    service = OptimizerService(
        shards=args.shards,
        workers=args.workers,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue_depth,
        max_cache_entries=args.max_cache_entries,
        max_memo_entries=args.max_memo_entries,
        max_sessions=args.max_sessions,
        default_timeout=args.timeout,
        overload_retry_after=getattr(args, "overload_retry_after", None),
        fault_injector=fault_injector,
        tracer=_build_tracer(args),
        event_log=_build_event_log(args),
        store=store,
    )
    # The exists() guard keeps a first boot (no snapshot yet) from counting
    # as a recovery; every other load failure degrades to a cold start.
    if args.snapshot and os.path.exists(args.snapshot):
        restored, error = service.recover_caches(args.snapshot)
        if error is not None and service.event_log is None:
            # With --event-log the service itself already emitted
            # snapshot.recovered; without one the warning still must reach
            # the operator, as the same structured record on stderr.
            log_event(
                EventLog(stream=sys.stderr),
                "snapshot.unusable",
                path=args.snapshot,
                error=str(error),
                action="starting cold",
            )
    return service


def _save_snapshot(service, args):
    if args.snapshot:
        service.save_caches(args.snapshot)
    if service.store is not None:
        service.store.save(service.export_sessions(), faults=service.fault_injector)


class _StreamEmitter:
    """Serialised JSONL output + failure accounting for the stream modes.

    Completion callbacks run on shard runner threads concurrently with the
    main submission loop, so the output stream *and* the failure list are
    owned here, behind one lock (previously an ad-hoc ``write_lock`` local
    guarded the stream while the failure list was appended bare — exactly
    the pattern repro-lint's lock-discipline rule now rejects).
    """

    def __init__(self, stream):
        self.stream = stream  # guarded-by: _lock
        self._failures = []  # guarded-by: _lock
        self._lock = threading.Lock()

    def emit(self, record):
        with self._lock:
            print(json.dumps(record), file=self.stream)
            self.stream.flush()

    def record_failure(self, request_id):
        with self._lock:
            self._failures.append(request_id)

    @property
    def failed(self):
        with self._lock:
            return bool(self._failures)


def _run_service_stream(args, out, streaming):
    """Drive the optimizer service from a JSONL stream (batch and serve)."""
    from repro.errors import ServiceOverloaded

    in_stream, close_in = _open_maybe(args.input, "r", sys.stdin)
    out_stream, close_out = _open_maybe(args.output, "w", out)
    emitter = _StreamEmitter(out_stream)

    def finish(request_id, workload, strategy, timeout, response):
        checked = None
        if args.check:
            checked = _check_against_single_shot(workload, strategy, timeout, response)
            if not checked:
                emitter.record_failure(request_id)
        if not response.ok:
            emitter.record_failure(request_id)
        emitter.emit(_encode_response(request_id, workload, strategy, response, checked))

    service = _build_service(args)
    try:
        pending = []
        for number, line in enumerate(in_stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                request_id, workload, strategy, timeout = _decode_request(line, number)
            except (ValueError, TypeError) as error:
                emitter.record_failure(number)
                emitter.emit(error_record(number, error))
                continue
            try:
                future = service.submit(
                    workload.query,
                    strategy=strategy,
                    catalog=workload.catalog,
                    timeout=timeout,
                    request_id=request_id,
                )
            except ServiceOverloaded as error:
                # Shed load: a typed response, not a failure — the client is
                # expected to back off and retry (with --check there is no
                # plan set to verify, so it counts against the exit code).
                if args.check:
                    emitter.record_failure(request_id)
                emitter.emit(overloaded_record(request_id, error))
                continue
            if streaming:
                # The completion event guards the shutdown path: a future's
                # waiters wake *before* its done-callbacks run, so waiting on
                # the futures alone would let the main thread emit --stats,
                # compute the exit code and close the streams while a
                # callback is still writing its result line.
                completed = threading.Event()

                def _finish_cb(
                    f,
                    rid=request_id,
                    w=workload,
                    s=strategy,
                    t=timeout,
                    done=completed,
                ):
                    try:
                        finish(rid, w, s, t, f.result())
                    except Exception:  # noqa: BLE001 - never lose the exit code
                        emitter.record_failure(rid)
                    finally:
                        done.set()

                future.add_done_callback(_finish_cb)
                pending.append(completed)
            else:
                pending.append((request_id, workload, strategy, timeout, future))
        if streaming:
            for completed in pending:
                completed.wait()
        else:
            for request_id, workload, strategy, timeout, future in pending:
                finish(request_id, workload, strategy, timeout, future.result())
        if args.stats:
            emitter.emit(stats_record(service.stats().as_dict()))
        _save_snapshot(service, args)
    finally:
        service.shutdown()
        _close_observability(service)
        if close_in:
            in_stream.close()
        if close_out:
            out_stream.close()
    return 1 if emitter.failed else 0


def _run_socket_server(args, out):
    """Bind the TCP front end and serve until SIGTERM/SIGINT, then drain."""
    from repro.service import OptimizerServer

    # These flags belong to the stdin/stdout streaming mode (or the client
    # subcommand); silently ignoring them would let a user believe their
    # requests were processed or verified when nothing happened.
    unsupported = []
    if args.check:
        unsupported.append("--check (use `repro.cli client --check` against the server)")
    if args.input != "-":
        unsupported.append("--input (pipe it through `repro.cli client --input ...`)")
    if args.output != "-":
        unsupported.append("--output (responses go to the sockets)")
    if unsupported:
        print(
            "serve --port does not support: " + "; ".join(unsupported), file=sys.stderr
        )
        return 2

    service = _build_service(args)
    stop = threading.Event()

    def _signal_handler(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _signal_handler)
        except ValueError:  # not the main thread (e.g. under a test runner)
            pass
    managers = []
    if args.snapshot or args.snapshot_store:
        from repro.service import EventLog, SnapshotManager

        # Snapshot failures go to the structured event log (snapshot.failed
        # events) — to the --event-log stream when one is configured, else
        # as the same JSONL records on stderr (replacing the old ad-hoc
        # "warning: snapshot failed" print).
        snapshot_events = service.event_log or EventLog(stream=sys.stderr)
        if args.snapshot:
            managers.append(
                SnapshotManager(
                    service,
                    args.snapshot,
                    interval=args.snapshot_interval,
                    event_log=snapshot_events,
                )
            )
        if service.store is not None:
            from repro.service.fleet import StoreSaver

            # The StoreSaver facade fans save_caches() out into the shared
            # per-session store, so the manager's periodic loop, SIGUSR1
            # trigger and drain-time save all feed the fleet directory.
            managers.append(
                SnapshotManager(
                    StoreSaver(service, service.store),
                    service.store.root,
                    interval=args.snapshot_interval,
                    event_log=snapshot_events,
                )
            )
        managers[0].install_signal_handler()  # SIGUSR1 -> snapshot now
        if len(managers) > 1 and hasattr(signal, "SIGUSR1"):
            # One SIGUSR1 must snapshot *every* target; managers[0] keeps
            # the pre-install handler for restore_signal_handler().
            def _snapshot_all(signum, frame, targets=tuple(managers)):
                for target in targets:
                    target.trigger()

            try:
                signal.signal(signal.SIGUSR1, _snapshot_all)
            except ValueError:  # not the main thread
                pass
        for manager in managers:
            manager.start()  # periodic loop (no-op without --snapshot-interval)
    observability = None
    if args.http_port is not None:
        from repro.service.observability.httpd import ObservabilityServer

        observability = ObservabilityServer(
            service, tracer=service.tracer, host=args.host, port=args.http_port
        )
    server = OptimizerServer(service, host=args.host, port=args.port)
    try:
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(str(server.port))
        if observability is not None and args.http_port_file:
            with open(args.http_port_file, "w", encoding="utf-8") as handle:
                handle.write(str(observability.port))
        print(
            json.dumps(serving_record(server.address[0], server.port)),
            file=out,
            flush=True,
        )
        stop.wait()
        server.stop(drain=True)
        for manager in managers:
            manager.stop(final_save=True)  # drain-time snapshot
        if args.stats:
            print(
                json.dumps(stats_record(service.stats().as_dict())),
                file=out,
                flush=True,
            )
    finally:
        server.stop(drain=False)  # idempotent; covers the exception path
        if observability is not None:
            observability.stop()
        for manager in managers:
            manager.stop(final_save=False)  # idempotent; exception path
        if managers:
            managers[0].restore_signal_handler()
        service.shutdown()
        _close_observability(service)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _run_route(args, out):
    """Bind the fleet router and serve until SIGTERM/SIGINT, then drain.

    The router speaks the same JSONL protocol as ``serve --port``, so
    existing clients point at it unchanged; behind it, each request's
    structural constraint digest picks the backend (and the failover
    order) on the consistent-hash ring.
    """
    from repro.service.fleet import FleetRouter

    event_log = _build_event_log(args)
    router = FleetRouter(
        args.backend,
        host=args.host,
        port=args.port,
        connect_timeout=args.connect_timeout,
        request_timeout=args.timeout,
        ring_replicas=args.ring_replicas,
        route_workers=args.route_workers,
        event_log=event_log,
    )
    stop = threading.Event()

    def _signal_handler(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _signal_handler)
        except ValueError:  # not the main thread (e.g. under a test runner)
            pass
    observability = None
    try:
        if args.http_port is not None:
            from repro.service.observability.httpd import ObservabilityServer

            # RouterStats mirrors the as_dict()/shards surface the sidecar
            # scrapes, so /metrics and /stats expose the routing gauges; the
            # readiness override flips /readyz once no backend is healthy.
            observability = ObservabilityServer(
                router,
                host=args.host,
                port=args.http_port,
                readiness=router.readiness,
            )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(str(router.port))
        if observability is not None and args.http_port_file:
            with open(args.http_port_file, "w", encoding="utf-8") as handle:
                handle.write(str(observability.port))
        print(
            json.dumps(serving_record(router.address[0], router.port)),
            file=out,
            flush=True,
        )
        stop.wait()
        router.stop(drain=True)
        if args.stats:
            print(
                json.dumps(stats_record(router.stats().as_dict())),
                file=out,
                flush=True,
            )
    finally:
        router.stop(drain=False)  # idempotent; covers the exception path
        if observability is not None:
            observability.stop()
        if event_log is not None:
            event_log.close()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


def _run_client(args, out):
    """Pipe a JSONL request file through a running TCP server.

    Requests are validated (and only with ``--check`` actually *built* —
    the server constructs the workloads anyway, so the client stays cheap),
    pipelined onto one connection, and reported in input order.
    """
    from repro.errors import ProtocolError
    from repro.service import OptimizerClient
    from repro.service.protocol import WORKLOAD_BUILDERS

    transient = (ProtocolError, ConnectionError, OSError)
    in_stream, close_in = _open_maybe(args.input, "r", sys.stdin)
    out_stream, close_out = _open_maybe(args.output, "w", out)
    failures = []
    try:
        with OptimizerClient(
            host=args.host,
            port=args.port,
            retries=args.retries,
            backoff_base=args.backoff_base,
            backoff_max=args.backoff_max,
            deadline=args.deadline,
        ) as client:
            pending = []
            for number, line in enumerate(in_stream, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    record = json.loads(line)
                    request_id, _, strategy, timeout = _decode_request(
                        record, number, build=False
                    )
                except (ValueError, TypeError) as error:
                    failures.append(number)
                    print(json.dumps(error_record(number, error)), file=out_stream)
                    continue
                record.setdefault("id", request_id)
                if timeout is None and args.timeout is not None:
                    record["timeout"] = timeout = args.timeout
                try:
                    future = client.submit(record)
                except transient:
                    if not args.retries:
                        raise
                    future = None  # replay in the gather pass
                pending.append((request_id, record, strategy, timeout, future))
            for request_id, record, strategy, timeout, future in pending:
                if future is None:
                    response = client.request(record)
                else:
                    try:
                        response = future.result()
                    except transient:
                        if not args.retries:
                            raise
                        response = client.request(record)
                if response.get("status") == "overloaded" and args.retries:
                    response = client.request(record)
                status = response.get("status")
                if status == "error":
                    failures.append(request_id)
                elif status == "overloaded" and args.check:
                    failures.append(request_id)
                elif args.check and status == "ok":
                    builder, _ = WORKLOAD_BUILDERS[record["workload"]]
                    workload = builder(**(record.get("params") or {}))
                    fresh = workload.optimizer(timeout=timeout).optimize(
                        workload.query, strategy=strategy
                    )
                    checked = _plan_digest(fresh.plans) == response.get("plan_digests")
                    response["matches_single_shot"] = checked
                    if not checked:
                        failures.append(request_id)
                print(json.dumps(response), file=out_stream)
                out_stream.flush()
            if args.stats:
                print(json.dumps(stats_record(client.stats())), file=out_stream, flush=True)
    finally:
        if close_in:
            in_stream.close()
        if close_out:
            out_stream.close()
    return 1 if failures else 0


def _run_obs_check(args, out):
    """Scrape a running observability sidecar and verify its coverage.

    The check is exhaustive by construction: the expected gauge families
    come from the *live* ``ServiceStats().as_dict()`` mapping, so a field
    added to the stats surface fails the check until ``/metrics`` carries
    it.  Exit code 0 iff every endpoint answers and every family is there.
    """
    import urllib.error
    import urllib.request

    from repro.service.metrics import ServiceStats
    from repro.service.observability.httpd import PROMETHEUS_CONTENT_TYPE

    base = f"http://{args.host}:{args.port}"
    problems = []

    def fetch(path):
        with urllib.request.urlopen(base + path, timeout=args.timeout) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )

    try:
        status, _, body = fetch("/healthz")
        if status != 200 or body.strip() != "ok":
            problems.append(f"/healthz: status {status}, body {body!r}")
        status, _, body = fetch("/readyz")
        ready = json.loads(body)
        if status != 200 or not ready.get("ready"):
            problems.append(f"/readyz: status {status}, body {body!r}")
        expected = ServiceStats().as_dict()
        status, _, body = fetch("/stats")
        stats = json.loads(body)
        missing = sorted(set(expected) - set(stats))
        if status != 200 or missing:
            problems.append(f"/stats: status {status}, missing fields {missing}")
        status, content_type, body = fetch("/metrics")
        if status != 200:
            problems.append(f"/metrics: status {status}")
        if content_type != PROMETHEUS_CONTENT_TYPE:
            problems.append(f"/metrics: content type {content_type!r}")
        for key in expected:
            if f"repro_{key} " not in body:
                problems.append(f"/metrics: gauge repro_{key} missing")
        if "repro_stage_latency_seconds_bucket" not in body:
            problems.append("/metrics: stage latency histograms missing")
        status, _, body = fetch("/traces")
        if status != 200 or not json.loads(body).get("traces"):
            problems.append(f"/traces: status {status}, body {body[:120]!r}")
    except (urllib.error.URLError, OSError, ValueError) as error:
        problems.append(f"scrape failed: {error}")
    for problem in problems:
        print(f"obs-check: {problem}", file=sys.stderr)
    print(json.dumps(obs_check_record(problems)), file=out)
    return 1 if problems else 0


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in EXPERIMENTS:
            print(name, file=out)
        return 0
    if args.command == "optimize":
        return _run_optimize(args, out)
    if args.command == "route":
        return _run_route(args, out)
    if args.command == "client":
        return _run_client(args, out)
    if args.command == "obs-check":
        return _run_obs_check(args, out)
    if args.command == "serve" and args.port is not None:
        return _run_socket_server(args, out)
    if args.command in ("batch", "serve"):
        return _run_service_stream(args, out, streaming=args.command == "serve")
    return _run_experiment(args.command, args, out)


if __name__ == "__main__":  # pragma: no cover - exercised through main() in tests
    sys.exit(main())
