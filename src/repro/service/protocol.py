"""The JSONL request/response protocol of the optimizer serving layer.

One codec, three transports: the CLI's ``batch``/``serve`` subcommands read
the protocol from files/stdin, the TCP front end
(:mod:`repro.service.server`) speaks it over a socket, and the client
(:mod:`repro.service.client`) demultiplexes it back into futures.  Keeping
encode/decode here — rather than in the CLI — is what makes the
differential test harness meaningful: every path serialises through exactly
the same functions.

Request line (one JSON object per line; ``#`` lines are comments)::

    {"id": "r1",                  # optional; defaults to the line number
     "workload": "ec2",           # ec1 | ec2 | ec3
     "params": {"stars": 2, "corners": 3, "views": 1},   # builder kwargs
     "strategy": "fb",            # fb | oqf | ocs (default fb)
     "timeout": 30.0}             # optional per-request budget (s)

Control lines: ``{"op": "stats", "id": ...}`` asks the server for a
service-stats record; ``{"op": "ping", "id": ...}`` for a liveness echo.

Response lines carry ``status``: ``"ok"`` (plan digests + serving
metadata), ``"error"`` (decode or engine failure), or ``"overloaded"``
(admission rejected the request — retry after backing off; nothing was
executed).

Warm state never travels over this protocol: any other ``op`` gets an
``unknown op`` error record.  Processes share chase fixpoints and
containment verdicts only through files the operator owns (``--snapshot``
and the ``--snapshot-store`` directory).
"""

from __future__ import annotations

import hashlib
import json

from repro.workloads import build_ec1, build_ec2, build_ec3

#: workload name -> (builder, parameter names accepted in a request's "params")
WORKLOAD_BUILDERS = {
    "ec1": (build_ec1, ("relations", "secondary_indexes")),
    "ec2": (build_ec2, ("stars", "corners", "views")),
    "ec3": (build_ec3, ("classes", "asrs")),
}


def decode_request(line, default_id, build=True):
    """Parse one JSONL request line into ``(request_id, workload, strategy, timeout)``.

    ``build=False`` validates the record without constructing the workload
    (``workload`` comes back ``None``): the socket client forwards requests
    for the *server* to build, so paying catalog construction per line on
    the client would only gate submission throughput.

    A bad record raises only ``ValueError`` or ``TypeError`` — a builder
    failure (a ``ParseError`` from out-of-range params, say) is re-raised
    as a chained ``ValueError`` — so callers can answer it with an error.
    """
    try:
        record = json.loads(line) if isinstance(line, str) else line
    except RecursionError as error:
        raise ValueError("request line is nested too deeply") from error
    if not isinstance(record, dict):
        raise ValueError("request line must be a JSON object")
    name = record.get("workload")
    if name not in WORKLOAD_BUILDERS:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOAD_BUILDERS)}"
        )
    builder, accepted = WORKLOAD_BUILDERS[name]
    params = record.get("params") or {}
    unknown = set(params) - set(accepted)
    if unknown:
        raise ValueError(f"unknown {name} params {sorted(unknown)}; accepted: {accepted}")
    try:
        workload = builder(**params) if build else None
    except Exception as error:  # noqa: BLE001 - every builder failure is a bad request
        raise ValueError(f"cannot build {name} with params {params!r}: {error}") from error
    return (
        record.get("id", default_id),
        workload,
        record.get("strategy", "fb"),
        record.get("timeout"),
    )


def plan_digest(plans):
    """Stable short digests of a plan set (sorted, whitespace-insensitive).

    This is the protocol's plan-set signature: two responses describe the
    same plan set iff their digest lists are equal, whichever transport or
    engine produced them — the differential harness compares exactly this.
    """
    texts = sorted(" ".join(str(plan.query).split()) for plan in plans)
    return [hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] for text in texts]


def encode_response(request_id, workload, strategy, response, checked=None):
    """Serialize one service response as a JSONL record.

    Traced responses (the service ran with a tracer) come back with their
    span tree under ``trace`` and reuse the ``plan_digests`` the resolver
    already computed inside the trace's serialize span — the digests are
    identical either way (same :func:`plan_digest` over the same plans),
    so differential checks are unaffected.
    """
    record = {"id": request_id, "workload": workload.name, "strategy": strategy}
    trace = getattr(response, "trace", None)
    if trace is not None:
        record["trace"] = trace.as_dict()
    if not response.ok:
        record["status"] = "error"
        record["error"] = response.error
        error_type = getattr(response, "error_type", None)
        if error_type is not None:
            record["error_type"] = error_type
        return record
    result = response.result
    digests = getattr(response, "plan_digests", None)
    record.update(
        status="ok",
        plan_count=result.plan_count,
        plan_digests=digests if digests is not None else plan_digest(result.plans),
        total_time_s=round(result.total_time, 6),
        timed_out=result.timed_out,
        shard=response.metrics.shard,
        session=response.metrics.session,
        cache_hits=response.metrics.cache_hits,
        cache_misses=response.metrics.cache_misses,
        memo_hits=response.metrics.memo_hits,
        memo_misses=response.metrics.memo_misses,
        latency_s=round(response.metrics.latency, 6),
    )
    if checked is not None:
        record["matches_single_shot"] = checked
    return record


def stats_request(request_id=None):
    """The control line asking the server for a service-stats record."""
    record = {"op": "stats"}
    if request_id is not None:
        record["id"] = request_id
    return record


def ping_request(request_id=None):
    """The control line asking the server for a liveness echo."""
    record = {"op": "ping"}
    if request_id is not None:
        record["id"] = request_id
    return record


def stats_record(stats, request_id=None):
    """The typed reply to ``{"op": "stats"}`` (also the CLI's stats trailer)."""
    record = {"stats": stats}
    if request_id is not None:
        record["id"] = request_id
    return record


def pong_record(request_id):
    """The typed reply to ``{"op": "ping"}``."""
    return {"id": request_id, "pong": True}


def serving_record(host, port):
    """The CLI's startup announcement: where the server is listening."""
    return {"serving": {"host": host, "port": port}}


def obs_check_record(problems):
    """The ``obs-check`` subcommand's verdict line (empty problems = pass)."""
    return {
        "obs_check": "failed" if problems else "ok",
        "problems": list(problems),
    }


def error_record(request_id, error):
    """The typed record for a request that could not be decoded or executed."""
    record = {"id": request_id, "status": "error", "error": str(error)}
    if isinstance(error, BaseException):
        record["error_type"] = type(error).__name__
    return record


def overloaded_record(request_id, error=None):
    """The typed record for a request shed by admission control.

    When the service advertises a backoff hint
    (``ServiceOverloaded.retry_after``), it rides along as ``retry_after``
    so retrying clients wait exactly as long as the operator configured
    instead of guessing.
    """
    record = {"id": request_id, "status": "overloaded"}
    if error is not None:
        record["detail"] = str(error)
        shard = getattr(error, "shard", None)
        if shard is not None:
            record["shard"] = shard
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            record["retry_after"] = retry_after
    return record


__all__ = [
    "WORKLOAD_BUILDERS",
    "decode_request",
    "encode_response",
    "error_record",
    "obs_check_record",
    "overloaded_record",
    "ping_request",
    "plan_digest",
    "pong_record",
    "serving_record",
    "stats_record",
    "stats_request",
]
