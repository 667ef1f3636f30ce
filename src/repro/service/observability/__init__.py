"""First-class observability for the optimizer service.

Three surfaces over one running :class:`~repro.service.OptimizerService`:

``tracing``
    :class:`Tracer` — creates per-request
    :class:`~repro.trace.RequestTrace` span trees, keeps a bounded
    in-memory ring of finished traces, optionally appends each to a JSONL
    trace log, and feeds the per-stage latency histograms live.
``prometheus``
    :func:`render_metrics` — every :class:`~repro.service.ServiceStats`
    gauge, the per-shard breakdown and the per-stage latency histograms in
    Prometheus text exposition format.
``httpd``
    :class:`~repro.service.observability.httpd.ObservabilityServer` — a
    stdlib ``http.server`` sidecar with ``/metrics`` (Prometheus),
    ``/healthz`` (liveness), ``/readyz`` (readiness), ``/stats``
    (``as_dict`` JSON) and ``/traces`` (the recent trace ring).  It is not
    re-exported by this package: import it from
    ``repro.service.observability.httpd``, so that importing ``repro`` does
    not load ``http.server``, ``ssl`` and ``email`` into every process.
``events``
    :class:`EventLog` / :func:`log_event` — the structured JSONL event
    stream (request admitted/rejected/completed, runner crash/restart,
    snapshot save/load/fail) that replaces ad-hoc stderr prints.
"""

from repro.service.observability.events import EventLog, log_event
from repro.service.observability.prometheus import render_metrics
from repro.service.observability.tracing import Tracer

__all__ = [
    "EventLog",
    "Tracer",
    "log_event",
    "render_metrics",
]
