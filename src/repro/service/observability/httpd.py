"""The HTTP observability sidecar: /metrics, /healthz, /readyz, /stats, /traces.

A stdlib :class:`http.server.ThreadingHTTPServer` running on its own daemon
thread next to the JSONL socket front end (``serve --http-port``).  It is a
*read-only* window: every endpoint snapshots live service state and never
touches the serving path.

Endpoints
---------
``/metrics``
    Prometheus text format: every service gauge, the per-shard breakdown
    and the per-stage latency histograms
    (:func:`~repro.service.observability.prometheus.render_metrics`).
``/healthz``
    Liveness: 200 as long as the sidecar answers (the process is up).
``/readyz``
    Readiness: 200 once the readiness probe passes (service accepting,
    every shard's runner pool alive, snapshot load settled), 503 with a
    JSON detail body otherwise.
``/stats``
    The ``ServiceStats.as_dict()`` JSON — byte-for-byte the same mapping
    the JSONL ``{"op": "stats"}`` control line returns.
``/traces``
    The recent finished span trees from the tracer ring
    (``?limit=N`` caps the count), newest last.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.observability.prometheus import render_metrics

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server`` (the sidecar)."""

    protocol_version = "HTTP/1.1"

    # The default handler logs every request to stderr; a scraped /metrics
    # endpoint would turn that into a log line per scrape interval.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_GET(self):  # noqa: N802 - stdlib handler naming
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        if route == "/metrics":
            self._metrics()
        elif route == "/healthz":
            self._send(200, "text/plain; charset=utf-8", "ok\n")
        elif route == "/readyz":
            self._readyz()
        elif route == "/stats":
            self._json(200, self.server.owner.service.stats().as_dict())
        elif route == "/traces":
            self._traces(parsed)
        else:
            self._json(404, {"error": f"no such endpoint {parsed.path!r}"})

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _metrics(self):
        owner = self.server.owner
        tracer = owner.tracer
        body = render_metrics(
            owner.service.stats(),
            histograms=tracer.histograms if tracer is not None else None,
        )
        self._send(200, PROMETHEUS_CONTENT_TYPE, body)

    def _readyz(self):
        ready, detail = self.server.owner.readiness()
        self._json(200 if ready else 503, {"ready": ready, "detail": detail})

    def _traces(self, parsed):
        tracer = self.server.owner.tracer
        if tracer is None:
            self._json(404, {"error": "tracing is not enabled"})
            return
        limit = None
        values = parse_qs(parsed.query).get("limit")
        if values:
            try:
                limit = max(1, int(values[0]))
            except ValueError:
                self._json(400, {"error": f"bad limit {values[0]!r}"})
                return
        self._json(200, {"traces": tracer.recent(limit)})

    # ------------------------------------------------------------------ #
    # response plumbing
    # ------------------------------------------------------------------ #
    def _json(self, status, payload):
        self._send(status, "application/json; charset=utf-8", json.dumps(payload) + "\n")

    def _send(self, status, content_type, body):
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # scraper went away mid-response


class ObservabilityServer:
    """The HTTP sidecar wrapping one service (and optionally its tracer).

    Parameters
    ----------
    service:
        The :class:`~repro.service.OptimizerService` to expose (never
        owned: stopping the sidecar never shuts the service down).
    tracer:
        Optional :class:`~repro.service.observability.tracing.Tracer`;
        enables the ``/traces`` endpoint and the ``/metrics`` histograms.
    host / port:
        Bind address; ``port=0`` (default) lets the OS pick — read it back
        from :attr:`port` (the ``--http-port-file`` flag relies on this).
    readiness:
        Optional zero-arg callable returning ``(ready, detail)`` for
        ``/readyz``; defaults to the service's own
        :meth:`~repro.service.OptimizerService.readiness` probe.
    """

    def __init__(self, service, tracer=None, host="127.0.0.1", port=0, readiness=None):
        self.service = service
        self.tracer = tracer
        self._readiness = readiness
        self._httpd = ThreadingHTTPServer((host, port), _Handler)  # released-by: stop
        self._httpd.daemon_threads = True
        self._httpd.owner = self
        self.address = self._httpd.server_address
        self._thread = threading.Thread(  # released-by: stop
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="svc-observability",
            daemon=True,
        )
        self._stopped = threading.Event()
        self._thread.start()

    @property
    def port(self):
        return self.address[1]

    def readiness(self):
        """Evaluate the readiness probe; never raises (a probe crash is 503)."""
        probe = self._readiness
        try:
            if probe is not None:
                return probe()
            return self.service.readiness()
        except Exception as error:  # noqa: BLE001 - a broken probe reads as unready
            return False, {"error": str(error)}

    def stop(self):
        """Stop serving and release the socket + thread (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


__all__ = ["ObservabilityServer", "PROMETHEUS_CONTENT_TYPE"]
