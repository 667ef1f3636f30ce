"""The fleet router: one JSONL front end over N backend ``serve`` processes.

:class:`FleetRouter` listens on the same TCP JSONL protocol as
:class:`~repro.service.server.OptimizerServer` and *forwards* instead of
executing: each request's constraint set is resolved to its structural
digest (:func:`~repro.chase.implication.constraints_digest`, memoised per
workload/params pair so the catalog is built once per distinct catalog, not
per request) and consistent-hashed across the backend ring.  Clients keep
using :class:`~repro.service.client.OptimizerClient` unchanged — the router
is just another server to them.

Re-routing, not shedding: a backend's ``overloaded`` response sends the
request to the next replica on the ring's preference walk; only when *every*
backend is overloaded does the client see the rejection (with the last
backend's ``retry_after`` hint intact, which the client now honours
exactly).  Transport failures fail over the same way and flip the backend's
health bit, which feeds the ``/readyz`` probe and the ``backends_healthy``
gauge on the PR 9 observability surface — the router exposes
:meth:`stats`/:meth:`readiness` with the exact shapes
:class:`~repro.service.observability.httpd.ObservabilityServer` and
:func:`~repro.service.observability.prometheus.render_metrics` expect, so
the sidecar wraps a router as readily as a service.

Request ids are rewritten on the backend hop (``rt<n>``): two client
connections may pipeline the same id concurrently, and the per-backend
client demultiplexes by id, so the router's ids must be unique fleet-wide;
the original id is restored on the response line.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.chase.implication import constraints_digest
from repro.errors import ProtocolError
from repro.service.client import OptimizerClient
from repro.service.observability.events import log_event
from repro.service.protocol import (
    decode_request,
    error_record,
    pong_record,
    stats_record,
)
from repro.service.server import _Connection

#: Transport failures that trigger failover to the next ring backend.
_TRANSIENT = (ProtocolError, ConnectionError, OSError)


@dataclass
class RouterStats:
    """The router's gauge surface (the fleet analogue of ``ServiceStats``).

    ``as_dict()`` + an (empty) ``shards`` list are the exact interface the
    observability sidecar renders mechanically, so every field here is a
    ``repro_`` gauge on ``/metrics`` automatically.  ``rerouted`` counts
    overloaded responses that found capacity elsewhere, ``shed`` the
    requests every backend rejected, ``failovers`` the transport-failure
    re-dispatches.
    """

    backends: int = 0
    backends_healthy: int = 0
    requests: int = 0
    routed: int = 0
    rerouted: int = 0
    failovers: int = 0
    shed: int = 0
    errors: int = 0
    shards: list = field(default_factory=list, repr=False)

    def as_dict(self):
        return {
            "backends": self.backends,
            "backends_healthy": self.backends_healthy,
            "requests": self.requests,
            "routed": self.routed,
            "rerouted": self.rerouted,
            "failovers": self.failovers,
            "shed": self.shed,
            "errors": self.errors,
        }


class FleetRouter:
    """Consistent-hash front end for a fleet of backend ``serve`` processes.

    Parameters
    ----------
    backends:
        Backend specs: ``"host:port"`` strings or ``(host, port)`` pairs.
    host / port:
        The router's own bind address (``port=0`` = OS-assigned; read it
        back from :attr:`address`, as the ``--port-file`` flag does).
    connect_timeout / request_timeout:
        Per-backend TCP connect budget and per-attempt response wait; a
        ``request_timeout`` expiry counts as a transport failure and fails
        over (``None`` waits indefinitely).
    ring_replicas:
        Virtual points per backend on the consistent-hash ring.
    route_workers:
        Routing worker threads: forwarded requests wait on backend round
        trips, so one slow backend must not serialize a connection's
        pipelined lines.
    event_log:
        Optional :class:`~repro.service.observability.events.EventLog`;
        the router emits ``route.reroute`` / ``route.failover`` /
        ``route.shed`` events.
    """

    def __init__(
        self,
        backends,
        host="127.0.0.1",
        port=0,
        backlog=32,
        connect_timeout=5.0,
        request_timeout=None,
        ring_replicas=64,
        route_workers=16,
        event_log=None,
    ):
        from repro.service.fleet.membership import Backend, HashRing, parse_backend

        self._backends = {}
        for spec in backends:
            backend_host, backend_port = (
                parse_backend(spec) if isinstance(spec, str) else spec
            )
            backend = Backend(backend_host, backend_port)
            self._backends[backend.name] = backend
        self.ring = HashRing(list(self._backends), replicas=ring_replicas)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.event_log = event_log
        self._clients = {}  # guarded-by: _clients_lock
        self._clients_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._requests = 0  # guarded-by: _stats_lock
        self._routed = 0  # guarded-by: _stats_lock
        self._rerouted = 0  # guarded-by: _stats_lock
        self._failovers = 0  # guarded-by: _stats_lock
        self._shed = 0  # guarded-by: _stats_lock
        self._errors = 0  # guarded-by: _stats_lock
        self._digests = {}  # guarded-by: _digest_lock
        self._digest_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool = ThreadPoolExecutor(  # released-by: stop
            max_workers=route_workers, thread_name_prefix="fleet-route"
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)  # released-by: stop
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self.address = self._listener.getsockname()
        self._connections = []  # guarded-by: _connections_lock
        self._connections_lock = threading.Lock()
        self._closed = threading.Event()
        self._accept_thread = threading.Thread(  # released-by: stop
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._handler_threads = []  # guarded-by: _connections_lock
        self._accept_thread.start()

    @property
    def port(self):
        return self.address[1]

    # ------------------------------------------------------------------ #
    # accept / per-connection handling (mirrors OptimizerServer)
    # ------------------------------------------------------------------ #
    def _accept_loop(self):
        while not self._closed.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            connection = _Connection(sock, address)
            with self._connections_lock:
                self._connections.append(connection)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name=f"fleet-conn-{address[1]}",
                daemon=True,
            )
            with self._connections_lock:
                self._handler_threads = [
                    thread for thread in self._handler_threads if thread.is_alive()
                ]
                self._handler_threads.append(handler)
            handler.start()

    def _handle_connection(self, connection):
        reader = connection.sock.makefile("r", encoding="utf-8", newline="\n")
        try:
            for number, line in enumerate(reader, start=1):
                if self._closed.is_set():
                    break
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                self._handle_line(connection, line, number)
        except OSError:
            pass  # connection reset mid-read; dispatched requests still answer
        finally:
            connection.drained.wait()
            try:
                reader.close()
            except OSError:
                pass
            try:
                connection.sock.close()
            except OSError:
                pass
            with self._connections_lock:
                if connection in self._connections:
                    self._connections.remove(connection)

    def _handle_line(self, connection, line, number):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            connection.send(error_record(number, error))
            return
        if not isinstance(record, dict):
            connection.send(error_record(number, "request line must be a JSON object"))
            return
        if "op" in record:
            self._handle_op(connection, record, number)
            return
        connection.began()
        try:
            self._pool.submit(self._route_request, connection, record, number)
        except RuntimeError as error:  # pool shut down mid-line
            connection.finished()
            connection.send(error_record(record.get("id", number), error))

    def _handle_op(self, connection, record, number):
        """Control ops answered by the router itself (never forwarded)."""
        op = record.get("op")
        request_id = record.get("id", number)
        if op == "stats":
            connection.send(stats_record(self.stats().as_dict(), request_id))
        elif op == "ping":
            connection.send(pong_record(request_id))
        else:
            connection.send(error_record(request_id, f"unknown op {op!r}"))

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _digest_for(self, record):
        """The request's structural constraint digest (memoised per catalog).

        Builds the workload once per distinct ``(workload, params)`` pair —
        the digest is a pure function of the catalog's constraint set, and
        the router must not pay catalog construction per request.
        """
        key = None
        try:
            params = record.get("params") or {}
            key = (record.get("workload"), tuple(sorted(params.items())))
        except TypeError:
            key = None  # unhashable params: validate + digest uncached
        if key is not None:
            with self._digest_lock:
                cached = self._digests.get(key)
            if cached is not None:
                return cached
        _rid, workload, _strategy, _timeout = decode_request(dict(record), 0)
        digest = constraints_digest(workload.catalog.constraints())
        if key is not None:
            with self._digest_lock:
                self._digests[key] = digest
        return digest

    def _client_for(self, backend):
        with self._clients_lock:
            client = self._clients.get(backend.name)
            if client is None:
                # One shared client per backend: it reconnects itself after
                # transport failures, so it is created exactly once.
                client = OptimizerClient(
                    host=backend.host,
                    port=backend.port,
                    connect_timeout=self.connect_timeout,
                )
                self._clients[backend.name] = client
            return client

    def _mark(self, backend, healthy):
        with self._stats_lock:
            backend.healthy = healthy

    def _route_request(self, connection, record, number):
        request_id = record.get("id", number)
        try:
            self._route(connection, record, request_id)
        except Exception as error:  # noqa: BLE001 - every line gets one response
            with self._stats_lock:
                self._errors += 1
            connection.send(error_record(request_id, error))
        finally:
            connection.finished()

    def _route(self, connection, record, request_id):
        with self._stats_lock:
            self._requests += 1
        try:
            digest = self._digest_for(record)
        except (ValueError, TypeError) as error:
            # Validation failures stop at the edge: no backend would accept
            # the request either, so burning a hop on it only adds latency.
            with self._stats_lock:
                self._errors += 1
            connection.send(error_record(request_id, error))
            return
        order = self.ring.preference(digest)
        wire = dict(record)
        last_overloaded = None
        last_failure = None
        for position, name in enumerate(order):
            backend = self._backends[name]
            wire["id"] = f"rt{next(self._ids)}"
            try:
                response = self._client_for(backend).request(
                    wire, timeout=self.request_timeout
                )
            except _TRANSIENT as error:
                self._mark(backend, healthy=False)
                with self._stats_lock:
                    self._failovers += 1
                    backend.failures += 1
                last_failure = error
                log_event(
                    self.event_log,
                    "route.failover",
                    request_id=request_id,
                    backend=name,
                    error=str(error),
                )
                continue
            self._mark(backend, healthy=True)
            if response.get("status") == "overloaded":
                last_overloaded = response
                with self._stats_lock:
                    backend.rerouted_away += 1
                if position + 1 < len(order):
                    # Re-route, don't shed: another replica may have capacity
                    # (at worst it pays a cold session for this catalog, or
                    # one store-file load when backends share a store).
                    with self._stats_lock:
                        self._rerouted += 1
                    log_event(
                        self.event_log,
                        "route.reroute",
                        request_id=request_id,
                        backend=name,
                    )
                continue
            with self._stats_lock:
                self._routed += 1
                backend.routed += 1
            response["id"] = request_id
            connection.send(response)
            return
        if last_overloaded is not None:
            # Every backend rejected: surface the overload (with the last
            # retry_after hint intact) so retrying clients back off.
            with self._stats_lock:
                self._shed += 1
            log_event(self.event_log, "route.shed", request_id=request_id)
            last_overloaded["id"] = request_id
            connection.send(last_overloaded)
            return
        with self._stats_lock:
            self._errors += 1
        connection.send(
            error_record(
                request_id, last_failure if last_failure is not None else "no backend available"
            )
        )

    # ------------------------------------------------------------------ #
    # observability surface (the sidecar wraps the router like a service)
    # ------------------------------------------------------------------ #
    def stats(self):
        """Router gauges in the sidecar's expected shape (``as_dict`` + ``shards``)."""
        with self._stats_lock:
            return RouterStats(
                backends=len(self._backends),
                backends_healthy=sum(
                    1 for backend in self._backends.values() if backend.healthy
                ),
                requests=self._requests,
                routed=self._routed,
                rerouted=self._rerouted,
                failovers=self._failovers,
                shed=self._shed,
                errors=self._errors,
            )

    def readiness(self):
        """``(ready, detail)``: ready while at least one backend is healthy."""
        with self._stats_lock:
            healthy = [
                backend.name
                for backend in self._backends.values()
                if backend.healthy
            ]
        if self._closed.is_set():
            return False, {"reason": "router is stopped"}
        if not healthy:
            return False, {"reason": "no healthy backends"}
        return True, {"backends": len(self._backends), "healthy": len(healthy)}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def stop(self, drain=True, timeout=None):
        """Stop accepting, drain dispatched requests, release everything."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._connections_lock:
            connections = list(self._connections)
        if drain:
            for connection in connections:
                connection.drained.wait(timeout=timeout)
        for connection in connections:
            connection.abort()
        self._accept_thread.join(timeout=5.0)
        with self._connections_lock:
            handlers = list(self._handler_threads)
        for handler in handlers:
            handler.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        with self._clients_lock:
            clients, self._clients = list(self._clients.values()), {}
        for client in clients:
            client.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


__all__ = ["FleetRouter", "RouterStats"]
