"""TCP front end for the optimizer service: JSONL over a socket.

:class:`OptimizerServer` binds a listening socket and serves the JSONL
protocol of :mod:`repro.service.protocol` over it: every connection is an
independent request stream, every request line is submitted to the shared
:class:`~repro.service.service.OptimizerService`, and responses are written
back *as they complete* (out of order — clients correlate by ``id``, which
is what :class:`~repro.service.client.OptimizerClient` does).

Overload semantics: when admission control sheds a request
(:class:`~repro.errors.ServiceOverloaded`), the connection immediately
receives a typed ``{"status": "overloaded"}`` record — the request was never
queued, so clients can back off and retry without wondering whether it ran.
Every request line therefore gets *exactly one* response line (``ok``,
``error`` or ``overloaded``); the stress suite asserts this under
concurrent hammering.

Shutdown is graceful by default: :meth:`stop` closes the listener (no new
connections), waits for every in-flight request to resolve and its response
line to be written (*drain*), then closes the connections and — when the
server owns it — shuts the service down.

Usage::

    from repro.service import OptimizerServer

    with OptimizerServer(shards=2, workers=2, max_queue_depth=8) as server:
        print("listening on", server.address)   # ('127.0.0.1', <port>)
        ...                                     # clients connect and stream
    # leaving the block drains and stops the server
"""

from __future__ import annotations

import json
import socket
import threading

from repro.errors import InjectedFault, ServiceOverloaded
from repro.service.faults import maybe_fail
from repro.service.protocol import (
    decode_request,
    encode_response,
    error_record,
    overloaded_record,
    pong_record,
    stats_record,
)
from repro.service.service import OptimizerService


class _Connection:
    """Book-keeping for one client connection."""

    def __init__(self, sock, address, faults=None):
        self.sock = sock
        self.address = address
        self.faults = faults
        self.write_lock = threading.Lock()
        self.pending = 0  # guarded-by: pending_lock
        self.pending_lock = threading.Lock()
        self.drained = threading.Event()
        self.drained.set()

    def began(self):
        with self.pending_lock:
            self.pending += 1
            self.drained.clear()

    def finished(self):
        with self.pending_lock:
            self.pending -= 1
            if self.pending == 0:
                self.drained.set()

    def send(self, record):
        """Write one JSONL record (thread-safe; drops on a dead socket)."""
        try:
            maybe_fail(self.faults, "server.write", detail=record.get("id"))
        except InjectedFault:
            # Simulated response lost in transit.  Dropping the record
            # silently would leave the client waiting forever, so tear the
            # connection down too: the client's reader observes the close
            # (ConnectionLost), and a retrying client replays the request
            # over a fresh connection.
            self.abort()
            return
        data = (json.dumps(record) + "\n").encode("utf-8")
        try:
            with self.write_lock:
                self.sock.sendall(data)
        except OSError:
            # The client went away; its in-flight work still completes in the
            # service (results are simply unobserved), matching how a JSONL
            # batch degrades per-request instead of aborting.
            pass

    def abort(self):
        """Hard-close the socket (fault injection / fatal read failure)."""
        for closer in (lambda: self.sock.shutdown(socket.SHUT_RDWR), self.sock.close):
            try:
                closer()
            except OSError:
                pass


class OptimizerServer:
    """Socket server wrapping an :class:`OptimizerService`.

    Parameters
    ----------
    service:
        An existing service to expose.  When ``None``, the server builds one
        from ``service_kwargs`` (every :class:`OptimizerService` knob —
        ``shards``, ``workers``, ``max_queue_depth``, ``max_cache_entries``,
        ...) and owns its lifecycle (shut down with the server).
    host / port:
        Bind address.  ``port=0`` (the default) lets the OS pick a free
        port; read it back from :attr:`address` — this is what the tests and
        the ``--port-file`` CLI flag rely on.
    backlog:
        Listen backlog for pending TCP connects.
    """

    def __init__(
        self,
        service=None,
        host="127.0.0.1",
        port=0,
        backlog=32,
        fault_injector=None,
        **service_kwargs,
    ):
        self._owns_service = service is None
        if service is None:
            # One injector covers the whole stack: a server-owned service
            # inherits the server's injector, so a single FaultInjector
            # reaches shard.execute/snapshot.* as well as server.read/write.
            service_kwargs.setdefault("fault_injector", fault_injector)
            service = OptimizerService(**service_kwargs)
        self.service = service
        # Symmetrically, a server that isn't handed its own injector adopts
        # the (pre-built) service's, so the CLI configures faults in one spot.
        self.fault_injector = (
            fault_injector
            if fault_injector is not None
            else getattr(self.service, "fault_injector", None)
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
            target=self._accept_loop, name="svc-accept", daemon=True
        )
        self._handler_threads = []  # guarded-by: _connections_lock
        self._accept_thread.start()

    @property
    def port(self):
        return self.address[1]

    # ------------------------------------------------------------------ #
    # accept / per-connection handling
    # ------------------------------------------------------------------ #
    def _accept_loop(self):
        while not self._closed.is_set():
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            connection = _Connection(sock, address, faults=self.fault_injector)
            with self._connections_lock:
                self._connections.append(connection)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name=f"svc-conn-{address[1]}",
                daemon=True,
            )
            # Prune finished handlers so a long-lived server doesn't grow a
            # thread-object list with every connection ever accepted.  Under
            # the lock: stop() snapshots this list from another thread, and
            # the prune-and-append used to race that read.
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
                    # stop() has begun: admit nothing more — a client that
                    # keeps pipelining must not extend the drain forever.
                    # The line already in hand gets a typed rejection, then
                    # the connection stops reading; everything admitted
                    # before stop() still gets its response via the drain.
                    line = line.strip()
                    if line and not line.startswith("#"):
                        try:
                            probe = json.loads(line)
                            rid = probe.get("id", number) if isinstance(probe, dict) else number
                        except json.JSONDecodeError:
                            rid = number
                        connection.send(
                            overloaded_record(rid, "server is draining for shutdown")
                        )
                    break
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    maybe_fail(self.fault_injector, "server.read", detail=number)
                except InjectedFault:
                    # Simulated torn read: drop the connection as a real
                    # recv() failure would.  Requests admitted earlier still
                    # drain; the client reconnects and replays this one.
                    break
                self._handle_line(connection, line, number)
        except OSError:
            pass  # connection reset mid-read; in-flight work still completes
        finally:
            # EOF: the client sent everything it will.  Wait for in-flight
            # responses so the final lines are written before close.
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
        # Control ops are answered inline (they never hit admission).
        try:
            probe = json.loads(line)
        except (ValueError, RecursionError) as error:
            connection.send(error_record(number, error))
            return
        if isinstance(probe, dict) and "op" in probe:
            self._handle_op(connection, probe, number)
            return
        try:
            request_id, workload, strategy, timeout = decode_request(line, number)
        except (ValueError, TypeError) as error:
            connection.send(error_record(probe.get("id", number) if isinstance(probe, dict) else number, error))
            return
        connection.began()
        try:
            future = self.service.submit(
                workload.query,
                strategy=strategy,
                catalog=workload.catalog,
                timeout=timeout,
                request_id=request_id,
            )
        except ServiceOverloaded as error:
            connection.finished()
            connection.send(overloaded_record(request_id, error))
            return
        except Exception as error:  # noqa: BLE001 - every line gets one response
            connection.finished()
            connection.send(error_record(request_id, error))
            return

        def _on_done(done, rid=request_id, w=workload, s=strategy):
            try:
                connection.send(encode_response(rid, w, s, done.result()))
            except Exception as error:  # noqa: BLE001 - never lose the response
                connection.send(error_record(rid, error))
            finally:
                connection.finished()

        future.add_done_callback(_on_done)

    def _handle_op(self, connection, record, number):
        op = record.get("op")
        request_id = record.get("id", number)
        if op == "stats":
            connection.send(stats_record(self.service.stats().as_dict(), request_id))
        elif op == "ping":
            connection.send(pong_record(request_id))
        else:
            connection.send(error_record(request_id, f"unknown op {op!r}"))

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def stop(self, drain=True, timeout=None):
        """Stop accepting, optionally drain in-flight requests, close (idempotent).

        ``drain=True`` waits (up to ``timeout`` seconds per connection) for
        every admitted request's response line to be written before the
        connections are closed; ``drain=False`` closes immediately — admitted
        work still completes inside the service, but clients may miss
        responses.  The owned service (if any) is shut down afterwards.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        # shutdown() wakes an accept() blocked in another thread (a bare
        # close() does not, on Linux), so the accept loop exits promptly.
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
            # shutdown() (not just close()) forces the handler's reader off
            # the fd even while the makefile wrapper still references the
            # socket, so handler threads cannot outlive stop().
            try:
                connection.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.sock.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)
        with self._connections_lock:
            handlers = list(self._handler_threads)
        for handler in handlers:
            handler.join(timeout=5.0)
        if self._owns_service:
            self.service.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False


__all__ = ["OptimizerServer"]
