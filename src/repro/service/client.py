"""Client for the optimizer service's TCP front end.

:class:`OptimizerClient` speaks the JSONL protocol of
:mod:`repro.service.protocol` over one socket.  Because the server streams
responses *as they complete* (out of order), the client runs a reader
thread that demultiplexes incoming records back to per-request futures by
``id`` — which makes the client safe to share across threads: the
concurrency stress suite hammers one connection from many threads and every
request still gets exactly its own response.

Resilience: every transport failure is *typed* and every in-flight future
resolves.  A malformed or truncated response line fails all pending
requests with :class:`~repro.errors.ProtocolError` and tears the connection
down (a demux that has lost framing cannot trust anything after the bad
line); EOF or a socket error fails them with
:class:`~repro.errors.ConnectionLost`.  With ``retries > 0``,
:meth:`request` / :meth:`request_many` transparently reconnect and replay:
transient failures (connection reset, torn frames, ``overloaded``
rejections) are retried with capped exponential backoff plus jitter,
honouring the server's ``retry_after`` hint when one is present, and give
up once the ``deadline`` would be exceeded.  Replays reuse the *same*
request id — optimization requests are pure (no side effects), so replaying
one is idempotent and the id lets server logs correlate the attempts.

Usage::

    from repro.service import OptimizerClient

    with OptimizerClient(port=server.port, retries=3, deadline=30.0) as client:
        record = client.request({"workload": "ec2",
                                 "params": {"stars": 1, "corners": 3, "views": 1},
                                 "strategy": "fb"})
        assert record["status"] == "ok"      # overloads were retried
        print(client.stats()["memo_hit_rate"])
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import threading
import time
from concurrent.futures import Future

from repro.errors import ConnectionLost, ProtocolError
from repro.service.protocol import ping_request, stats_request

#: Transport failures :meth:`OptimizerClient.request` treats as transient.
_TRANSIENT = (ProtocolError, ConnectionError, OSError)


class _Link:
    """One TCP connection: socket, reader thread, pending-future demux.

    A link is immutable once dead — the client replaces it wholesale on
    reconnect, so no future can be registered against a connection whose
    teardown already drained the pending map (the ``dead`` check and the
    drain both run under ``pending_lock``).
    """

    def __init__(self, host, port, connect_timeout):
        self.sock = socket.create_connection((host, port), timeout=connect_timeout)  # released-by: _teardown
        self.sock.settimeout(None)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")  # released-by: _teardown
        self.write_lock = threading.Lock()
        self.pending = {}  # guarded-by: pending_lock
        self.pending_lock = threading.Lock()
        self.dead = threading.Event()
        self.thread = threading.Thread(  # released-by: close
            target=self._read_loop, name="svc-client-reader", daemon=True
        )
        self.thread.start()

    def submit(self, record):
        request_id = record["id"]
        future = Future()
        with self.pending_lock:
            if self.dead.is_set():
                raise ConnectionLost("connection is closed")
            if request_id in self.pending:
                raise ValueError(f"request id {request_id!r} is already in flight")
            self.pending[request_id] = future
        data = (json.dumps(record) + "\n").encode("utf-8")
        try:
            with self.write_lock:
                self.sock.sendall(data)
        except OSError as error:
            with self.pending_lock:
                self.pending.pop(request_id, None)
            raise ConnectionLost(f"send failed: {error}") from error
        return future

    def _read_loop(self):
        failure = ConnectionLost("connection closed before a response arrived")
        try:
            for line in self.reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    # A torn or garbage frame: the demux has lost framing, so
                    # nothing after this line can be trusted.  Typed failure
                    # for every pending request, then tear the link down —
                    # the old behaviour (skip the line) left the reader alive
                    # and the skipped request's future pending forever.
                    failure = ProtocolError(f"malformed response line: {error}")
                    break
                if not isinstance(record, dict):
                    failure = ProtocolError(
                        f"response line is not an object: {record!r}"
                    )
                    break
                with self.pending_lock:
                    future = self.pending.pop(record.get("id"), None)
                if future is not None:
                    future.set_result(record)
        except OSError:
            pass
        finally:
            self._teardown(failure)

    def _teardown(self, error):
        self.dead.set()
        # Shut the socket first (wakes a reader blocked in recv), then close
        # the makefile wrapper and the socket itself.
        for method in (
            lambda: self.sock.shutdown(socket.SHUT_RDWR),
            self.reader.close,
            self.sock.close,
        ):
            try:
                method()
            except OSError:
                pass
        with self.pending_lock:
            pending, self.pending = dict(self.pending), {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    def close(self):
        self._teardown(ConnectionLost("client closed the connection"))
        if self.thread is not threading.current_thread():
            self.thread.join(timeout=5.0)


class OptimizerClient:
    """JSONL-over-TCP client with id-based demux, reconnect and retries.

    Parameters
    ----------
    host / port:
        The server's bind address (see
        :attr:`~repro.service.server.OptimizerServer.address`).
    connect_timeout:
        Seconds to wait for each TCP connect.
    retries:
        Transparent replays of a failed request in :meth:`request` /
        :meth:`request_many` (0 = fail fast, the pre-resilience behaviour).
        Covers transient transport failures *and* ``overloaded`` rejections.
    backoff_base / backoff_max:
        Exponential backoff schedule between attempts:
        ``min(backoff_max, backoff_base * 2**attempt)`` plus up to 25%
        jitter (decorrelates a fleet of retrying clients).  A server's
        explicit ``retry_after`` hint bypasses both the cap and the jitter
        — it is honoured exactly, bounded only by ``deadline``.
    deadline:
        Overall wall-clock budget (seconds) across *all* attempts of one
        :meth:`request`; when the next backoff sleep would exceed it, the
        client gives up and re-raises the underlying failure.
    backoff_seed:
        Seed for the jitter stream — the chaos suite pins it so retry
        schedules are reproducible.
    """

    def __init__(
        self,
        host="127.0.0.1",
        port=0,
        connect_timeout=5.0,
        retries=0,
        backoff_base=0.05,
        backoff_max=2.0,
        deadline=None,
        backoff_seed=None,
    ):
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.deadline = deadline
        self._rng = random.Random(backoff_seed)  # guarded-by: _rng_lock
        self._rng_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._link_lock = threading.Lock()
        self._closed = False  # guarded-by: _link_lock
        self.reconnects = 0  # guarded-by: _link_lock
        self.replays = 0  # guarded-by: _link_lock
        self._link = _Link(host, port, connect_timeout)  # guarded-by: _link_lock

    # ------------------------------------------------------------------ #
    # request submission
    # ------------------------------------------------------------------ #
    def submit(self, record):
        """Send one request record; returns a Future of the response record.

        Single-attempt (retries live in :meth:`request`), but reconnects
        first when the previous connection died.  A missing ``id`` is
        assigned (``c1``, ``c2``, ...).  Ids must be unique among in-flight
        requests — the demux is keyed by them.
        """
        record = dict(record)
        if "id" not in record:
            record["id"] = f"c{next(self._ids)}"
        return self._ensure_link().submit(record)

    def request(self, record, timeout=None):
        """Send one request and wait for its response record, with retries.

        Transient failures (reset/torn connections, malformed frames,
        ``overloaded`` responses) are retried up to ``self.retries`` times
        with capped exponential backoff + jitter, reusing the same request
        id; an ``overloaded`` response's ``retry_after`` hint overrides the
        computed backoff.  Raises the last transport error (or returns the
        last ``overloaded`` record) once attempts or the deadline run out.
        """
        record = dict(record)
        if "id" not in record:
            record["id"] = f"c{next(self._ids)}"
        give_up_at = (
            time.monotonic() + self.deadline if self.deadline is not None else None
        )
        attempt = 0
        while True:
            try:
                response = self.submit(record).result(
                    timeout=self._wait_budget(timeout, give_up_at)
                )
            except _TRANSIENT:
                if attempt >= self.retries or self._is_closed():
                    raise
                if not self._backoff(attempt, give_up_at):
                    raise
                attempt += 1
                self._count_replay()
                continue
            if response.get("status") == "overloaded" and attempt < self.retries:
                if not self._backoff(
                    attempt, give_up_at, suggested=response.get("retry_after")
                ):
                    return response  # deadline exhausted: report the overload
                attempt += 1
                self._count_replay()
                continue
            return response

    def request_many(self, records, timeout=None):
        """Pipeline several requests; responses returned in submission order.

        With ``retries > 0``, requests that failed in flight (or came back
        ``overloaded``) are replayed individually via :meth:`request` after
        the pipelined pass — maximum throughput first, resilience second.
        """
        prepared = []
        for record in records:
            record = dict(record)
            if "id" not in record:
                record["id"] = f"c{next(self._ids)}"
            prepared.append(record)
        futures = []
        for record in prepared:
            try:
                futures.append(self.submit(record))
            except _TRANSIENT:
                if not self.retries:
                    raise
                futures.append(None)  # replay after the pipelined pass
        results = []
        for record, future in zip(prepared, futures):
            if future is None:
                results.append(self.request(record, timeout=timeout))
                continue
            try:
                response = future.result(timeout=timeout)
            except _TRANSIENT:
                if not self.retries:
                    raise
                results.append(self.request(record, timeout=timeout))
                continue
            if response.get("status") == "overloaded" and self.retries:
                results.append(self.request(record, timeout=timeout))
                continue
            results.append(response)
        return results

    def stats(self, timeout=None):
        """Fetch the server's service-wide stats dict."""
        response = self.request(stats_request(), timeout=timeout)
        return response["stats"]

    def ping(self, timeout=None):
        """Liveness round-trip; returns ``True`` when the server answered."""
        return bool(self.request(ping_request(), timeout=timeout).get("pong"))

    # ------------------------------------------------------------------ #
    # reconnect + backoff plumbing
    # ------------------------------------------------------------------ #
    def _is_closed(self):
        """Read the closed flag under its lock (a retry loop's exit test must
        not race :meth:`close` flipping the flag and dropping the link)."""
        with self._link_lock:
            return self._closed

    def _count_replay(self):
        with self._link_lock:
            self.replays += 1

    def _ensure_link(self):
        with self._link_lock:
            if self._closed:
                raise RuntimeError("OptimizerClient is closed")
            if self._link is None or self._link.dead.is_set():
                try:
                    self._link = _Link(self._host, self._port, self._connect_timeout)
                except OSError as error:
                    raise ConnectionLost(f"reconnect failed: {error}") from error
                self.reconnects += 1
            return self._link

    def _wait_budget(self, timeout, give_up_at):
        """Per-attempt wait: the caller's timeout capped by the deadline."""
        if give_up_at is None:
            return timeout
        remaining = give_up_at - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("client deadline exceeded")
        return remaining if timeout is None else min(timeout, remaining)

    def _jitter(self):
        """One jitter sample, under the RNG's own lock.

        ``random.Random`` mutates internal state on every draw and is not
        thread-safe; the client *is* (documented contract, enforced by the
        stress suite), and concurrent :meth:`request` callers all back off
        through the same RNG — so the draw gets its own lock rather than
        piggybacking on ``_link_lock`` (no reason for a sleep schedule to
        contend with reconnects).
        """
        with self._rng_lock:
            return self._rng.random()

    def _next_delay(self, attempt, suggested=None):
        """Delay (seconds) before retry ``attempt + 1``; pure, no sleeping.

        An explicit server ``retry_after`` hint is honoured *exactly*: no
        clamp to ``backoff_max``, no jitter.  The server names the earliest
        moment it expects capacity; clamping a hint above ``backoff_max``
        (the old behaviour) made the client come back *earlier* than asked,
        re-hammering the overloaded shard.  The caller's deadline — applied
        by :meth:`_backoff` — remains the only cap.  Without a hint, capped
        exponential backoff with up to +25% jitter decorrelates a fleet of
        retrying clients.
        """
        if suggested is not None:
            return max(0.0, float(suggested))
        delay = min(self.backoff_max, self.backoff_base * (2**attempt))
        return delay * (1.0 + 0.25 * self._jitter())

    def _backoff(self, attempt, give_up_at, suggested=None):
        """Sleep before the next attempt; False when the deadline forbids it."""
        delay = self._next_delay(attempt, suggested=suggested)
        if give_up_at is not None and time.monotonic() + delay >= give_up_at:
            return False
        time.sleep(delay)
        return True

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self):
        """Close the connection; in-flight futures fail with ConnectionLost."""
        with self._link_lock:
            if self._closed:
                return
            self._closed = True
            link, self._link = self._link, None
        if link is not None:
            link.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


__all__ = ["OptimizerClient"]
