"""Crash-safe cache snapshots: atomic writes, a checked header, stale skips.

A snapshot file holds warm sessions as data, never code: a one-line JSON
header, then one :mod:`~repro.service.codec` session document per line::

    {"format": "repro-snapshot", "version": 3, "body_sha256": "<hex>"}
    <session document>
    ...

* **Atomic writes.**  :func:`write_snapshot` writes to a temp file in the
  snapshot's directory, flushes + fsyncs, then ``os.replace``\\ s it over the
  target: a crash mid-write leaves the previous snapshot intact, never a
  torn file.
* **Checked before parsed.**  :func:`read_snapshot` checks the header and
  the body's SHA-256 on the raw bytes before the body is parsed, then
  decodes it only through :func:`~repro.service.codec.decode_session`.  A
  flipped bit, a truncation, a future format, or a file that is not a
  snapshot at all (an old pickle snapshot included) fails *detectably*.
* **Staleness invalidation.**  The loader's merge recomputes each
  session's constraint digest and skips one that disagrees with the digest
  recorded in its document (cold start for that catalog).
* **Degrade, never crash.**  Every failure mode raises a typed
  :class:`~repro.errors.SnapshotError`; loaders
  (:meth:`~repro.service.service.OptimizerService.recover_caches`, the CLI)
  log it, count a recovery, and cold-start.
* **Periodic + signal-triggered.**  :class:`SnapshotManager` runs a
  background snapshot loop (``--snapshot-interval``) and exposes a
  ``SIGUSR1`` trigger, so a crashed server restarts from the *latest
  periodic* snapshot instead of the last graceful drain.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import tempfile
import threading

from repro.errors import InjectedFault, SnapshotError
from repro.service.codec import decode_session
from repro.service.faults import maybe_fail
from repro.service.observability.events import log_event

#: Current file version.  Versions 1 and 2 were pickle files; they now read
#: as corrupt, so an old snapshot costs one counted cold start.
SNAPSHOT_VERSION = 3

_FORMAT = "repro-snapshot"


def write_snapshot(path, documents, faults=None):
    """Atomically write session ``documents`` to ``path``; returns their count.

    ``documents`` are :func:`~repro.service.codec.encode_session` outputs
    (what :meth:`~repro.service.service.OptimizerService.export_sessions`
    returns).  Raises :class:`SnapshotError` on IO failure (the previous
    snapshot, if any, is left untouched).
    """
    path = os.fspath(path)
    try:
        # Injected write faults behave exactly like an IO failure: typed,
        # and struck before anything touches the previous snapshot.
        maybe_fail(faults, "snapshot.write", detail=path)
    except InjectedFault as error:
        raise SnapshotError(
            f"cannot write snapshot {path!r}: {error}", path=path, reason="io"
        ) from error
    body = b"".join(
        json.dumps(document, separators=(",", ":")).encode("utf-8") + b"\n"
        for document in documents
    )
    header = {
        "format": _FORMAT,
        "version": SNAPSHOT_VERSION,
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    directory = os.path.dirname(path) or "."
    try:
        handle = tempfile.NamedTemporaryFile(
            mode="wb", dir=directory, prefix=os.path.basename(path) + ".tmp-", delete=False
        )
        try:
            with handle:
                handle.write(json.dumps(header).encode("utf-8") + b"\n")
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except OSError as error:
        raise SnapshotError(
            f"cannot write snapshot {path!r}: {error}", path=path, reason="io"
        ) from error
    return len(documents)


def read_snapshot(path, faults=None):
    """Read, verify and decode a snapshot into its :class:`~repro.service.
    codec.Session` list (digests as recorded; the loader's merge checks
    them).  Raises :class:`SnapshotError` for every file-level failure:
    missing, unreadable, not a snapshot or a document that does not decode
    (``"corrupt"``), truncated or altered (``"checksum"``), or an
    unsupported version.
    """
    path = os.fspath(path)
    try:
        maybe_fail(faults, "snapshot.read", detail=path)
    except InjectedFault as error:
        raise SnapshotError(
            f"cannot read snapshot {path!r}: {error}", path=path, reason="io"
        ) from error
    if not os.path.exists(path):
        raise SnapshotError(f"snapshot {path!r} does not exist", path=path, reason="missing")
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise SnapshotError(
            f"cannot read snapshot {path!r}: {error}", path=path, reason="io"
        ) from error
    header_line, newline, body = data.partition(b"\n")
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError):
        header = None
    if not newline or not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise SnapshotError(
            f"snapshot {path!r} is corrupt: no snapshot header", path=path, reason="corrupt"
        )
    version = header.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot {path!r} has unsupported version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})",
            path=path,
            reason="version",
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("body_sha256"):
        raise SnapshotError(
            f"snapshot {path!r} failed its body checksum "
            f"(header {header.get('body_sha256')!r}, actual {digest!r})",
            path=path,
            reason="checksum",
        )
    try:
        return [decode_session(json.loads(line)) for line in body.splitlines()]
    except (ValueError, RecursionError) as error:  # CodecError is a ValueError
        raise SnapshotError(
            f"snapshot {path!r} body is corrupt: {error}", path=path, reason="corrupt"
        ) from error


class SnapshotManager:
    """Periodic + signal-triggered snapshotting for a running service.

    Wraps :meth:`OptimizerService.save_caches` in a background loop so a
    ``kill -9`` loses at most ``interval`` seconds of warmed state, and
    installs a ``SIGUSR1`` trigger for operator-requested snapshots without
    a shutdown.  Failed saves are counted (``snapshot_failures``), logged
    through ``on_error``, and never interrupt serving.

    Concurrency invariants (checked by ``repro-lint``): :meth:`save` can be
    entered from three threads at once — the periodic loop, the SIGUSR1
    trigger's synchronous fallback, and :meth:`stop`'s final save — so both
    the write itself *and* the outcome counters are taken under ``_lock``;
    and the export copies every cache, memo and restriction table under its
    owner's lock or with one ``dict()`` call before encoding it, which is
    what keeps a snapshot taken mid-traffic from dying with "OrderedDict
    mutated during iteration" (a bug that once killed the loop).

    Usage::

        manager = SnapshotManager(service, "warm.snap", interval=30.0)
        manager.install_signal_handler()      # SIGUSR1 -> snapshot now
        manager.start()                       # periodic loop
        ...
        manager.stop()                        # final snapshot + join
    """

    def __init__(
        self, service, path, interval=None, faults=None, on_error=None, event_log=None
    ):
        if interval is not None and interval <= 0:
            raise ValueError(f"snapshot interval must be > 0 or None, got {interval!r}")
        self.service = service
        self.path = os.fspath(path)
        self.interval = interval
        self.faults = faults
        self.on_error = on_error
        self.event_log = event_log
        self.snapshots_written = 0  # guarded-by: _lock
        self.snapshot_failures = 0  # guarded-by: _lock
        self.last_error = None  # guarded-by: _lock
        self._wake = threading.Event()
        self._stopped = threading.Event()
        self._thread = None
        self._lock = threading.Lock()
        self._previous_handler = None

    # ------------------------------------------------------------------ #
    # saving
    # ------------------------------------------------------------------ #
    def save(self):
        """Take one snapshot now; returns sessions saved, or None on failure.

        The outcome counters are updated under the same ``_lock`` that
        serialises writers: they used to be bumped outside it, so two
        concurrent saves (loop + signal) could lose an increment and
        ``stats()`` could report totals that never coexisted.
        """
        try:
            with self._lock:  # one writer at a time (loop + signal + stop)
                saved = self.service.save_caches(self.path, faults=self.faults)
                self.snapshots_written += 1
            log_event(self.event_log, "snapshot.saved", path=self.path, sessions=saved)
            return saved
        except SnapshotError as error:
            with self._lock:
                self.snapshot_failures += 1
                self.last_error = str(error)
            log_event(
                self.event_log, "snapshot.failed", path=self.path, error=str(error)
            )
            if self.on_error is not None:
                self.on_error(error)
            return None

    def trigger(self):
        """Request an immediate snapshot from the background loop.

        Falls back to a synchronous :meth:`save` when the loop is not
        running (no ``interval``), so SIGUSR1 works either way.
        """
        if self._thread is not None and self._thread.is_alive():
            self._wake.set()
        else:
            self.save()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self):
        """Start the periodic loop (no-op without an ``interval``)."""
        if self.interval is None or self._thread is not None:
            return self
        self._thread = threading.Thread(  # released-by: stop
            target=self._loop, name="svc-snapshots", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self):
        while not self._stopped.is_set():
            self._wake.wait(timeout=self.interval)
            if self._stopped.is_set():
                return
            self._wake.clear()
            self.save()

    def stop(self, final_save=True):
        """Stop the loop; by default take one last (drain-time) snapshot."""
        self._stopped.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if final_save:
            self.save()

    # ------------------------------------------------------------------ #
    # signals
    # ------------------------------------------------------------------ #
    def install_signal_handler(self, signum=None):
        """Install the SIGUSR1 trigger (main thread only; returns ``self``).

        The previous handler is remembered and re-installed by
        :meth:`restore_signal_handler`.  On platforms without ``SIGUSR1``
        (or off the main thread) this is a no-op.
        """
        signum = signum if signum is not None else getattr(signal, "SIGUSR1", None)
        if signum is None:
            return self
        try:
            self._previous_handler = (signum, signal.signal(signum, self._on_signal))
        except ValueError:  # not the main thread
            self._previous_handler = None
        return self

    def _on_signal(self, signum, frame):
        self.trigger()

    def restore_signal_handler(self):
        if self._previous_handler is not None:
            signum, handler = self._previous_handler
            signal.signal(signum, handler)
            self._previous_handler = None

    def stats(self):
        with self._lock:
            return {
                "snapshots_written": self.snapshots_written,
                "snapshot_failures": self.snapshot_failures,
                "last_error": self.last_error,
            }


__all__ = ["SNAPSHOT_VERSION", "SnapshotManager", "read_snapshot", "write_snapshot"]
