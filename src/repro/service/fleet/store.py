"""The shared snapshot store: per-session files keyed by constraint digest.

Single-file snapshots warm-restart one process.  A fleet needs the same
warmth *shared*: any backend (or a brand-new replica scaling up) should
serve whatever the fleet has already learned.  The store is a directory —
local disk for one host, a network mount for many — laid out by structural
constraint digest::

    <root>/<digest[:2]>/<digest>.snap

Each file is an ordinary snapshot (:func:`~repro.service.snapshots.
write_snapshot`: checked header, atomic temp-file + fsync + rename) holding
one session document, so concurrent savers on different sessions never
conflict and two backends racing on the *same* digest just last-write-win
a consistent file.  Reading is lazy: a service built with the store loads
``path_for(digest)`` when a request first creates that digest's session,
through :meth:`~repro.service.service.OptimizerService.recover_caches`.
A stale session is skipped by the merge's digest check, an unreadable file
costs a counted recovery and a cold start for that one catalog, and a
missing file is a plain cold start.  The directory has the trust level of
a ``--snapshot`` file: the operator owns it, and no socket writes into it.
"""

from __future__ import annotations

import os

from repro.errors import SnapshotError
from repro.service.snapshots import write_snapshot


class SnapshotStore:
    """Directory of per-session snapshots shared by a fleet.

    The digest-keyed layout is what makes sharing safe: a file's *name* is
    the structural identity of the constraint set inside it, so savers on
    different catalogs write different files, and a service that meets a
    new catalog knows which one file to read without listing the store.
    """

    def __init__(self, root):
        self.root = os.fspath(root)

    def path_for(self, digest):
        """The session file for a constraint digest (two-level fan-out)."""
        return os.path.join(self.root, digest[:2], f"{digest}.snap")

    def save(self, documents, faults=None):
        """Write each session document to its digest-keyed file; returns count.

        ``documents`` is what :meth:`OptimizerService.export_sessions`
        returns; each names its file by its ``constraints_digest``.  Each
        write is individually atomic; a failure raises
        :class:`~repro.errors.SnapshotError` with earlier files already
        safely in place (the periodic manager counts the failed save and
        retries next interval).
        """
        for document in documents:
            path = self.path_for(document["constraints_digest"])
            try:
                os.makedirs(os.path.dirname(path), exist_ok=True)
            except OSError as error:
                raise SnapshotError(
                    f"cannot create store directory for {path!r}: {error}",
                    path=path,
                    reason="io",
                ) from error
            write_snapshot(path, [document], faults=faults)
        return len(documents)


class StoreSaver:
    """Adapter giving :class:`~repro.service.snapshots.SnapshotManager` a
    store-backed save target.

    The manager's loop calls ``save_caches(path, faults)`` on whatever it
    wraps; this facade ignores the single-file path and fans the service's
    sessions out into the store instead — periodic + SIGUSR1 triggers,
    failure counting and drain-time saves all come along for free.  Only
    sessions that changed since this process last loaded or saved their file
    are written (:meth:`~repro.service.service.OptimizerService.
    changed_sessions`), so a backend serving warm from the store rewrites
    nothing.  Returns the number of files written.
    """

    def __init__(self, service, store):
        self.service = service
        self.store = store

    def save_caches(self, path, faults=None):
        del path  # the store's layout, not the manager's path, names the files
        if faults is None:
            faults = getattr(self.service, "fault_injector", None)
        changed = self.service.changed_sessions()
        for session, misses, document in changed:
            self.store.save([document], faults=faults)
            session.stored_misses = misses
        return len(changed)


__all__ = ["SnapshotStore", "StoreSaver"]
