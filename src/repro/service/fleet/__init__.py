"""The optimizer fleet layer: router, membership ring, shared snapshot store.

One ``serve`` process scales a single host; the fleet layer scales the
*deployment*:

* :mod:`~repro.service.fleet.membership` — backend descriptors and the
  consistent-hash ring that maps each request's structural constraint
  digest to a preference order of backends (stable under membership
  changes: adding a replica only moves the keys it takes over).
* :mod:`~repro.service.fleet.router` — the front-end TCP process
  (``repro.cli route``) speaking the same JSONL protocol as ``serve``:
  requests are hashed to a backend, ``overloaded`` responses are
  *re-routed* to the next replica with capacity instead of shed, and
  transport failures fail over the same way.
* :mod:`~repro.service.fleet.store` — the shared snapshot store (one
  atomic per-session file keyed by constraint digest), the fleet's one path
  for warm state: every backend saves into it, and a backend that meets a
  catalog for the first time reads that catalog's file before serving it,
  so a replica serves warm hits it never computed.

Everything is keyed by the one structural identity —
:func:`~repro.chase.implication.constraints_digest` — that shard placement,
the ring and snapshot staleness already share: stored state is only valid
under the exact dependency set it was computed with.
"""

from repro.service.fleet.membership import Backend, HashRing, parse_backend
from repro.service.fleet.router import FleetRouter, RouterStats
from repro.service.fleet.store import SnapshotStore, StoreSaver

__all__ = [
    "Backend",
    "FleetRouter",
    "HashRing",
    "RouterStats",
    "SnapshotStore",
    "StoreSaver",
    "parse_backend",
]
