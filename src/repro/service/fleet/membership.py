"""Fleet membership: backend descriptors and the consistent-hash ring.

The ring maps a request's structural constraint digest
(:func:`~repro.chase.implication.constraints_digest`) to an ordered
*preference list* of backends.  Consistent hashing — each backend owns many
virtual points on a ring, a key routes to the first point at or after its
own — keeps placement stable under membership changes: adding or removing
one replica only moves the keys that replica's points cover, so the rest of
the fleet keeps its warm sessions.

The preference list (every distinct backend in ring-walk order) doubles as
the re-route order: when the primary answers ``overloaded`` or its
transport fails, the router tries the next backend on the list instead of
shedding the request.  Because the walk order is a pure function of the
digest, retries of the same constraint set always probe replicas in the
same order — the second-choice backend accumulates that catalog's spillover
traffic (and its warm session) instead of spraying it fleet-wide.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass


def parse_backend(spec):
    """Parse a ``host:port`` backend spec (``:port`` defaults the host).

    Raises ``ValueError`` on a missing or non-numeric port — backends are
    operator-supplied CLI flags, so the error names the offending spec.
    """
    host, separator, port = spec.rpartition(":")
    if not separator or not port.isdigit():
        raise ValueError(f"backend spec {spec!r} is not host:port")
    return host or "127.0.0.1", int(port)


@dataclass
class Backend:
    """One backend ``serve`` process as the router sees it.

    ``healthy`` is the router's optimistic health bit: it starts True, flips
    False on a transport failure and back on any successful request — the
    readiness probe and the ``backends_healthy`` gauge read it.  The
    mutable counters are guarded by the owning router's stats lock.
    """

    host: str
    port: int
    healthy: bool = True
    routed: int = 0
    rerouted_away: int = 0
    failures: int = 0

    @property
    def name(self):
        return f"{self.host}:{self.port}"


class HashRing:
    """Consistent-hash ring over backend names.

    Parameters
    ----------
    names:
        The backend names (``host:port`` strings) on the ring.
    replicas:
        Virtual points per backend.  More points smooth the key
        distribution (64 keeps the max/min ownership ratio within a few
        percent for small fleets) at O(names * replicas) memory.
    """

    def __init__(self, names, replicas=64):
        names = list(names)
        if not names:
            raise ValueError("a hash ring needs at least one backend")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")
        self.replicas = replicas
        self._names = names
        self._points = []
        for name in names:
            for index in range(replicas):
                self._points.append((self._point(f"{name}#{index}"), name))
        self._points.sort()
        self._keys = [point for point, _name in self._points]
        self._lock = threading.Lock()
        self._preference_cache = {}  # guarded-by: _lock

    @staticmethod
    def _point(text):
        return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)

    def preference(self, key):
        """Every distinct backend in ring-walk order from ``key``'s point.

        ``key`` is a constraint digest (hex); its point reuses the digest's
        own leading bits, so routing is a pure function of the structural
        constraint identity.  The walk order is memoised per key — the hot
        path looks the same digest up on every request.
        """
        with self._lock:
            cached = self._preference_cache.get(key)
            if cached is not None:
                return list(cached)
        start = bisect.bisect_left(self._keys, int(key[:16], 16) if key else 0)
        order = []
        seen = set()
        for offset in range(len(self._points)):
            _point, name = self._points[(start + offset) % len(self._points)]
            if name not in seen:
                seen.add(name)
                order.append(name)
                if len(order) == len(self._names):
                    break
        with self._lock:
            # Bound the memo: distinct catalogs are few in practice, but a
            # hostile key stream must not grow router memory without bound.
            if len(self._preference_cache) >= 4096:
                self._preference_cache.clear()
            self._preference_cache[key] = tuple(order)
        return order

    def route(self, key):
        """The primary backend for ``key`` (first entry of the preference)."""
        return self.preference(key)[0]

    def __len__(self):
        return len(self._names)

    @property
    def names(self):
        return list(self._names)


__all__ = ["Backend", "HashRing", "parse_backend"]
