"""Deterministic fault injection for the serving stack.

A :class:`FaultInjector` is threaded through the failure-prone seams of the
service — the socket server's read and write paths, shard request execution,
and snapshot IO — and decides, per *site*, whether an operation should fail.
Decisions are deterministic and seedable: each rule draws from its own
``random.Random`` stream keyed by ``(seed, site)``, so a rule's k-th
opportunity always makes the same decision regardless of what other sites
are doing or how threads interleave.  That is what lets the chaos suite
assert exact differential properties ("plan digests identical with and
without injected faults") instead of merely hoping the run was unlucky
enough.

Two failure flavours:

* ``crash=False`` (default) raises :class:`~repro.errors.InjectedFault`, an
  ordinary :class:`Exception` — per-request error handling absorbs it (a
  typed ``error`` response, a dropped connection, a failed snapshot write).
* ``crash=True`` raises :class:`~repro.errors.InjectedCrash`, a
  :class:`BaseException` that sails through ``except Exception`` handlers —
  this is how the suite kills a shard runner thread mid-request to exercise
  the supervisor.

Sites are plain strings; the ones wired up today:

========================  ====================================================
``server.read``           per request line read by the socket server
``server.write``          per response record written by the socket server
``shard.execute``         per request executed on a shard runner
``snapshot.write``        per snapshot written (before the atomic rename)
``snapshot.read``         per snapshot read
========================  ====================================================

Usage::

    faults = FaultInjector(seed=7).rule("server.write", probability=0.2, times=3)
    server = OptimizerServer(service, fault_injector=faults)
    ...
    faults.counters  # {"server.write": 2}

or, from the CLI (``repro.cli serve --fault-spec``)::

    faults = FaultInjector.from_spec("server.write:0.2:3,shard.execute:0.1", seed=7)
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field

from repro.errors import InjectedCrash, InjectedFault


@dataclass
class FaultRule:
    """One site's failure schedule.

    Parameters
    ----------
    site:
        The injection site the rule applies to.
    probability:
        Chance in ``[0, 1]`` that an opportunity fires (1.0 = always).
    times:
        Maximum number of injections (``None`` = unlimited).
    after:
        Number of initial opportunities to let through unharmed — lets a
        test warm a path up before breaking it.
    crash:
        Raise :class:`~repro.errors.InjectedCrash` (a ``BaseException``)
        instead of :class:`~repro.errors.InjectedFault`.
    """

    site: str
    probability: float = 1.0
    times: int | None = None
    after: int = 0
    crash: bool = False
    seen: int = 0
    injected: int = 0
    rng: random.Random = field(default=None, repr=False)

    def decide(self):
        """Advance one opportunity; return True when the fault should fire."""
        self.seen += 1
        if self.seen <= self.after:
            return False
        if self.times is not None and self.injected >= self.times:
            return False
        if self.probability < 1.0 and self.rng.random() >= self.probability:
            return False
        self.injected += 1
        return True


class FaultInjector:
    """Seedable, thread-safe registry of per-site fault rules.

    An injector with no rules is inert (every ``maybe_fail`` is a cheap
    dict miss), so production code can unconditionally thread one through.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._rules = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def rule(self, site, probability=1.0, times=None, after=0, crash=False):
        """Register (or replace) the rule for ``site``; returns ``self``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability!r}")
        with self._lock:
            self._rules[site] = FaultRule(
                site=site,
                probability=probability,
                times=times,
                after=after,
                crash=crash,
                rng=random.Random(f"{self.seed}:{site}"),
            )
        return self

    @classmethod
    def from_spec(cls, spec, seed=0):
        """Parse a CLI fault spec: ``site:probability[:times],site2:...``.

        ``times`` omitted means unlimited.  A site suffixed with ``!``
        (e.g. ``shard.execute!:1:1``) injects a crash instead of a fault.
        """
        injector = cls(seed=seed)
        for part in filter(None, (chunk.strip() for chunk in spec.split(","))):
            fields = part.split(":")
            if not 1 <= len(fields) <= 3:
                raise ValueError(f"bad fault spec entry {part!r} (site:prob[:times])")
            site = fields[0]
            crash = site.endswith("!")
            if crash:
                site = site[:-1]
            probability = float(fields[1]) if len(fields) > 1 else 1.0
            times = int(fields[2]) if len(fields) > 2 else None
            injector.rule(site, probability=probability, times=times, crash=crash)
        return injector

    def maybe_fail(self, site, detail=None):
        """Raise the site's configured failure when its rule fires."""
        with self._lock:
            rule = self._rules.get(site)
            if rule is None or not rule.decide():
                return
            crash = rule.crash
        message = f"injected fault at {site}" + (f" ({detail})" if detail else "")
        if crash:
            raise InjectedCrash(message, site=site)
        raise InjectedFault(message, site=site)

    @property
    def counters(self):
        """``{site: injections so far}`` for every registered rule."""
        with self._lock:
            return {site: rule.injected for site, rule in self._rules.items()}

    @property
    def opportunities(self):
        """``{site: opportunities seen}`` for every registered rule."""
        with self._lock:
            return {site: rule.seen for site, rule in self._rules.items()}

    def total_injected(self):
        return sum(self.counters.values())

    def __bool__(self):
        with self._lock:
            return bool(self._rules)


def maybe_fail(injector, site, detail=None):
    """``injector.maybe_fail`` tolerating ``injector=None`` (the common case)."""
    if injector is not None:
        injector.maybe_fail(site, detail=detail)


__all__ = ["FaultInjector", "FaultRule", "maybe_fail"]
