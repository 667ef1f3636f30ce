"""The closed-loop workloads.

``BENCHMARK.json`` declares the two that call the engine in this process:

* ``cold-optimize`` -- one caller; every request is a fresh
  ``CBOptimizer(catalog).optimize(query, strategy)`` with no registry and no
  memo, over 41 EC1-EC3 x {fb, oqf, ocs} pairs in seeded passes.  The engine
  does all the work: the paper's own measurement.
* ``warm-optimize`` -- one caller over ``default_service_mix``, each catalog
  with the warm chase-cache registry and containment memo a service session
  would keep, after one untimed warm-up pass.  Nearly every chase is a cache
  hit, so the warm path (cache and memo lookups, ``restrict_to``) dominates.

Two more drive the optimizer service and are runnable but not declared,
because the service's wave scheduler can stall (see README.md):

* ``warm-service`` -- one generator keeps 2 requests in flight on an
  in-process ``OptimizerService()`` built with its defaults, over
  ``default_service_mix`` after one untimed warm-up pass.
* ``churn-socket`` -- one ``OptimizerClient`` pipelines 2 requests to a
  ``repro.cli serve --max-sessions 8`` subprocess booted from a snapshot,
  with Zipf(s=1) draws over 12 catalogs, so session evictions and cache
  misses sit beside hits on the JSONL socket path.

Each workload fills a :class:`Phase` per measured phase; ``run.py`` turns
phases into the printed metrics.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from itertools import islice

from repro.chase.implication import ChaseCacheRegistry
from repro.chase.optimizer import CBOptimizer
from repro.cq.memo import ContainmentMemo
from repro.errors import ServiceOverloaded
from repro.experiments.harness import default_service_mix
from repro.service import OptimizerClient, OptimizerService, Tracer
from repro.service.protocol import WORKLOAD_BUILDERS, plan_digest

from configs import (
    CHURN_CATALOGS,
    COLD_PAIRS,
    build_catalogs,
    catalog_key,
    mix_requests,
    request_key,
    seeded_rng,
    shuffled_passes,
    zipf_blocks,
)
from loop import HERE, closed_loop, failed_future, peak_rss_mb

#: Set-ups timed per run (per part process for the in-process workloads);
#: ``setup_s`` is their median.
SETUP_REPEATS = {"cold-optimize": 2, "warm-optimize": 2, "warm-service": 3, "churn-socket": 3}
#: Requests per phase of a traced run (a fixed list, so counts repeat).
TRACED_REQUESTS = {
    "cold-optimize": len(COLD_PAIRS),
    "warm-optimize": 140,
    "warm-service": 140,
    "churn-socket": 200,
}
#: Per-request optimizer budget; far above the slowest request (under 0.5 s).
REQUEST_BUDGET_S = 60.0
INFLIGHT = 2


class Phase:
    """What one measured phase observed, request by request."""

    def __init__(self):
        self.setup_s = []
        self.started = self.last = 0.0
        self.requests = []  # dicts: id, key, submitted, completed, plans, ...
        self.peak_rss_mb = 0.0
        self.stats_before = self.stats_after = None
        self.server_spans = None  # path of the measured server's span dump
        self.snapshot_bytes = 0

    def add(self, rid, key, submitted, completed, plans, **extra):
        self.requests.append(
            dict(id=rid, key=key, submitted=submitted, completed=completed, plans=plans, **extra)
        )


def numbered(items, prefix="r"):
    """``(request id, request)`` pairs: ``r1``, ``r2``, ... (warm-up ids use ``w``)."""
    for number, request in enumerate(items, start=1):
        yield f"{prefix}{number}", request


# ---------------------------------------------------------------------- #
# cold-optimize and warm-optimize: the engine called in this process
# ---------------------------------------------------------------------- #
class InProcess:
    """One caller calling ``CBOptimizer.optimize`` directly, in whole seeded passes.

    The engine runs serially on the caller's thread, so each request's
    thread CPU time is all the CPU the request used, and none of the time the
    host took the vCPU away.  Set-up is timed in fresh interpreters
    (``probe.py``) and then repeated here, untimed.
    """

    name = None

    def __init__(self, seed, tally, children, work_dir):
        self.seed = seed
        self.tally = tally
        self.children = children
        self.work_dir = work_dir
        self.catalogs = {}

    def pairs(self):
        raise NotImplementedError

    def prepare(self):
        """Set-up beyond the catalog builds (``probe.py`` runs it too)."""

    def optimizer(self, workload, params):
        raise NotImplementedError

    def setup(self, phase, traced):
        """Time the set-up in fresh interpreters, then do it here."""
        argv = [sys.executable, os.path.join(HERE, "probe.py"), self.name, str(self.seed)]
        argv += ["--trace"] if traced else []
        for _ in range(SETUP_REPEATS[self.name]):
            proc = self.children.spawn(argv, stdout=subprocess.PIPE)
            out, _ = proc.communicate(timeout=120)
            self.children.stop(proc)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
            phase.setup_s.append(json.loads(out)["setup_s"])
        self.catalogs = build_catalogs(self.pairs(), WORKLOAD_BUILDERS)
        self.prepare()

    def requests(self, count=None):
        items = shuffled_passes(self.pairs(), seeded_rng(self.seed, self.name))
        return numbered(items if count is None else islice(items, count))

    def run(self, phase, requests, deadline=None, recorder=None):
        """Run whole passes: a pass starts only if half of one would still fit.

        Every pair then has the same number of samples, so the seeded order
        never changes the mix a percentile is taken over, and a run measures
        the whole passes that come nearest to its time.
        """
        size = len(self.pairs())
        phase.started = pass_started = time.perf_counter()
        pass_seconds = 0.0
        for number, (rid, request) in enumerate(requests):
            if number % size == 0 and number:
                now = time.perf_counter()
                pass_seconds, pass_started = now - pass_started, now
                if deadline is not None and now + pass_seconds / 2 > deadline:
                    break
            outcome = self.call(rid, request, recorder)
            if outcome is not None:
                result, submitted, completed, cpu, counts = outcome
                phase.add(
                    rid, request_key(*request), submitted, completed, result.plan_count,
                    cpu=cpu, **counts,
                )
                phase.last = completed
        phase.peak_rss_mb = peak_rss_mb()

    def call(self, rid, request, recorder=None):
        """One checked request; ``(result, submitted, completed, cpu_s, counts)`` or ``None``."""
        workload, params, strategy = request
        built = self.catalogs[catalog_key(workload, params)]
        optimizer = self.optimizer(workload, params)
        memo = optimizer.containment_memo
        memo_before = memo.stats() if memo is not None else None
        scope = recorder.request(rid) if recorder is not None else nullcontext()
        submitted = time.perf_counter()
        cpu_started = time.thread_time()
        with scope:
            result = optimizer.optimize(built.query, strategy, timeout=REQUEST_BUDGET_S)
        cpu = time.thread_time() - cpu_started
        completed = time.perf_counter()
        ok = self.tally.check(
            request,
            "ok",
            plan_count=result.plan_count,
            plan_digests=plan_digest(result.plans),
            timed_out=result.timed_out,
        )
        if not ok:
            return None
        counts = {"cache_hits": result.cache_hits, "cache_misses": result.cache_misses}
        if memo_before is not None:
            memo_after = memo.stats()
            counts["memo_hits"] = memo_after["hits"] - memo_before["hits"]
            counts["memo_misses"] = memo_after["misses"] - memo_before["misses"]
        return result, submitted, completed, cpu, counts

    def dump_stacks(self):
        """Everything runs in this process, whose stacks ``abort`` dumps."""

    def close(self):
        """Nothing outlives the process here."""


class ColdOptimize(InProcess):
    """A fresh optimizer per request: no registry, no memo (the paper's measure)."""

    name = "cold-optimize"

    def pairs(self):
        return COLD_PAIRS

    def optimizer(self, workload, params):
        return CBOptimizer(self.catalogs[catalog_key(workload, params)].catalog)


class WarmOptimize(InProcess):
    """One warm chase-cache registry and containment memo per catalog, as a service session keeps.

    The requests are ``default_service_mix``; set-up ends with one pass over
    it, so every measured request finds its chase results cached.
    """

    name = "warm-optimize"

    def __init__(self, seed, tally, children, work_dir):
        super().__init__(seed, tally, children, work_dir)
        self.sessions = {}

    def pairs(self):
        return mix_requests(default_service_mix())

    def prepare(self):
        self.sessions = {
            catalog_key(workload, params): (ChaseCacheRegistry(), ContainmentMemo())
            for workload, params, _ in self.pairs()
        }
        order = list(self.pairs())
        seeded_rng(self.seed, "warm-up").shuffle(order)
        for rid, request in numbered(order, prefix="w"):
            self.call(rid, request)

    def optimizer(self, workload, params):
        key = catalog_key(workload, params)
        registry, memo = self.sessions[key]
        return CBOptimizer(
            self.catalogs[key].catalog, cache_registry=registry, containment_memo=memo
        )


# ---------------------------------------------------------------------- #
# warm-service
# ---------------------------------------------------------------------- #
class WarmService:
    name = "warm-service"

    def __init__(self, seed, tally, children, work_dir):
        self.seed = seed
        self.tally = tally
        self.children = children
        self.work_dir = work_dir
        self.service = None
        self.mix = {}

    def setup(self, phase, traced):
        """Start the service and run the warm-up pass, several times; keep the last."""
        mix = default_service_mix()
        self.mix = {
            request_key(*request): (request, built)
            for request, (built, _) in zip(mix_requests(mix), mix)
        }
        warmup = [request for request, _ in self.mix.values()]
        for _ in range(SETUP_REPEATS[self.name]):
            if self.service is not None:
                self.service.shutdown()
            started = time.perf_counter()
            self.service = OptimizerService(tracer=Tracer() if traced else None)
            order = list(warmup)
            seeded_rng(self.seed, "warm-up").shuffle(order)
            closed_loop(
                self._submit,
                numbered(order, prefix="w"),
                INFLIGHT,
                lambda request, future, submitted, completed: self._check(request, future),
            )
            phase.setup_s.append(time.perf_counter() - started)

    def requests(self, count=None):
        items = shuffled_passes(
            [request for request, _ in self.mix.values()], seeded_rng(self.seed, self.name)
        )
        return numbered(items if count is None else islice(items, count))

    def _submit(self, numbered_request):
        rid, request = numbered_request
        built = self.mix[request_key(*request)][1]
        try:
            return self.service.submit(
                built.query, strategy=request[2], catalog=built.catalog, request_id=rid
            )
        except ServiceOverloaded as error:
            return failed_future(error)

    def _check(self, numbered_request, future):
        _, request = numbered_request
        error = future.exception()
        if error is not None:
            self.tally.check(request, "overloaded" if isinstance(error, ServiceOverloaded) else "error")
            return None
        response = future.result()
        if not response.ok:
            self.tally.check(request, "error")
            return None
        result = response.result
        ok = self.tally.check(
            request,
            "ok",
            plan_count=result.plan_count,
            plan_digests=plan_digest(result.plans),
            timed_out=result.timed_out,
        )
        return response if ok else None

    def run(self, phase, requests, deadline=None, recorder=None):
        phase.stats_before = self.service.stats().as_dict()

        def on_response(numbered_request, future, submitted, completed):
            response = self._check(numbered_request, future)
            if response is None:
                return
            rid, request = numbered_request
            stages = response.trace.stage_seconds() if response.trace is not None else {}
            phase.add(
                rid,
                request_key(*request),
                submitted,
                completed,
                response.result.plan_count,
                cache_hits=response.metrics.cache_hits,
                cache_misses=response.metrics.cache_misses,
                memo_hits=response.metrics.memo_hits,
                memo_misses=response.metrics.memo_misses,
                service_latency_s=response.metrics.latency,
                admission_s=stages.get("admission_wait", 0.0),
                queue_wait_s=stages.get("queue_wait", 0.0),
            )

        phase.started, phase.last = closed_loop(
            self._submit, requests, INFLIGHT, on_response, deadline=deadline
        )
        phase.stats_after = self.service.stats().as_dict()
        phase.peak_rss_mb = peak_rss_mb()

    def dump_stacks(self):
        """Everything runs in this process, whose stacks ``abort`` dumps."""

    def close(self):
        if self.service is not None:
            self.service.shutdown()
            self.service = None


# ---------------------------------------------------------------------- #
# churn-socket
# ---------------------------------------------------------------------- #
class ChurnSocket:
    name = "churn-socket"

    def __init__(self, seed, tally, children, work_dir):
        self.seed = seed
        self.tally = tally
        self.children = children
        self.work_dir = work_dir
        self.server = None
        self.client = None
        self.spans_path = None
        self.snapshot = os.path.join(work_dir, "warm.snap")
        self.server_err = os.path.join(work_dir, "server.err")

    # -- server lifecycle ------------------------------------------------
    def _spawn(self, extra, spans_path=None):
        argv = ["serve", "--port", "0"] + extra
        if spans_path is None:
            argv = ["-m", "repro.cli"] + argv
        else:
            argv = [os.path.join(HERE, "launcher.py"), spans_path] + argv + ["--trace"]
        # With -X faulthandler a SIGABRT makes the server write every thread's
        # stack to its stderr (see dump_stacks); no core file is kept.
        stderr = open(self.server_err, "ab")
        try:
            proc = self.children.spawn(
                [sys.executable, "-X", "faulthandler"] + argv, stdout=subprocess.PIPE, stderr=stderr
            )
        finally:
            stderr.close()
        resource.prlimit(proc.pid, resource.RLIMIT_CORE, (0, 0))
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited before serving (code {proc.wait()})")
        port = json.loads(line)["serving"]["port"]
        return proc, port

    def _stop_server(self):
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            code = self.children.stop(self.server)
            self.server = None
            if code != 0:
                raise RuntimeError(f"server exited {code}")

    def setup(self, phase, traced):
        """Warm all 12 catalogs in an earlier life (once), then time boots from its snapshot."""
        if not os.path.exists(self.snapshot):
            self.server, port = self._spawn(["--snapshot", self.snapshot])
            self.client = OptimizerClient(port=port)
            closed_loop(
                self._submit,
                numbered(CHURN_CATALOGS, prefix="w"),
                INFLIGHT,
                lambda request, future, submitted, completed: self._check(request, future),
            )
            self._stop_server()
        phase.snapshot_bytes = os.path.getsize(self.snapshot)
        for boot in range(SETUP_REPEATS[self.name]):
            self._stop_server()
            copy = os.path.join(self.work_dir, f"boot{boot}.snap")
            shutil.copyfile(self.snapshot, copy)
            spans_path = copy + ".spans" if traced else None
            started = time.perf_counter()
            self.server, port = self._spawn(
                ["--max-sessions", "8", "--snapshot", copy], spans_path=spans_path
            )
            self.client = OptimizerClient(port=port)
            if not self.client.ping(timeout=60):
                raise RuntimeError("server did not answer ping")
            phase.setup_s.append(time.perf_counter() - started)
            self.spans_path = spans_path

    def requests(self, count=None):
        items = zipf_blocks(CHURN_CATALOGS, seeded_rng(self.seed, self.name))
        return numbered(items if count is None else islice(items, count))

    def _submit(self, numbered_request):
        rid, (workload, params, strategy) = numbered_request
        return self.client.submit(
            {"id": rid, "workload": workload, "params": params, "strategy": strategy}
        )

    def _check(self, numbered_request, future):
        _, request = numbered_request
        error = future.exception()
        if error is not None:
            self.tally.check(request, "error")
            return None
        record = future.result()
        ok = self.tally.check(
            request,
            record.get("status"),
            plan_count=record.get("plan_count"),
            plan_digests=record.get("plan_digests"),
            timed_out=record.get("timed_out", False),
        )
        return record if ok else None

    def run(self, phase, requests, deadline=None, recorder=None):
        phase.stats_before = self.client.stats(timeout=60)

        def on_response(numbered_request, future, submitted, completed):
            record = self._check(numbered_request, future)
            if record is None:
                return
            rid, request = numbered_request
            stages = {
                span["stage"]: span["seconds"]
                for span in (record.get("trace") or {}).get("stages", [])
            }
            phase.add(
                rid,
                request_key(*request),
                submitted,
                completed,
                record["plan_count"],
                cache_hits=record["cache_hits"],
                cache_misses=record["cache_misses"],
                memo_hits=record["memo_hits"],
                memo_misses=record["memo_misses"],
                service_latency_s=record["latency_s"],
                admission_s=stages.get("admission_wait", 0.0),
                queue_wait_s=stages.get("queue_wait", 0.0),
            )

        phase.started, phase.last = closed_loop(
            self._submit, requests, INFLIGHT, on_response, deadline=deadline
        )
        phase.stats_after = self.client.stats(timeout=60)
        phase.peak_rss_mb = peak_rss_mb(self.server.pid)
        self._stop_server()
        phase.server_spans = self.spans_path

    def dump_stacks(self):
        """Have a stalled server dump its thread stacks, and copy them to stderr."""
        if self.server is None or self.server.poll() is not None:
            return
        self.server.send_signal(signal.SIGABRT)
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        with open(self.server_err, encoding="utf-8", errors="replace") as handle:
            tail = handle.read()[-20000:]
        print(f"perfbench: server stderr (pid {self.server.pid}):\n{tail}", file=sys.stderr, flush=True)

    def close(self):
        self._stop_server()


WORKLOADS = {cls.name: cls for cls in (ColdOptimize, WarmOptimize, WarmService, ChurnSocket)}
