"""Closed-loop request loop, run watchdog, child processes and diagnostics.

Every workload is a closed loop: a caller sends its next request only after
one of its outstanding requests has returned.  The generator submits from
its own thread and waits on the first completed future; nothing is ever
resubmitted from a done-callback, and no work is triggered by a timer.
"""

from __future__ import annotations

import faulthandler
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(HERE, ".work")

#: A request still pending this long is a failed op and stops the run.
PENDING_LIMIT_S = 60.0
#: The whole run is stopped (stacks dumped, children killed) this long past
#: its measuring time (``--seconds``); set-up and checks fit well inside it.
RUN_MARGIN_S = 120.0


class Stalled(Exception):
    """Raised when a request stays pending past :data:`PENDING_LIMIT_S`."""

    def __init__(self, pending):
        super().__init__(f"{pending} request(s) pending for over {PENDING_LIMIT_S:.0f} s")
        self.pending = pending


class Children:
    """The processes this run started; all are stopped before it exits."""

    def __init__(self):
        self._procs = []
        self._lock = threading.Lock()

    def spawn(self, argv, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, **kwargs)
        with self._lock:
            self._procs.append(proc)
        return proc

    def stop(self, proc, timeout=60.0):
        """SIGTERM ``proc`` and wait for it to exit (SIGKILL past ``timeout``)."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._release(proc)
        return proc.returncode

    def kill_all(self):
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self._release(proc)

    def _release(self, proc):
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()
        with self._lock:
            if proc in self._procs:
                self._procs.remove(proc)


def abort(children, message, code=3):
    """Dump every thread's stack, kill the children and exit without hanging."""
    print(f"perfbench: {message}; dumping thread stacks", file=sys.stderr, flush=True)
    faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
    children.kill_all()
    sys.stdout.flush()
    os._exit(code)


class Watchdog:
    """Bounds the whole run: past ``limit`` seconds, :func:`abort`."""

    def __init__(self, children, limit):
        self._done = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, args=(children, limit), name="perfbench-watchdog", daemon=True
        )
        self._thread.start()

    def _watch(self, children, limit):
        if not self._done.wait(limit):
            abort(children, f"run exceeded {limit:.0f} s")

    def stop(self):
        self._done.set()
        self._thread.join()


def closed_loop(submit, requests, inflight, on_response, deadline=None):
    """Keep ``inflight`` requests outstanding until ``requests`` ends or ``deadline``.

    ``submit(request)`` returns a :class:`~concurrent.futures.Future`;
    ``on_response(request, future, submitted, completed)`` runs on this
    thread for each completed one (perf-counter stamps taken here).  No
    request is submitted after ``deadline`` (a ``time.perf_counter()``
    value); those in flight are still awaited.
    Returns ``(started, last_completed)`` perf-counter stamps.
    Raises :class:`Stalled` when no request completes for
    :data:`PENDING_LIMIT_S` (the caller counts the pending ones as failed).
    """
    requests = iter(requests)
    pending = {}
    started = last = time.perf_counter()

    def refill():
        while len(pending) < inflight and (deadline is None or time.perf_counter() < deadline):
            request = next(requests, None)
            if request is None:
                return
            submitted = time.perf_counter()
            pending[submit(request)] = (request, submitted)

    refill()
    while pending:
        done, _ = wait(pending, timeout=PENDING_LIMIT_S, return_when=FIRST_COMPLETED)
        last = time.perf_counter()
        if not done:
            raise Stalled(len(pending))
        for future in done:
            request, submitted = pending.pop(future)
            on_response(request, future, submitted, last)
        refill()
    return started, last


def failed_future(error):
    """A future already resolved with ``error`` (a submission refused up front)."""
    future = Future()
    future.set_exception(error)
    return future


# ---------------------------------------------------------------------- #
# summaries
# ---------------------------------------------------------------------- #
def percentile_ms(latencies_s, pct):
    """The ``pct``-th percentile (inclusive method) of ``latencies_s``, in ms."""
    if len(latencies_s) < 2:
        return latencies_s[0] * 1000.0
    cuts = statistics.quantiles(latencies_s, n=100, method="inclusive")
    return cuts[pct - 1] * 1000.0


def peak_rss_mb(pid=None):
    """Peak resident set size (VmHWM) of ``pid`` (default: this process), in MB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# ---------------------------------------------------------------------- #
# noise diagnostics (recorded, never used to rescale a metric)
# ---------------------------------------------------------------------- #
def calibration_ms(rounds=3):
    """Median time of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def steal_ticks():
    """Cumulative CPU steal ticks from ``/proc/stat`` (``None`` when unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def git_sha():
    """The checkout's commit, read from ``.git`` in the repository root if there is one."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


class Diagnostics:
    """Host and interpreter facts around one run, for telling drift from change."""

    def __init__(self):
        self.record = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
            "loadavg_before": os.getloadavg(),
            "calibration_ms_before": calibration_ms(),
        }
        self._steal = steal_ticks()
        self._started = time.perf_counter()

    def finish(self):
        steal = steal_ticks()
        self.record.update(
            loadavg_after=os.getloadavg(),
            calibration_ms_after=calibration_ms(),
            steal_ticks=None if steal is None or self._steal is None else steal - self._steal,
            wall_s=time.perf_counter() - self._started,
        )
        return self.record
