"""Reproduce the cause of the service stall that keeps the service workloads out.

The wave scheduler's dispatcher (``service/scheduler.py``) collects a batch
with ``queue.SimpleQueue.get(timeout=remaining)``, sub-millisecond timeouts
inside its 1 ms batching window.  In CPython 3.11 that call can block
forever: when the queue is empty but its internal lock is free (a ``put``
released the lock and the next ``get`` took the item without it), ``get``
takes the lock, recomputes its timeout, and if the deadline has passed by
then -- the thread was paused in between -- it waits on the lock with a
negative timeout, which means no timeout.  The dispatcher then sits on a
batch it never dispatches, while the shard runners wait for its results.

A child process drives one ``SimpleQueue`` through exactly that sequence in a
loop (``put``; ``get``; ``get(timeout=2e-6)`` on the emptied queue), while
this process pauses it with ``SIGSTOP``/``SIGCONT`` at random moments, as a
busy host does when it takes a vCPU away.  A ``get`` that has not returned
after 2 s has blocked past its deadline: the check prints the child's
stacks and exits 1.  It exits 0 when no ``get`` overran within ``--seconds``::

    python3 perfbench/stall_check.py [--seconds 60]
"""

from __future__ import annotations

import argparse
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time


def child():
    import faulthandler

    jobs = queue.SimpleQueue()
    jobs.put(None)
    jobs.get()
    last = [time.monotonic()]

    def watch():
        while True:
            time.sleep(0.5)
            if time.monotonic() - last[0] > 2.0:
                print("stall: SimpleQueue.get(timeout=2e-06) blocked for over 2 s", flush=True)
                faulthandler.dump_traceback(all_threads=True)
                os._exit(3)

    threading.Thread(target=watch, daemon=True).start()
    while True:
        jobs.put(None)  # releases the lock the last get left taken
        jobs.get()  # takes the item without the lock: empty queue, free lock
        try:
            jobs.get(timeout=2e-6)
        except queue.Empty:
            pass
        last[0] = time.monotonic()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child"])
    rng = random.Random(0)
    deadline = time.monotonic() + args.seconds
    pauses = 0
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            time.sleep(rng.uniform(0.001, 0.003))
            proc.send_signal(signal.SIGSTOP)
            time.sleep(0.0005)
            proc.send_signal(signal.SIGCONT)
            pauses += 1
    finally:
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code == 3:
        print(f"stall_check: SimpleQueue.get blocked past its deadline after {pauses} pauses")
        return 1
    print(f"stall_check: no stall in {args.seconds:.0f} s ({pauses} pauses)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
