"""Spans recorded around the program's public calls, for the traced run.

:func:`install` wraps each call listed in :data:`TARGETS` so that every call
records one span: layer name, start, end, self time, parent span, request id
and thread.  Spans stay in memory (:class:`SpanRecorder`) and are written out
when the run ends.  The program itself is not modified: wrappers replace the
attribute on the defining class, or on every loaded ``repro`` module that
imported the function by name.

Self time is a span's duration minus the time of its child spans on the same
thread.  A runner thread blocked in ``ScheduledPool.run_wave``/``map`` has no
child span on that thread, so the wait is the ``scheduler`` span's self time;
the wave work itself is recorded on the pool threads.

A span's request id is inherited from its parent on the same thread; a
thread's first span takes the id of the program's ambient request trace
(:func:`repro.trace.active_trace`, set on service runner and pool threads),
else the id the caller declared with :meth:`SpanRecorder.request`, else the
last id that thread served (the service resolves a request on its runner
thread right after the optimizer returns).
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

from repro.trace import active_trace


# ---------------------------------------------------------------------- #
# extractors: counts and request ids read from a wrapped call
# ---------------------------------------------------------------------- #
def _chase_counters(args, kwargs, result):
    return {"closure_queries": result.counters.closure_queries}, None


def _backchase_counts(args, kwargs, result):
    return {
        "subqueries_explored": result.subqueries_explored,
        "equivalence_checks": result.equivalence_checks,
    }, None


def _submit_id(args, kwargs, result):
    return None, kwargs.get("request_id")


def _restored(args, kwargs, result):
    return {"sessions_restored": result[0]}, None


def _decoded_id(args, kwargs, result):
    return None, result[0]


def _first_arg_id(args, kwargs, result):
    return None, args[0] if args else kwargs.get("request_id")


def _record_id(args, kwargs, result):
    record = args[1] if len(args) > 1 else kwargs.get("record")
    return None, record.get("id")


#: (module, attribute path, layer, extractor) for every wrapped public call.
#: An extractor reads ``(counts, request id)`` from a call and its result.
TARGETS = (
    ("repro.chase.chase", "chase", "chase", _chase_counters),
    ("repro.chase.implication", "ChaseCache.chase_result", "chase", None),
    ("repro.cq.memo", "ContainmentMemo.check", "containment", None),
    ("repro.cq.containment", "has_containment_mapping", "containment", None),
    ("repro.cq.query", "PCQuery.restrict_to", "restrict", None),
    ("repro.chase.backchase", "FullBackchase.run", "backchase", _backchase_counts),
    ("repro.chase.backchase", "ParallelBackchase.run", "backchase", _backchase_counts),
    ("repro.chase.stratify", "decompose_query", "stratify", None),
    ("repro.chase.stratify", "stratify_constraints", "stratify", None),
    ("repro.chase.stratify", "assemble_plan", "stratify", None),
    ("repro.chase.optimizer", "CBOptimizer.optimize", "optimizer", None),
    ("repro.service.service", "OptimizerService.submit", "service", _submit_id),
    ("repro.service.service", "OptimizerService.recover_caches", "snapshot", _restored),
    ("repro.service.scheduler", "ScheduledPool.run_wave", "scheduler", None),
    ("repro.service.scheduler", "ScheduledPool.map", "scheduler", None),
    ("repro.service.protocol", "decode_request", "protocol.decode", _decoded_id),
    ("repro.service.protocol", "encode_response", "protocol.encode", _first_arg_id),
    ("repro.service.protocol", "plan_digest", "protocol.digest", None),
    ("repro.service.client", "OptimizerClient.submit", "client", _record_id),
    ("repro.workloads.ec1", "build_ec1", "build", None),
    ("repro.workloads.ec2", "build_ec2", "build", None),
    ("repro.workloads.ec3", "build_ec3", "build", None),
    ("repro.schema.catalog", "Catalog.constraints", "build", None),
)

#: Modules imported before wrapping, so every ``from x import name`` binding
#: that exists in the program is in ``sys.modules`` when :func:`install` runs.
IMPORTS = ("repro", "repro.cli", "repro.service", "repro.experiments.harness")

# Span tuple fields.
SID, LAYER, START, END, SELF, PARENT, RID, THREAD, EXTRA = range(9)


class SpanRecorder:
    """In-memory span store; thread-safe through per-thread stacks."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._roots = {}  # request id -> first span id seen for it
        self.gc_pauses = []  # (start, end) of every collection
        self._gc_started = None

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
            rid, parent_id = parent[4], parent[0]
        else:
            rid = _ambient_request_id()
            if rid is None:
                rid = getattr(self._local, "request_id", None)
            if rid is None:
                rid = getattr(self._local, "last_request_id", None)
            parent_id = self._roots.get(rid)
        span_id = next(self._ids)
        if rid is not None:
            self._roots.setdefault(rid, span_id)
        # [id, layer, start, child seconds, request id, parent id]
        frame = [span_id, layer, time.perf_counter(), 0.0, rid, parent_id]
        stack.append(frame)
        return frame

    def end(self, frame, extra=None, request_id=None):
        finished = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        duration = finished - frame[2]
        if stack:
            stack[-1][3] += duration
        rid, parent_id = frame[4], frame[5]
        if request_id is not None and request_id != rid:
            # The call itself named its request (submit, decode): it is
            # that request's first span, whatever the thread did before.
            rid, parent_id = request_id, None
            self._roots.setdefault(rid, frame[0])
        if rid is not None:
            self._local.last_request_id = rid
        self.spans.append(
            (
                frame[0],
                frame[1],
                frame[2],
                finished,
                duration - frame[3],
                parent_id,
                rid,
                threading.get_ident(),
                extra,
            )
        )

    @contextmanager
    def request(self, request_id):
        """Declare the request this thread works for (workloads without a service)."""
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = None

    # ------------------------------------------------------------------ #
    # garbage collector pauses
    # ------------------------------------------------------------------ #
    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pauses.append((self._gc_started, time.perf_counter()))
            self._gc_started = None

    # ------------------------------------------------------------------ #
    # output
    # ------------------------------------------------------------------ #
    def dump(self, path):
        """Write every span as one JSON line, then the GC pauses as the last line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")
            handle.write(json.dumps({"gc_pauses": self.gc_pauses}) + "\n")


def load_spans(path):
    """Read a :meth:`SpanRecorder.dump` file back: ``(spans, gc_pauses)``."""
    spans = []
    gc_pauses = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if isinstance(record, dict):
                gc_pauses = [tuple(pause) for pause in record["gc_pauses"]]
            else:
                spans.append(tuple(record))
    return spans, gc_pauses


def _ambient_request_id():
    trace = active_trace()
    return None if trace is None else trace.request_id


def _wrap(recorder, layer, fn, extractor):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.begin(layer)
        extra = request_id = None
        try:
            result = fn(*args, **kwargs)
            if extractor is not None:
                extra, request_id = extractor(args, kwargs, result)
            return result
        finally:
            recorder.end(frame, extra, request_id)

    return wrapper


def install(recorder):
    """Wrap every call in :data:`TARGETS` and start timing GC pauses.

    A module-level function is replaced on every loaded ``repro`` module that
    holds it under its name, and inside ``protocol.WORKLOAD_BUILDERS``
    (the server builds a request's workload through that table).  Returns a
    function that puts every original back and stops the GC timing.
    """
    for name in IMPORTS:
        importlib.import_module(name)
    undo = []
    for module_name, path, layer, extractor in TARGETS:
        module = sys.modules[module_name]
        if "." in path:
            class_name, method_name = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method_name]
            setattr(owner, method_name, _wrap(recorder, layer, original, extractor))
            undo.append((owner, method_name, original))
            continue
        original = getattr(module, path)
        wrapped = _wrap(recorder, layer, original, extractor)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, path, None) is original
            ):
                setattr(loaded, path, wrapped)
                undo.append((loaded, path, original))
    builders = sys.modules["repro.service.protocol"].WORKLOAD_BUILDERS
    saved_builders = dict(builders)
    for name, (builder, accepted) in list(builders.items()):
        builders[name] = (getattr(sys.modules[builder.__module__], builder.__name__), accepted)
    gc.callbacks.append(recorder.on_gc)

    def uninstall():
        gc.callbacks.remove(recorder.on_gc)
        builders.update(saved_builders)
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall
