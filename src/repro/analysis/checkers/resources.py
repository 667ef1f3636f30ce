"""resource-lifecycle: sockets, threads, executors and files must be released.

The serving stack leaks quietly: a ``makefile()`` reader nobody closes, a
thread nobody joins, an executor nobody shuts down.  Each leak survives the
unit suite (the process exits) and kills a long-lived server.

Two ownership shapes are checked:

* **class-held resources** — ``self.attr = <factory>(...)`` must be
  released somewhere in the class (a ``self.attr.close()``-style call *or*
  a bound-method reference like ``self.attr.close``, which is how teardown
  tuples release), or carry a ``# released-by: <method>`` annotation.  The
  annotation is verified: the named method must exist on the class and
  perform the release (directly or one call hop away) — a stale annotation
  is itself a finding.
* **function-local resources** — a local bound to a factory call must be
  context-managed (``with factory() as x`` or a later ``with x:``) or
  released in a ``finally``, unless ownership escapes (returned, yielded,
  stored onto an object/container, or passed to another call).

Factories and their release verbs are project-specific on purpose: this is
not a general escape analysis, it is the checked version of the teardown
contract ``stop()``/``close()``/``shutdown()`` methods already follow.
"""

from __future__ import annotations

import ast

from repro.analysis.checker import Checker, class_nodes
from repro.analysis.source import call_name, is_self_attribute

#: factory terminal name -> (resource kind, accepted release verbs)
FACTORIES = {
    "socket": ("socket", ("close", "shutdown", "detach")),
    "create_connection": ("socket", ("close", "shutdown", "detach")),
    "makefile": ("file", ("close", "detach")),
    "open": ("file", ("close",)),
    "NamedTemporaryFile": ("file", ("close",)),
    "TemporaryFile": ("file", ("close",)),
    "Thread": ("thread", ("join",)),
    "Timer": ("thread", ("join", "cancel")),
    "ThreadPoolExecutor": ("executor", ("shutdown",)),
    "Popen": ("process", ("wait", "kill", "terminate", "communicate")),
}


def _factory_of(value):
    """(kind, release verbs) when ``value`` is a tracked factory call."""
    name = call_name(value)
    entry = FACTORIES.get(name) if name is not None else None
    if entry is None:
        return None, ()
    # ``open`` must be the builtin/Path method, not e.g. ``shelve.open`` —
    # accept bare names and one-attribute forms only.
    return entry


class ResourceLifecycleChecker(Checker):
    rule = "resource-lifecycle"
    description = (
        "sockets/threads/executors/files acquired by a class or function "
        "must be closed/joined/shut down (finally, context manager, or a "
        "verified `# released-by: <method>` teardown)"
    )
    scope = "project"

    def check_project(self, project):
        findings = []
        for module in project.modules:
            for classdef in module.classes():
                findings.extend(self._check_class(project, module, classdef))
            findings.extend(self._check_locals(project, module))
        return findings

    # ------------------------------------------------------------------ #
    # class-held resources
    # ------------------------------------------------------------------ #
    def _check_class(self, project, module, classdef):
        findings = []
        methods = project.methods_of(classdef)
        for node in class_nodes(classdef):
            if not isinstance(node, ast.Assign):
                continue
            kind, verbs = _factory_of(node.value)
            if kind is None:
                continue
            for target in node.targets:
                if not is_self_attribute(target):
                    continue
                attr = target.attr
                teardown = module.released_by(node)
                if teardown is not None:
                    findings.extend(
                        self._check_annotation(
                            project, module, classdef, methods, node, attr,
                            kind, verbs, teardown,
                        )
                    )
                    continue
                if self._class_releases(classdef, attr, verbs):
                    continue
                findings.append(
                    module.finding(
                        node,
                        self.rule,
                        f"{kind} 'self.{attr}' is acquired here but no "
                        f"method of {classdef.name} ever calls "
                        f"self.{attr}.{'/'.join(verbs)}; release it in a "
                        "teardown or declare `# released-by: <method>`",
                    )
                )
        return findings

    def _check_annotation(
        self, project, module, classdef, methods, node, attr, kind, verbs, teardown
    ):
        method = methods.get(teardown)
        if method is None:
            return [
                module.finding(
                    node,
                    self.rule,
                    f"'self.{attr}' declares `# released-by: {teardown}` "
                    f"but {classdef.name} has no method '{teardown}'",
                )
            ]
        if self._method_releases(project, method, attr, verbs, hops=1):
            return []
        return [
            module.finding(
                node,
                self.rule,
                f"'self.{attr}' declares `# released-by: {teardown}` but "
                f"{classdef.name}.{teardown} never calls "
                f"self.{attr}.{'/'.join(verbs)}",
            )
        ]

    @staticmethod
    def _releases_in(node, attr, verbs):
        """A ``self.<attr>.<verb>`` reference (call or bound) under ``node``."""
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Attribute)
                and child.attr in verbs
                and is_self_attribute(child.value, attr)
            ):
                return True
        return False

    def _class_releases(self, classdef, attr, verbs):
        for node in class_nodes(classdef):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in verbs
                and is_self_attribute(node.value, attr)
            ):
                return True
        return False

    def _method_releases(self, project, method, attr, verbs, hops):
        if self._releases_in(method.node, attr, verbs):
            return True
        if hops <= 0:
            return False
        for _node, target in project.callees(method):
            if target.classdef is method.classdef and self._method_releases(
                project, target, attr, verbs, hops - 1
            ):
                return True
        return False

    # ------------------------------------------------------------------ #
    # function-local resources
    # ------------------------------------------------------------------ #
    def _check_locals(self, project, module):
        findings = []
        for info in project.functions_of(module):
            findings.extend(self._check_function_locals(module, info))
        return findings

    def _check_function_locals(self, module, info):
        from repro.analysis.project import own_nodes

        func = info.node
        with_managed = set()
        acquisitions = {}  # name -> (assign node, kind, verbs)
        for node in own_nodes(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        with_managed.add(item.optional_vars.id)
                    if isinstance(item.context_expr, ast.Name):
                        with_managed.add(item.context_expr.id)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    kind, verbs = _factory_of(node.value)
                    if kind is not None:
                        acquisitions[target.id] = (node, kind, verbs)
        if not acquisitions:
            return []
        findings = []
        for name, (node, kind, verbs) in acquisitions.items():
            if name in with_managed:
                continue
            if self._escapes(func, node, name):
                continue
            if self._released_locally(func, name, verbs):
                continue
            findings.append(
                module.finding(
                    node,
                    self.rule,
                    f"local {kind} '{name}' is never released on all paths; "
                    f"use `with`, or close it in `finally` "
                    f"({'/'.join(verbs)})",
                )
            )
        return findings

    @staticmethod
    def _direct_refs(expr):
        """``expr`` itself, or its elements when it is a container literal.

        ``return handle`` and ``return (handle, x)`` transfer ownership;
        ``return handle.read()`` does not — only direct references count.
        """
        if expr is None:
            return []
        nodes = [expr]
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            nodes = list(expr.elts)
        elif isinstance(expr, ast.Dict):
            nodes = list(expr.values)
        refs = []
        for node in nodes:
            if isinstance(node, ast.Starred):
                node = node.value
            if isinstance(node, ast.Name):
                refs.append(node.id)
        return refs

    #: Builtins that merely look at an object — passing a resource to one
    #: of these transfers nothing, so it is not an escape.
    NON_OWNING_CALLS = frozenset(
        {"enumerate", "iter", "next", "zip", "len", "repr", "str", "print",
         "isinstance", "id", "bool", "hash"}
    )

    @classmethod
    def _escapes(cls, func, assign, name):
        """Ownership leaves the function: returned/yielded/stored/passed on."""
        for node in ast.walk(func):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                if name in cls._direct_refs(getattr(node, "value", None)):
                    return True
            if isinstance(node, ast.Assign) and node is not assign:
                if name in cls._direct_refs(node.value):
                    return True  # aliased / stored onto an object or container
            if isinstance(node, ast.Call):
                if call_name(node) in cls.NON_OWNING_CALLS:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
        return False

    @staticmethod
    def _released_locally(func, name, verbs):
        """``name.<verb>`` referenced inside a ``finally`` (or anywhere —
        an unconditional release is accepted as intent; path-sensitivity
        stays with the future-resolution rule)."""
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in verbs
                and isinstance(node.value, ast.Name)
                and node.value.id == name
            ):
                return True
        return False


__all__ = ["ResourceLifecycleChecker"]
