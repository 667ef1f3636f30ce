"""repro-lint: whole-program concurrency & invariant analysis for this repo.

The serving stack accumulated a family of cross-cutting invariants that no
unit test checks mechanically.  Following the spirit of integrity checking
in deductive databases — declare the invariant once, check every state
mechanically — this package encodes them as project-specific static checks
over the stdlib :mod:`ast`, in two phases: phase 1 builds a
:class:`~repro.analysis.project.ProjectModel` (module graph, import/alias
symbol table, approximate call graph), phase 2 runs the checkers.

Module-scope rules (per file): lock-discipline, deadline-propagation
(alias-aware and interprocedural) and future-resolution.  Project-scope
rules (over the model): lock-ordering (global lock-acquisition-order graph,
cycles are potential deadlocks), resource-lifecycle (sockets, threads,
executors and files must be released, ``# released-by:`` teardowns are
verified), metrics-conformance (every gauge recorded and exported), and
protocol-conformance (record fields must come from the protocol codec).

Run it as::

    python -m repro.analysis src/repro            # exit 0 = clean
    python -m repro.analysis src/repro --format json
    python -m repro.analysis src/repro --baseline analysis-baseline.json
    python -m repro.analysis --list-rules

Conventions (see the README's "Static analysis" section):

* ``# guarded-by: <lock>`` on an attribute assignment declares the
  attribute as protected by ``self.<lock>``.
* ``# holds: <lock>`` on a ``def`` line declares that callers invoke the
  method with ``self.<lock>`` already held.
* ``# released-by: <method>`` on a resource acquisition names the teardown
  method that releases it; the analyzer verifies the method exists and
  performs the release.
* ``# repro-lint: ignore[rule-a, rule-b] <justification>`` suppresses the
  named rules on that line (or, on a ``def``/``class`` line, in that whole
  scope).  A suppression without a justification is itself a finding.
"""

from repro.analysis.baseline import load_baseline, write_baseline
from repro.analysis.findings import Finding
from repro.analysis.project import ProjectModel
from repro.analysis.runner import ALL_CHECKERS, analyze_paths, analyze_source, main

__all__ = [
    "ALL_CHECKERS",
    "Finding",
    "ProjectModel",
    "analyze_paths",
    "analyze_source",
    "load_baseline",
    "main",
    "write_baseline",
]
