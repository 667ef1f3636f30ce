"""Shared configuration for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's evaluation and
prints the measured rows (the same rows/series the paper reports) so the
output can be compared against EXPERIMENTS.md.  The scales are reduced from
the paper's so the whole suite runs in minutes on a laptop; the shapes are
what matters.

Besides the printed tables, each benchmark records a machine-readable entry
(figure name -> wall clock + counters/rows) via :func:`record_bench`; at the
end of a session run with ``-m bench`` (``make bench``) everything
recorded is merged into a ``BENCH_*.json`` file at the repository root
(``BENCH_PR1.json`` by default), so the perf trajectory (wall clock,
closure queries, cache hit rates, speedups) can be tracked across PRs.
Any other session — the tier-1 run collects this directory too — writes
nothing.

All tests collected from this directory are marked ``bench`` so the fast
tier-1 suite can deselect them with ``-m "not bench"`` (see the Makefile).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BENCH_FILE = "BENCH_PR1.json"

#: bench file name -> {figure -> entry}
_RECORDED = {}


def ec2_universal_plan_and_constraint(stars=2, corners=4, views=2):
    """Shared fixture for the search micro-benchmarks and ablations.

    Builds the EC2 workload, chases it to the universal plan, and returns the
    plan together with the first forward view constraint (the homomorphism
    source the candidate-lookup comparisons search with).
    """
    from repro.chase.chase import chase
    from repro.workloads.ec2 import build_ec2

    workload = build_ec2(stars=stars, corners=corners, views=views)
    constraints = workload.catalog.constraints()
    universal = chase(workload.query, constraints).query
    view_forward = next(dep for dep in constraints if dep.name.endswith("_fwd"))
    return universal, view_forward


def report(result):
    """Print an experiment result table underneath the benchmark output."""
    print()
    print(result.render())
    print()


def record_bench(figure, wall_clock=None, counters=None, result=None, bench_file=DEFAULT_BENCH_FILE, **extra):
    """Record one figure's measurements for a root ``BENCH_*.json`` file.

    Parameters
    ----------
    figure:
        Key in the JSON file (e.g. ``"fig5_ec1"``).
    wall_clock:
        Wall-clock seconds for the whole figure, if measured.
    counters:
        Dict of machine-independent work counters (closure queries, cache
        hits, ratios, ...).
    result:
        Optional :class:`~repro.experiments.figures.ExperimentResult`; its
        headers and rows are embedded so the JSON is self-describing.
    bench_file:
        File name (relative to the repository root) the entry is merged
        into; defaults to ``BENCH_PR1.json``.
    extra:
        Any further JSON-serializable fields.
    """
    entry = dict(extra)
    if wall_clock is not None:
        entry["wall_clock_s"] = round(wall_clock, 6)
    if counters:
        entry["counters"] = counters
    if result is not None:
        entry["headers"] = list(result.headers)
        entry["rows"] = [list(row) for row in result.rows]
    _RECORDED.setdefault(bench_file, {})[figure] = entry


def pytest_collection_modifyitems(items):
    bench_dir = str(Path(__file__).resolve().parent)
    for item in items:
        if str(item.fspath).startswith(bench_dir):
            item.add_marker(pytest.mark.bench)


def pytest_sessionfinish(session, exitstatus):
    # Only persist measurements from a fully passing, explicitly requested
    # benchmark session: a failed run's counters would overwrite the good
    # entries the files exist to track, and a verification run is one noisy
    # sample that must not replace the recorded trajectory.
    if not _RECORDED or exitstatus != 0 or session.config.getoption("markexpr") != "bench":
        return
    for bench_file, entries in _RECORDED.items():
        path = ROOT / bench_file
        merged = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except (OSError, ValueError):
                merged = {}
        merged.update(entries)
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
