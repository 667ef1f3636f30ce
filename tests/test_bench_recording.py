"""The benchmark suite rewrites ``BENCH_*.json`` only in a ``-m bench`` session.

Tier-1 collects ``benchmarks/`` too, so a session that merely verifies the
tree must leave the recorded perf trajectory alone; ``make bench`` and
``make bench-quick`` (both ``-m bench``) are the only writers.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest(monkeypatch, tmp_path):
    """A fresh copy of the benchmark conftest that writes under ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def _finish(conftest, markexpr):
    """Record one entry, end a passing session run with ``-m markexpr``."""
    config = SimpleNamespace(getoption={"markexpr": markexpr}.__getitem__)
    conftest.record_bench("figure", wall_clock=1.0, bench_file="BENCH_TEST.json")
    conftest.pytest_sessionfinish(SimpleNamespace(config=config), 0)
    return conftest.ROOT / "BENCH_TEST.json"


@pytest.mark.parametrize("markexpr", ["", "not bench"])
def test_session_without_bench_mark_writes_nothing(bench_conftest, markexpr):
    assert not _finish(bench_conftest, markexpr).exists()


def test_bench_session_records(bench_conftest):
    written = _finish(bench_conftest, "bench")
    assert '"figure"' in written.read_text()
