"""repro-lint analyzer suite: fixtures, suppressions, CLI contract, self-check.

Fixture-driven: ``tests/fixtures/analysis/`` holds one positive file (the
rule must fire) and one negative file (the analyzer must stay silent) per
checker, plus suppression fixtures.  The disable tests prove every checker
is load-bearing — running the corpus with a rule switched off makes that
rule's findings (and only those) disappear.  The final class pins the
repo-wide contract: ``python -m repro.analysis src/repro`` is clean.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import ALL_CHECKERS, analyze_paths, analyze_source
from repro.analysis.runner import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    iter_python_files,
    main,
)
from repro.analysis.source import SUPPRESSION_RULE

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "analysis"
SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# This file covers the module-scope rules; the project-scope rules
# (lock-ordering, resource-lifecycle, metrics/protocol conformance) have
# their own corpus and suite in test_analysis_project.py.
RULES = sorted(cls.rule for cls in ALL_CHECKERS if cls.scope == "module")

#: rule id -> (positive fixture, expected finding count)
POSITIVE = {
    "lock-discipline": ("lock_discipline_pos.py", 2),
    "deadline-propagation": ("deadline_pos.py", 1),
    "future-resolution": ("futures_pos.py", 3),
}

NEGATIVE = {
    "lock-discipline": "lock_discipline_neg.py",
    "deadline-propagation": "deadline_neg.py",
    "future-resolution": "futures_neg.py",
}


def analyze_fixture(name, rules=None):
    findings, errors = analyze_paths([str(FIXTURES / name)], rules=rules)
    assert errors == []
    return findings


class TestFixtureCorpus:
    def test_corpus_is_complete(self):
        """Every registered rule has both a positive and a negative fixture."""
        assert set(POSITIVE) == set(RULES)
        assert set(NEGATIVE) == set(RULES)
        for name, _count in POSITIVE.values():
            assert (FIXTURES / name).exists(), name
        for name in NEGATIVE.values():
            assert (FIXTURES / name).exists(), name

    @pytest.mark.parametrize("rule", RULES)
    def test_positive_fixture_fires_exactly_its_rule(self, rule):
        """All checkers on: the positive fixture yields only its own rule."""
        name, count = POSITIVE[rule]
        findings = analyze_fixture(name)
        assert {f.rule for f in findings} == {rule}
        assert len(findings) == count

    @pytest.mark.parametrize("rule", RULES)
    def test_negative_fixture_is_silent(self, rule):
        """All checkers on: the disciplined twin produces zero findings."""
        assert analyze_fixture(NEGATIVE[rule]) == []

    @pytest.mark.parametrize("rule", RULES)
    def test_disabling_the_checker_silences_its_fixture(self, rule):
        """Each checker is load-bearing: drop it and its findings vanish.

        This is the fails-the-build-when-disabled guarantee — the positive
        fixture only trips when its checker is actually in the run.
        """
        others = [r for r in RULES if r != rule]
        name, _count = POSITIVE[rule]
        assert analyze_fixture(name, rules=others) == []
        assert analyze_fixture(name, rules=[rule]) != []


class TestSuppressions:
    def test_justified_suppressions_silence_line_and_scope(self):
        """suppression_ok.py violates two rules; both ignores carry reasons."""
        assert analyze_fixture("suppression_ok.py") == []

    def test_unjustified_suppression_reports_and_does_not_suppress(self):
        findings = analyze_fixture("suppression_bad.py")
        assert {f.rule for f in findings} == {SUPPRESSION_RULE, "lock-discipline"}

    def test_suppression_only_covers_named_rules(self):
        source = (
            "import threading\n"
            "lk = threading.Lock()"
            "  # repro-lint: ignore[future-resolution] wrong rule named here\n"
        )
        findings = analyze_source(source)
        assert [f.rule for f in findings] == ["lock-discipline"]


class TestConventions:
    """Direct analyze_source probes of the comment conventions."""

    GUARDED = (
        "import threading\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._items = []  # guarded-by: _lock\n"
        "\n"
        "{method}"
    )

    def _lock_findings(self, method):
        return analyze_source(
            self.GUARDED.format(method=method), rules=["lock-discipline"]
        )

    def test_holds_comment_marks_lock_as_held(self):
        assert self._lock_findings(
            "    def grow(self):  # holds: _lock\n        self._items.append(1)\n"
        ) == []

    def test_held_locks_do_not_leak_into_nested_defs(self):
        """A callback defined under `with` runs later, lock long released."""
        findings = self._lock_findings(
            "    def arm(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                return self._items\n"
            "            return later\n"
        )
        assert [f.rule for f in findings] == ["lock-discipline"]

    def test_init_is_exempt(self):
        """__init__ runs before the object is shared; bare writes are fine."""
        assert self._lock_findings("") == []


class TestRunnerContract:
    def test_findings_are_sorted_and_stable(self):
        first, errors = analyze_paths([str(FIXTURES)])
        assert errors == []
        second, _ = analyze_paths([str(FIXTURES)])
        assert first == second
        keys = [(f.path, f.line, f.col, f.rule) for f in first]
        assert keys == sorted(keys)

    def test_render_is_clickable_compiler_format(self):
        findings, _ = analyze_paths([str(FIXTURES / "deadline_pos.py")])
        for finding in findings:
            assert re.fullmatch(
                r"(?P<path>.+\.py):\d+:\d+: \[[a-z-]+\] .+", finding.render()
            )

    def test_iter_python_files_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            iter_python_files(["tests/fixtures/analysis/does_not_exist"])

    def test_syntax_error_is_a_parse_error_not_a_crash(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings, errors = analyze_paths([str(bad)])
        assert findings == []
        assert len(errors) == 1 and "cannot parse" in errors[0]


class TestCLI:
    def test_clean_fixture_exits_zero(self, capsys):
        assert main([str(FIXTURES / "futures_neg.py")]) == EXIT_CLEAN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "repro-lint: clean" in captured.err

    def test_findings_exit_one_with_compiler_lines(self, capsys):
        assert main([str(FIXTURES / "futures_pos.py")]) == EXIT_FINDINGS
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert all("[future-resolution]" in line for line in lines)
        assert "3 finding(s)" in captured.err

    def test_rule_filter_narrows_the_run(self, capsys):
        status = main(
            [str(FIXTURES), "--rule", "deadline-propagation"]
        )
        assert status == EXIT_FINDINGS
        captured = capsys.readouterr()
        # Only deadline findings (plus the never-filterable suppression rule).
        rules = {
            re.search(r"\[([a-z-]+)\]", line).group(1)
            for line in captured.out.strip().splitlines()
        }
        assert rules == {"deadline-propagation", SUPPRESSION_RULE}

    def test_missing_path_and_no_path_exit_two(self, capsys):
        assert main(["tests/fixtures/analysis/nope"]) == EXIT_ERROR
        assert main([]) == EXIT_ERROR
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = capsys.readouterr().out
        for rule in RULES:
            assert rule in listed


class TestRepoIsClean:
    def test_analyzer_is_clean_on_the_serving_stack(self):
        """The CI gate: the whole package analyzes clean, no parse errors."""
        findings, errors = analyze_paths([str(SRC)])
        assert errors == []
        assert findings == [], "\n".join(f.render() for f in findings)
