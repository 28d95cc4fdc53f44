"""Tier-1 gate: the library source tree must be analyzer-clean.

All three passes — per-file rules, architecture (RA1xx) and concurrency
(RA2xx) — must report zero findings on ``src/repro``. Every true positive is either fixed or carries an explicit
``# repro: noqa[RULE] reason`` suppression; this test keeps it that way.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths, render_findings
from repro.cli import main

pytestmark = pytest.mark.analysis

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BASELINE = SRC.parent.parent / "results" / "lint_baseline.json"


def test_source_tree_is_lint_clean():
    result = lint_paths([SRC])
    assert result.files_checked > 50  # the whole package, not a subset
    assert result.passes_run == ["file", "arch", "concurrency"]
    assert result.clean, "\n" + render_findings(result, fix_hints=True)


def test_program_passes_are_clean():
    """The whole-program passes alone, via the CLI surface."""
    assert main(["lint", str(SRC), "--pass", "arch,concurrency"]) == 0


def test_committed_baseline_is_empty():
    """The tree is clean, so the committed baseline must hold no debt."""
    from repro.analysis import load_baseline

    assert BASELINE.exists(), "results/lint_baseline.json is committed"
    assert load_baseline(BASELINE) == set()


def test_cli_fail_on_new_against_committed_baseline():
    assert main(
        ["lint", str(SRC), "--baseline", str(BASELINE), "--fail-on-new"]
    ) == 0


def test_suppressions_carry_reasons():
    """Every noqa marker must say *why* (text after the rule list)."""
    import re

    bare = []
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            match = re.search(r"#\s*repro:\s*noqa(\[[^\]]*\])?(?P<rest>.*)", line)
            if match and not match.group("rest").strip():
                bare.append(f"{path}:{lineno}")
    assert not bare, f"noqa without a reason: {bare}"


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert main(["lint", str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_lint_exits_nonzero_on_findings(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("print('diagnostic')\n")
    assert main(["lint", str(bad)]) == 1
    assert "RA001" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lint", str(SRC), "--pass", "shapes"], "'file', 'arch', 'concurrency'"),
        (["lint", str(SRC), "--select", "RA3XX"], "'RA3XX'"),
        (["lint", str(SRC), "--select", "RA999"], "'RA999'"),
        (["analysis", "report", str(SRC), "--select", "RA3XX"], "'RA3XX'"),
    ],
    ids=["lint-pass", "lint-family", "lint-rule", "report-family"],
)
def test_cli_selection_error_is_a_usage_error(argv, named, capsys):
    """An unknown pass or rule exits 2 with one line, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro ")
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert "Traceback" not in captured.err


def test_cli_analysis_report_runs(capsys):
    assert main(["analysis", "report", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "RA001" in out and "clean" in out


def test_cli_analysis_deps_text_and_dot(capsys):
    assert main(["analysis", "deps", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "autograd" in out and "serve" in out
    assert main(["analysis", "deps", str(SRC), "--dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")
