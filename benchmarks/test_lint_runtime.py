"""Analyzer runtime: the full three-pass lint over the real source tree.

The whole-program passes (architecture, concurrency) share one
:class:`~repro.analysis.ProgramIndex` build, so the budget covers parse +
index + all three rule families end to end. The analyzer gates commits
(``tests/test_lint_clean.py``), so it must stay interactive-fast: the
budget is 5 seconds for the whole of ``src/repro``.

Timings take the min over ``REPRO_BENCH_LINT_REPEATS`` runs (default 3).
Writes ``results/BENCH_lint.json``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from conftest import save_bench_run

from repro.analysis import lint_paths

pytestmark = pytest.mark.analysis

REPEATS = int(os.environ.get("REPRO_BENCH_LINT_REPEATS", "3"))
BUDGET_SECONDS = 5.0

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _run(passes=None):
    start = time.perf_counter()
    result = lint_paths([SRC], passes=passes)
    return time.perf_counter() - start, result


def test_lint_runtime_budget():
    full_runs, file_runs, program_runs = [], [], []
    result = None
    for _ in range(REPEATS):
        seconds, result = _run()
        full_runs.append(seconds)
        file_runs.append(_run(passes=["file"])[0])
        program_runs.append(_run(passes=["arch", "concurrency"])[0])
    full = min(full_runs)
    file_only = min(file_runs)
    program_only = min(program_runs)

    report = {
        "files_checked": result.files_checked,
        "passes": list(result.passes_run),
        "full_seconds": full,
        "file_pass_seconds": file_only,
        "program_passes_seconds": program_only,
        "budget_seconds": BUDGET_SECONDS,
        "findings": len(result.findings),
        "suppressed": len(result.suppressed),
    }
    save_bench_run(
        "BENCH_lint.json",
        report,
        config={"repeats": REPEATS, "target": str(SRC)},
    )

    assert result.files_checked > 50
    assert full <= BUDGET_SECONDS, (
        f"three-pass lint took {full:.2f}s over {result.files_checked} files "
        f"(budget {BUDGET_SECONDS}s)"
    )
