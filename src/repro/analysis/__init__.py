"""Static analysis + runtime sanitizing for the autograd/training stack.

Three halves guarding the invariants the paper's math depends on:

- :mod:`repro.analysis.lint` — a multi-pass analyzer. Per-file rules
  (RA0xx in :mod:`repro.analysis.rules`) cover repo-specific failure
  classes: unlogged prints, unseeded randomness, late-bound loop
  closures, in-place tape mutation, swallowed exceptions. Whole-program
  passes over the shared :mod:`repro.analysis.program` index cover the
  architecture contract (RA1xx, :mod:`repro.analysis.arch`) and
  concurrency and fork-safety (RA2xx, :mod:`repro.analysis.concurrency`).
  CLI: ``repro lint [--pass ...]``.
- :mod:`repro.analysis.sanitize` — a runtime tape sanitizer observing
  every autograd op: NaN/Inf guard, in-place-mutation detector,
  dead-parameter auditor; plus :mod:`repro.analysis.contracts` shape/dtype
  contract checks for Linear/GRU/GDU layers. CLI: ``repro train
  --sanitize``; API: ``detector.fit(ds, split, sanitize=True)``.

``repro analysis report`` renders the combined rule summary and
``repro analysis deps`` the import-layer graph. See ``docs/analysis.md``
for the pass architecture and rule catalogue.
"""

from .contracts import ContractChecker, ContractViolation, named_modules
from .lint import (
    Finding,
    LintResult,
    baseline_payload,
    lint_paths,
    lint_source,
    lint_sources,
    load_baseline,
    new_findings,
    noqa_rules_for_line,
    render_findings,
)
from .passes import PASS_NAMES, all_rules, resolve_passes, resolve_selection
from .program import ProgramIndex, render_deps
from .report import render_summary, summarize
from .rules import ALL_RULES, RULES_BY_ID, Evidence, resolve_rules
from .sanitize import (
    DeadParameter,
    NumericalFaultError,
    Sanitizer,
    SanitizerError,
    SanitizerStats,
    TapeCorruptionError,
    audit_parameters,
)

__all__ = [
    # lint
    "ALL_RULES",
    "PASS_NAMES",
    "RULES_BY_ID",
    "Evidence",
    "Finding",
    "LintResult",
    "ProgramIndex",
    "all_rules",
    "baseline_payload",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "load_baseline",
    "new_findings",
    "noqa_rules_for_line",
    "render_deps",
    "render_findings",
    "resolve_passes",
    "resolve_rules",
    "resolve_selection",
    # report
    "render_summary",
    "summarize",
    # sanitize
    "ContractChecker",
    "ContractViolation",
    "DeadParameter",
    "NumericalFaultError",
    "Sanitizer",
    "SanitizerError",
    "SanitizerStats",
    "TapeCorruptionError",
    "audit_parameters",
    "named_modules",
]
