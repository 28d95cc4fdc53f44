"""Lint engine: multi-pass analysis over files and the whole program.

The engine has two kinds of rules. Per-file rules (RA0xx) see one
:class:`~repro.analysis.rules.FileContext` at a time, exactly as in the
original linter. Program rules (RA1xx architecture, RA2xx concurrency)
run after every file is parsed, over the shared
:class:`~repro.analysis.program.ProgramIndex` — so a finding in one file
can be proven by evidence in another (service locks reachable at a fork
site inside worker.py, say), and that evidence chain ships with the
finding.

Suppressions are line-based in both worlds: a finding whose anchor line
carries ``# repro: noqa[...]`` moves to the *suppressed* list (still in
the JSON report, auditable, non-failing). Module-level program findings
anchor at line 1, so a leading comment line suppresses them.

Suppression syntax::

    risky_call()  # repro: noqa[RA002] layer init is explicitly random
    another()     # repro: noqa  -- blanket, suppresses every rule
    third()       # repro: noqa[RA001,RA204] two rules, one reason

CLI: ``repro lint [paths] [--select ...] [--pass ...] [--json]
[--baseline FILE --fail-on-new] [--write-baseline FILE]``.

The JSON schema is ``repro.analysis.lint/2``: additive over v1 — findings
gain ``pass`` and ``evidence`` keys, the result gains ``passes``.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .passes import ProgramRule, resolve_passes, resolve_selection
from .program import ProgramIndex
from .rules import ALL_RULES, FileContext, Finding, Rule, resolve_rules

#: matches ``# repro: noqa`` with an optional ``[RA001,RA002]`` rule list
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

SCHEMA = "repro.analysis.lint/2"
BASELINE_SCHEMA = "repro.analysis.lint-baseline/1"


def noqa_rules_for_line(line: str) -> Optional[Set[str]]:
    """Rule ids suppressed on ``line``.

    Returns ``None`` when the line has no marker, the empty set for a
    blanket ``# repro: noqa`` (suppresses everything), or the explicit set
    of rule ids.
    """
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return set()
    return {r.strip().upper() for r in rules.split(",") if r.strip()}


def _is_suppressed(finding: Finding, lines: List[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    rules = noqa_rules_for_line(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule in rules


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run over a set of files."""

    findings: List[Finding]
    suppressed: List[Finding]
    files_checked: int
    #: files that failed to parse: [(path, error message)]
    errors: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    #: pass families that ran, in run order
    passes_run: List[str] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def fingerprints(self) -> Set[str]:
        """Line-insensitive identities of the open findings."""
        return {f.fingerprint() for f in self.findings}

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON payload (sorted findings, schema-versioned)."""
        return {
            "schema": SCHEMA,
            "files_checked": self.files_checked,
            "passes": list(self.passes_run),
            "findings": [f.to_dict() for f in sorted(self.findings)],
            "suppressed": [f.to_dict() for f in sorted(self.suppressed)],
            "errors": [{"path": p, "error": e} for p, e in sorted(self.errors)],
            "counts": self.counts_by_rule(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LintResult":
        """Rebuild a result from its :meth:`to_dict` payload (v1 or v2)."""
        return cls(
            findings=[Finding.from_dict(f) for f in payload.get("findings", [])],
            suppressed=[
                Finding.from_dict(f) for f in payload.get("suppressed", [])
            ],
            files_checked=int(payload.get("files_checked", 0)),
            errors=[
                (e["path"], e["error"]) for e in payload.get("errors", [])
            ],
            passes_run=list(payload.get("passes", [])),
        )


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Run the per-file rules on one source string.

    Returns ``(findings, suppressed)``. Program passes need more than one
    file's context — use :func:`lint_sources` or :func:`lint_paths` for
    those.
    """
    ctx = FileContext.build(path, source)
    active = list(rules) if rules is not None else list(ALL_RULES)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for rule in active:
        if not rule.applies_to(path):
            continue
        for finding in rule.check(ctx):
            if _is_suppressed(finding, ctx.lines):
                suppressed.append(finding)
            else:
                findings.append(finding)
    findings.sort()
    suppressed.sort()
    return findings, suppressed


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.suffix == ".py" and path.is_file():
            out.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
    # De-duplicate while preserving sorted order within each argument.
    seen: Set[Path] = set()
    unique: List[Path] = []
    for path in out:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _run_program_rules(
    index: ProgramIndex,
    program_rules: Dict[str, List[ProgramRule]],
    findings: List[Finding],
    suppressed: List[Finding],
) -> None:
    for rules in program_rules.values():
        for rule in rules:
            for finding in rule.check(index):
                if _is_suppressed(finding, index.lines_for(finding.path)):
                    suppressed.append(finding)
                else:
                    findings.append(finding)


def _lint(
    sources: List[Tuple[str, str]],
    select: Optional[Iterable[str]],
    passes: Optional[Iterable[str]],
    package: str,
) -> LintResult:
    file_rules, program_rules = resolve_selection(select, passes)
    active_passes = resolve_passes(passes)
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    errors: List[Tuple[str, str]] = []
    index = ProgramIndex(package=package)
    need_index = bool(program_rules)
    for rel, source in sources:
        try:
            file_findings, file_suppressed = lint_source(
                source, rel, file_rules
            )
        except SyntaxError as exc:
            errors.append((rel, f"syntax error: {exc}"))
            continue
        findings.extend(file_findings)
        suppressed.extend(file_suppressed)
        if need_index:
            index.add_source(rel, source)
    if need_index:
        _run_program_rules(index, program_rules, findings, suppressed)
    findings.sort()
    suppressed.sort()
    return LintResult(
        findings=findings,
        suppressed=suppressed,
        files_checked=len(sources),
        errors=errors,
        passes_run=active_passes,
    )


def lint_paths(
    paths: Iterable[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    passes: Optional[Iterable[str]] = None,
    package: str = "repro",
) -> LintResult:
    """Lint every ``.py`` file under ``paths``, all passes by default."""
    sources: List[Tuple[str, str]] = []
    errors: List[Tuple[str, str]] = []
    for path in iter_python_files(paths):
        rel = path.as_posix()
        try:
            sources.append((rel, path.read_text(encoding="utf-8")))
        except OSError as exc:
            errors.append((rel, f"unreadable: {exc}"))
    result = _lint(sources, select, passes, package)
    result.errors = sorted(result.errors + errors)
    return result


def lint_sources(
    sources: Dict[str, str],
    select: Optional[Iterable[str]] = None,
    passes: Optional[Iterable[str]] = None,
    package: str = "repro",
) -> LintResult:
    """Lint an in-memory ``{path: source}`` mapping (fixture trees)."""
    return _lint(sorted(sources.items()), select, passes, package)


# -- baselines --------------------------------------------------------------


def baseline_payload(result: LintResult) -> Dict[str, object]:
    """The committable baseline for ``--baseline``/``--fail-on-new``."""
    return {
        "schema": BASELINE_SCHEMA,
        "fingerprints": sorted(result.fingerprints()),
    }


def load_baseline(path: Union[str, Path]) -> Set[str]:
    """Fingerprint set from a baseline file written by ``--write-baseline``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"not a lint baseline (schema={payload.get('schema')!r})"
        )
    return set(payload.get("fingerprints", []))


def new_findings(result: LintResult, baseline: Set[str]) -> List[Finding]:
    """Findings not present in the baseline (line moves don't count)."""
    return [f for f in result.findings if f.fingerprint() not in baseline]


def render_findings(
    result: LintResult,
    fix_hints: bool = False,
) -> str:
    """Human report: one ``path:line:col RULE message`` line per finding."""
    from .passes import rules_by_id

    lines: List[str] = []
    for path, error in result.errors:
        lines.append(f"{path}: {error}")
    catalogue = rules_by_id()
    hinted: Set[str] = set()
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.col + 1} "
            f"{finding.rule} {finding.message}"
        )
        for evidence in finding.evidence:
            lines.append(
                f"    evidence: {evidence.path}:{evidence.line} "
                f"{evidence.note}"
            )
        if fix_hints and finding.rule not in hinted:
            hinted.add(finding.rule)
            rule = catalogue.get(finding.rule)
            if rule is not None:
                lines.append(f"    hint[{finding.rule}]: {rule.hint}")
    total = len(result.findings)
    noun = "finding" if total == 1 else "findings"
    summary = (
        f"{total} {noun} in {result.files_checked} files"
        f" ({len(result.suppressed)} suppressed)"
    )
    if result.passes_run:
        summary += " [passes: " + ",".join(result.passes_run) + "]"
    if result.clean:
        lines.append(f"clean: {summary}")
    else:
        lines.append(summary)
    return "\n".join(lines)
