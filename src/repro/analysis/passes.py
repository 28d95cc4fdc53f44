"""Pass framework: whole-program rules grouped into named pass families.

The per-file rules of :mod:`repro.analysis.rules` see one
:class:`~repro.analysis.rules.FileContext` at a time. Everything else —
layering contracts and fork-safety — needs the whole program, so those
rules subclass :class:`ProgramRule` and receive the shared
:class:`~repro.analysis.program.ProgramIndex` instead.

Pass families (selected with ``repro lint --pass``):

=============  ======  ==============================================
pass           rules   what it proves
=============  ======  ==============================================
file           RA0xx   per-file invariants (prints, randomness, tape)
arch           RA1xx   import layering, cycles, dead modules/symbols
concurrency    RA2xx   fork/thread/queue/contextvars safety
=============  ======  ==============================================

``--select`` accepts exact ids (``RA204``) and pass-level wildcards
(``RA2xx``), both composable with ``--pass``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .program import ProgramIndex
from .rules import ALL_RULES, Finding, Rule

#: The run order of the pass families.
PASS_NAMES = ("file", "arch", "concurrency")

_WILDCARD_RE = re.compile(r"^RA(?P<family>[0-9])XX$")


class ProgramRule:
    """Base whole-program rule; mirrors :class:`~repro.analysis.rules.Rule`.

    Subclasses set ``id``/``title``/``hint`` and implement :meth:`check`,
    yielding findings whose ``path``/``line`` anchor the primary location
    (where a ``# repro: noqa[ID] reason`` suppression is honored) and
    whose ``evidence`` chain walks the supporting cross-module steps.
    """

    id: str = ""
    title: str = ""
    hint: str = ""

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        path: str,
        line: int,
        message: str,
        col: int = 0,
        evidence: Sequence = (),
    ) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            evidence=tuple(evidence),
        )


def _program_rules() -> Dict[str, Tuple[ProgramRule, ...]]:
    # Imported lazily so rules.py/passes.py stay importable from the pass
    # modules themselves without a cycle.
    from .arch import ARCH_RULES
    from .concurrency import CONCURRENCY_RULES

    return {
        "arch": ARCH_RULES,
        "concurrency": CONCURRENCY_RULES,
    }


def all_rules() -> List[object]:
    """The full catalogue — file rules then program rules, in pass order."""
    catalogue: List[object] = list(ALL_RULES)
    by_pass = _program_rules()
    for name in PASS_NAMES[1:]:
        catalogue.extend(by_pass[name])
    return catalogue


def rules_by_id() -> Dict[str, object]:
    return {rule.id: rule for rule in all_rules()}


def resolve_passes(passes: Optional[Iterable[str]]) -> List[str]:
    """Validate and order a ``--pass`` selection (``None`` = all passes)."""
    if passes is None:
        return list(PASS_NAMES)
    chosen = []
    for name in passes:
        name = name.strip().lower()
        if not name:
            continue
        if name == "all":
            return list(PASS_NAMES)
        if name not in PASS_NAMES:
            raise ValueError(
                f"unknown pass {name!r} (expected one of {list(PASS_NAMES)})"
            )
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise ValueError("empty pass selection")
    return [name for name in PASS_NAMES if name in chosen]


def resolve_selection(
    select: Optional[Iterable[str]],
    passes: Optional[Iterable[str]] = None,
) -> Tuple[List[Rule], Dict[str, List[ProgramRule]]]:
    """``(file rules, {pass: program rules})`` for a select/pass pair.

    ``select`` entries may be exact rule ids (``RA001``) or pass-level
    wildcards (``RA2xx``); ``passes`` restricts which families run at
    all. A rule runs iff its family is enabled *and* it matches the
    selection (no selection = every rule).
    """
    active = resolve_passes(passes)
    catalogue = rules_by_id()
    if select is None:
        wanted = set(catalogue)
    else:
        wanted = set()
        for entry in select:
            entry = entry.strip().upper()
            if not entry:
                continue
            wildcard = _WILDCARD_RE.match(entry)
            if wildcard is not None:
                family = wildcard.group("family")
                matched = {
                    rule_id
                    for rule_id in catalogue
                    if rule_id.startswith(f"RA{family}")
                }
                if not matched:
                    raise ValueError(f"no rules in family {entry!r}")
                wanted |= matched
                continue
            if entry not in catalogue:
                raise ValueError(
                    f"unknown rule {entry!r} (expected an id like RA001 or a "
                    "family wildcard like RA2xx)"
                )
            wanted.add(entry)
        if not wanted:
            raise ValueError("empty rule selection")
    file_rules = [
        rule for rule in ALL_RULES if "file" in active and rule.id in wanted
    ]
    program: Dict[str, List[ProgramRule]] = {}
    by_pass = _program_rules()
    for name in active:
        if name == "file":
            continue
        selected = [rule for rule in by_pass[name] if rule.id in wanted]
        if selected:
            program[name] = selected
    return file_rules, program
