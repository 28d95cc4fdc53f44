"""The repo-specific lint rules (RA001–RA005).

Each rule is a small ``ast``-level checker encoding one correctness
invariant the FakeDetector reproduction depends on. The rules are
deliberately narrow: they target the failure classes this codebase has
actually defended against (see ``docs/analysis.md`` for the catalogue
with rationale), not general style.

Rules
-----
RA001  bare ``print(`` in library code (route through ``repro.obs``)
RA002  unseeded ``np.random.*`` usage (non-reproducible randomness)
RA003  closures inside loops capturing the loop variable late
RA004  in-place mutation of autograd ``.data``/``.grad`` outside optimizers
RA005  bare ``except:`` / silently swallowed exceptions
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


@dataclasses.dataclass(frozen=True, order=True)
class Evidence:
    """One step of a finding's inter-file evidence chain."""

    path: str
    line: int
    note: str

    def to_dict(self) -> Dict[str, object]:
        return {"path": self.path, "line": self.line, "note": self.note}

    @classmethod
    def from_dict(cls, payload: Dict) -> "Evidence":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            note=str(payload["note"]),
        )


def pass_for_rule(rule_id: str) -> str:
    """The pass family a rule id belongs to (RA0xx=file, RA1xx=arch, …)."""
    if len(rule_id) >= 3 and rule_id.startswith("RA"):
        family = {"1": "arch", "2": "concurrency"}.get(rule_id[2])
        if family is not None:
            return family
    return "file"


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, stable across runs for JSON diffing.

    Whole-program findings additionally carry an :class:`Evidence` chain —
    the cross-module steps (lock creation → spawn call → fork site, or
    import path of a layering violation) that justify the finding. File
    rules leave it empty.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    evidence: Tuple[Evidence, ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "pass": pass_for_rule(self.rule),
            "evidence": [step.to_dict() for step in self.evidence],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Finding":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            rule=str(payload["rule"]),
            message=str(payload["message"]),
            evidence=tuple(
                Evidence.from_dict(step) for step in payload.get("evidence", ())
            ),
        )

    def fingerprint(self) -> str:
        """Line-number-insensitive identity, the baseline-mode match key."""
        return f"{self.path}::{self.rule}::{self.message}"


@dataclasses.dataclass
class FileContext:
    """Per-file facts shared by all rules: path, source and import aliases."""

    path: str
    tree: ast.Module
    lines: List[str]
    #: local names bound to the numpy module (``import numpy as np``)
    numpy_aliases: Set[str]
    #: local names bound to ``numpy.random`` (``from numpy import random``)
    numpy_random_aliases: Set[str]

    @classmethod
    def build(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        numpy_aliases: Set[str] = set()
        numpy_random_aliases: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        numpy_random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_random_aliases.add(alias.asname or "random")
        return cls(
            path=path,
            tree=tree,
            lines=source.splitlines(),
            numpy_aliases=numpy_aliases,
            numpy_random_aliases=numpy_random_aliases,
        )

    def is_numpy_random(self, node: ast.AST) -> bool:
        """True when ``node`` denotes the ``numpy.random`` module."""
        if isinstance(node, ast.Attribute) and node.attr == "random":
            return (
                isinstance(node.value, ast.Name)
                and node.value.id in self.numpy_aliases
            )
        return isinstance(node, ast.Name) and node.id in self.numpy_random_aliases


class Rule:
    """Base lint rule. Subclasses set the class attributes and ``check``."""

    id: str = ""
    title: str = ""
    hint: str = ""
    #: path suffixes this rule never applies to (posix form)
    exempt_suffixes: Sequence[str] = ()

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return not any(normalized.endswith(sfx) for sfx in self.exempt_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


class BarePrintRule(Rule):
    """RA001: ``print()`` in library code bypasses the structured logger."""

    id = "RA001"
    title = "bare print() in library code"
    hint = (
        "route diagnostics through repro.obs: "
        "`get_logger(\"<ns>\").info(\"event\", key=value)`; CLI entry points "
        "(cli.py, __main__.py) are exempt because stdout is their contract"
    )
    exempt_suffixes = ("cli.py", "__main__.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx, node, "bare print() in library code; use repro.obs.get_logger()"
                )


#: legacy module-level numpy.random functions that mutate hidden global state
_LEGACY_RANDOM_FNS = {
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull",
    "zipf",
}


class UnseededRandomRule(Rule):
    """RA002: randomness must come from a passed-in Generator or a seed."""

    id = "RA002"
    title = "unseeded np.random usage"
    hint = (
        "pass an explicit np.random.Generator down from the config seed, or "
        "seed the constructor: `np.random.default_rng(seed)`; module-level "
        "legacy calls (np.random.randn, np.random.seed, ...) share hidden "
        "global state and are never reproducible from config alone"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not ctx.is_numpy_random(func.value):
                continue
            name = func.attr
            if name in ("default_rng", "RandomState"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx,
                        node,
                        f"unseeded np.random.{name}(): pass a Generator or a "
                        "seed derived from config",
                    )
            elif name in _LEGACY_RANDOM_FNS:
                yield self.finding(
                    ctx,
                    node,
                    f"legacy global-state np.random.{name}(): use an explicit "
                    "np.random.Generator",
                )


class LoopClosureRule(Rule):
    """RA003: closures created in a loop must bind the loop variable early.

    This is the exact bug class the autograd tape defends against: a
    ``backward`` closure defined inside a loop that reads the loop variable
    resolves it *at call time*, when every closure sees the final
    iteration's value. The fix is default-argument binding
    (``def backward(grad, _op=op): ...``).
    """

    id = "RA003"
    title = "loop variable captured late by closure"
    hint = (
        "bind the loop variable at definition time with a default argument: "
        "`def backward(grad, _x=x): ...` or `lambda grad, _x=x: ...`"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.AsyncFor)):
                continue
            targets = _target_names(loop.target)
            if not targets:
                continue
            for child in ast.walk(loop):
                if child is loop:
                    continue
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    for name in sorted(_late_bound_names(child, targets)):
                        yield self.finding(
                            ctx,
                            child,
                            f"closure captures loop variable {name!r} late; "
                            "bind it with a default argument",
                        )

    # Nested loops: each For is walked independently, so a closure inside an
    # inner loop is checked against both loops' targets.


def _target_names(target: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _late_bound_names(func: ast.AST, loop_targets: Set[str]) -> Set[str]:
    """Loop-target names a function reads as free variables (not params,
    not locally rebound, not bound via defaults)."""
    if isinstance(func, ast.Lambda):
        body: List[ast.AST] = [func.body]
    else:
        body = list(func.body)
    args = func.args
    params = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)
    loads: Set[str] = set()
    stores: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
                else:
                    stores.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stores.add(node.name)
    return (loop_targets & loads) - params - stores


class TapeMutationRule(Rule):
    """RA004: in-place writes to ``.data``/``.grad`` corrupt saved closures.

    Backward closures capture the forward arrays *by reference*; mutating
    ``tensor.data`` between forward and backward silently poisons every
    gradient computed from it. Only optimizer ``step()`` code may mutate
    parameters in place (after ``backward()`` has consumed the tape).
    """

    id = "RA004"
    title = "in-place mutation of autograd .data/.grad"
    exempt_suffixes = ("autograd/optim.py",)
    hint = (
        "build a new array instead of mutating (`t = Tensor(new)`), or, if "
        "the write provably happens before any tape references the array "
        "(module __init__), suppress with `# repro: noqa[RA004] <reason>`"
    )

    _ATTRS = ("data", "grad")

    def _is_tracked_attr(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in self._ATTRS

    def _is_tracked_target(self, node: ast.AST) -> bool:
        """``x.data`` or any subscript/attribute chain rooted at it."""
        if self._is_tracked_attr(node):
            return True
        if isinstance(node, ast.Subscript):
            return self._is_tracked_target(node.value)
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AugAssign) and self._is_tracked_target(node.target):
                yield self.finding(
                    ctx, node,
                    "in-place augmented assignment to autograd .data/.grad",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and self._is_tracked_target(
                        target.value
                    ):
                        yield self.finding(
                            ctx, target,
                            "slice assignment into autograd .data/.grad",
                        )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and self._is_tracked_target(kw.value):
                        yield self.finding(
                            ctx, node,
                            "ufunc out= targets autograd .data/.grad",
                        )
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "at"
                    and node.args
                    and self._is_tracked_target(node.args[0])
                ):
                    yield self.finding(
                        ctx, node,
                        "ufunc .at() mutates autograd .data/.grad in place",
                    )


class SwallowedExceptionRule(Rule):
    """RA005: exceptions must be handled, logged, or re-raised — not eaten."""

    id = "RA005"
    title = "bare or swallowed exception handler"
    hint = (
        "catch the narrowest exception type that the code can actually "
        "recover from, and record the failure (logger/collection/re-raise) "
        "instead of `pass`"
    )

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    ctx, node, "bare except: catches SystemExit/KeyboardInterrupt too"
                )
                continue
            if (
                isinstance(node.type, ast.Name)
                and node.type.id in self._BROAD
                and all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body)
            ):
                yield self.finding(
                    ctx, node,
                    f"except {node.type.id} silently swallows the error",
                )


#: The default rule set, in catalogue order.
ALL_RULES = (
    BarePrintRule(),
    UnseededRandomRule(),
    LoopClosureRule(),
    TapeMutationRule(),
    SwallowedExceptionRule(),
)

RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}


def resolve_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Rules for a ``--select`` list (``None`` = all), validating ids."""
    if select is None:
        return list(ALL_RULES)
    chosen = []
    for rule_id in select:
        rule_id = rule_id.strip()
        if not rule_id:
            continue
        if rule_id not in RULES_BY_ID:
            raise ValueError(
                f"unknown rule {rule_id!r} (expected one of {sorted(RULES_BY_ID)})"
            )
        chosen.append(RULES_BY_ID[rule_id])
    if not chosen:
        raise ValueError("empty rule selection")
    return chosen
