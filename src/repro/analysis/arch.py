"""Architecture pass (RA1xx): the import-layer contract, enforced.

The repo's layering is a DAG over top-level subpackages. Lower layers
must be importable without dragging in anything above them — that is what
keeps ``autograd`` embeddable, ``obs`` reachable only through its seams
(the :func:`repro.autograd.tensor.add_op_observer` registry and the
``get_logger``/``trace`` facade), and the serving stack restartable.

::

    layer 6   cli  __main__          (entry points; nothing imports them)
    layer 5   experiments
    layer 4   analysis  baselines  serve
    layer 3   core
    layer 2   graph  metrics
    layer 1   data  obs
    layer 0   autograd  text

The contract applies to *eager* (module-level) imports — the edges that
execute at import time. Function-level deferred imports are the sanctioned
escape for optional upward coupling (e.g. ``core.trainer`` reaching
``serve.checkpoint`` inside ``save()``), with one exception: nothing may
import ``cli`` even lazily, except ``__main__``.

Rules
-----
RA101  eager import from a higher layer (layering violation)
RA102  eager import cycle between modules
RA103  dead module: nothing in the program imports it
RA104  dead symbol: public class/function/method/constant never referenced
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from .passes import ProgramRule
from .program import ProgramIndex
from .rules import Evidence, Finding

#: Subpackage → layer rank. Imports must point at the same or a lower rank.
LAYERS: Dict[str, int] = {
    "autograd": 0,
    "text": 0,
    "data": 1,
    "obs": 1,
    "graph": 2,
    "metrics": 2,
    "core": 3,
    "analysis": 4,
    "baselines": 4,
    "serve": 4,
    "experiments": 5,
    "cli": 6,
    "__main__": 6,
}

#: Rank for the package root (``repro/__init__.py``) — it is a facade over
#: everything, so it sits at the top.
_ROOT_RANK = 6


def layer_of(index: ProgramIndex, module: str) -> Optional[int]:
    """Layer rank for an indexed module, ``None`` outside the contract."""
    sub = index.subpackage_of(module)
    if sub == index.package:
        return _ROOT_RANK
    return LAYERS.get(sub)


class LayeringRule(ProgramRule):
    """RA101: eager imports must stay at or below the importer's layer."""

    id = "RA101"
    title = "import layering violation"
    hint = (
        "move the dependency down a layer, route it through an existing "
        "seam (the obs logger facade, the autograd op-observer registry), or defer "
        "the import into the function that needs it"
    )

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            source_rank = layer_of(index, info.name)
            if source_rank is None:
                continue
            for edge in info.imports:
                targets = sorted(index.resolved_targets(edge))
                for target in targets:
                    if target == info.name:
                        continue
                    if info.name.startswith(target + "."):
                        continue  # ancestor package: implicit, not an edge
                    yield from self._check_edge(index, info, edge, target)

    def _check_edge(self, index, info, edge, target) -> Iterator[Finding]:
        source_rank = layer_of(index, info.name)
        target_rank = layer_of(index, target)
        if target_rank is None:
            return
        if index.subpackage_of(info.name) == index.subpackage_of(target):
            return
        # cli is an entry point, never a library: even deferred imports
        # of it are wrong (only __main__ may).
        if (
            index.subpackage_of(target) == "cli"
            and index.subpackage_of(info.name) != "__main__"
        ):
            yield self.finding(
                info.path,
                edge.lineno,
                f"{info.name} imports the cli entry point "
                f"({target}); cli is not a library",
                evidence=[
                    Evidence(info.path, edge.lineno, "import site"),
                    Evidence(index.modules[target].path, 1, "entry point"),
                ],
            )
            return
        if edge.deferred:
            return
        if target_rank > source_rank:
            yield self.finding(
                info.path,
                edge.lineno,
                f"{info.name} (layer {source_rank}) eagerly imports "
                f"{target} (layer {target_rank}); defer the import "
                "or invert the dependency",
                evidence=[
                    Evidence(info.path, edge.lineno, "eager import site"),
                    Evidence(
                        index.modules[target].path,
                        1,
                        f"layer-{target_rank} target",
                    ),
                ],
            )


class ImportCycleRule(ProgramRule):
    """RA102: the eager import graph must stay a DAG."""

    id = "RA102"
    title = "import cycle"
    hint = (
        "break the cycle by moving the shared definition into a lower "
        "module or deferring one direction into a function body"
    )

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        for cycle in index.import_cycles():
            anchor = index.modules[cycle[0]]
            # Evidence: one import site per participating module.
            evidence = []
            members = set(cycle)
            for name in cycle:
                info = index.modules[name]
                for edge in info.imports:
                    if edge.deferred:
                        continue
                    hits = [
                        t
                        for t in sorted(index.resolved_targets(edge))
                        if t in members and t != name
                    ]
                    if hits:
                        evidence.append(
                            Evidence(
                                info.path,
                                edge.lineno,
                                f"{name} -> {hits[0]}",
                            )
                        )
                        break
            yield self.finding(
                anchor.path,
                1,
                "eager import cycle: " + " -> ".join(cycle + [cycle[0]]),
                evidence=evidence,
            )


class DeadModuleRule(ProgramRule):
    """RA103: every module must be imported by something (or be a root)."""

    id = "RA103"
    title = "dead module"
    hint = (
        "delete the module, or wire it into the package (re-export from "
        "the subpackage __init__); entry points (cli, __main__) and "
        "package __init__ modules are exempt"
    )

    _EXEMPT_SUBPACKAGES = ("cli", "__main__")

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        for info in index.modules.values():
            if info.is_package:
                continue
            sub = index.subpackage_of(info.name)
            if sub in self._EXEMPT_SUBPACKAGES or sub == index.package:
                continue
            if index.importers_of(info.name):
                continue
            yield self.finding(
                info.path,
                1,
                f"module {info.name} is never imported (dead subtree?)",
            )


def _deprecated_methods(info) -> Dict[str, Tuple[str, int]]:
    """``method name -> (class, lineno)`` for deprecation-marked methods.

    A method counts as deprecated when its docstring says so or its body
    calls a ``*deprecated*`` helper — the two conventions this repo uses.
    """
    out: Dict[str, Tuple[str, int]] = {}
    for stmt in info.tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for item in stmt.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(item) or ""
            marked = "deprecated" in doc.lower()
            if not marked:
                for node in ast.walk(item):
                    if isinstance(node, ast.Call):
                        callee = node.func
                        name = getattr(
                            callee, "id", getattr(callee, "attr", "")
                        )
                        if "deprecated" in name.lower():
                            marked = True
                            break
            if marked:
                out[item.name] = (stmt.name, item.lineno)
    return out


class DeadSymbolRule(ProgramRule):
    """RA104: public symbols must be referenced somewhere in the program.

    Reachability is the conservative name-based approximation of
    :meth:`ProgramIndex.used_names` — any name load, attribute use,
    import, ``__all__`` entry or getattr literal anywhere counts, so a
    module's ``__all__`` declaration is the sanctioned way to mark
    intended API the program itself does not call.

    Scope is deliberately narrow: top-level functions and classes, plus
    methods that are explicitly *deprecated* (docstring or a
    ``*deprecated*`` helper call). General method liveness over a
    name-based approximation is too noisy to gate a build on; a
    deprecated method nothing references is exactly the dead code the
    deprecation was waiting to delete.
    """

    id = "RA104"
    title = "unreferenced public symbol"
    hint = (
        "delete the symbol, or declare it in the module's __all__ if it "
        "is intended API for external surfaces (tests, embedding code)"
    )

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        used = index.used_names()
        for info in index.modules.values():
            if info.is_package:
                continue
            for name, symbol in sorted(info.symbols.items()):
                if name.startswith("_") or name in ("main",):
                    continue
                if symbol.kind not in ("function", "class"):
                    continue
                if name not in used:
                    yield self.finding(
                        info.path,
                        symbol.lineno,
                        f"public {symbol.kind} {name!r} is never "
                        "referenced anywhere in the program",
                    )
            for method, (cls, lineno) in sorted(
                _deprecated_methods(info).items()
            ):
                if method.startswith("_") or method in used:
                    continue
                yield self.finding(
                    info.path,
                    lineno,
                    f"deprecated method {cls}.{method}() is never called "
                    "anywhere in the program; delete it",
                )


ARCH_RULES = (
    LayeringRule(),
    ImportCycleRule(),
    DeadModuleRule(),
    DeadSymbolRule(),
)
