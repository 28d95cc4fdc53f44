"""The shared whole-program index every analysis pass runs over.

A :class:`ProgramIndex` is built once per lint run from the set of files
being analyzed: each module is parsed to an AST exactly once, imports are
resolved against the package being indexed (absolute ``repro.x.y`` and
relative ``from ..obs import trace`` forms both land on dotted module
names), and a symbol table records every top-level class/function/constant
together with the program-wide *usage* sets (name loads, attribute names,
``getattr`` literals, ``__all__`` strings) that the dead-code rules
approximate reachability with.

The index is deliberately syntactic — no imports are executed. Passes
(:mod:`repro.analysis.arch`, :mod:`repro.analysis.concurrency`) consume
it through a handful of derived views: the eager import graph
(module-level imports only, the edges that run at import time), the full
import graph (eager + deferred), a call-site approximation (function →
called names), and per-module source lines so whole-program findings
still honor line-level ``# repro: noqa`` suppressions.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    """One resolved import statement."""

    source: str  #: importing module (dotted)
    target: str  #: imported module (dotted; package-internal or external)
    names: Tuple[str, ...]  #: names pulled in (empty for ``import x``)
    lineno: int
    deferred: bool  #: inside a function/method body (runs at call time)


@dataclasses.dataclass
class SymbolInfo:
    """One top-level symbol of a module."""

    name: str
    kind: str  #: "class" | "function" | "assign"
    lineno: int
    #: public methods for classes: name -> lineno
    methods: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: base-class expressions (dotted where resolvable) for classes
    bases: Tuple[str, ...] = ()


@dataclasses.dataclass
class ModuleInfo:
    """Everything the passes need to know about one parsed module."""

    name: str  #: dotted module name ("repro.serve.service")
    path: str  #: path as given to the linter (posix)
    tree: ast.Module
    lines: List[str]
    is_package: bool  #: an ``__init__.py``
    imports: List[ImportEdge] = dataclasses.field(default_factory=list)
    symbols: Dict[str, SymbolInfo] = dataclasses.field(default_factory=dict)
    export_all: Optional[Tuple[str, ...]] = None  #: ``__all__`` if literal
    #: names read anywhere in the module (ast.Name loads)
    name_loads: Set[str] = dataclasses.field(default_factory=set)
    #: attribute names used anywhere in the module (``x.attr`` → "attr")
    attr_uses: Set[str] = dataclasses.field(default_factory=set)
    #: string literals in getattr/hasattr calls and ``__all__`` lists
    string_refs: Set[str] = dataclasses.field(default_factory=set)
    #: function qualname -> set of called names (call-site approximation;
    #: an attribute call ``a.b.c(...)`` is recorded as "c")
    calls: Dict[str, Set[str]] = dataclasses.field(default_factory=dict)


def module_name_for(path: Path, package: str = "repro") -> str:
    """Dotted module name for ``path``, anchored at the ``package`` dir.

    Files outside any ``package`` directory fall back to their stem, so
    fixture trees and scratch files still index (their imports simply
    resolve as external).
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if package in parts:
        anchor = len(parts) - 1 - parts[::-1].index(package)
        return ".".join(parts[anchor:]) or package
    return parts[-1] if parts else str(path)


def _resolve_relative(module: ModuleInfo, node: ast.ImportFrom) -> Optional[str]:
    """Dotted target of a relative import, or ``None`` when it escapes."""
    base = module.name.split(".")
    if not module.is_package:
        base = base[:-1]
    # level=1 is "current package"; each extra level pops one more.
    drop = node.level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


class _ModuleVisitor(ast.NodeVisitor):
    """Single traversal collecting imports, symbols, usages and calls."""

    def __init__(self, info: ModuleInfo):
        self.info = info
        self._func_stack: List[str] = []
        self._class_stack: List[str] = []

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.info.imports.append(
                ImportEdge(
                    source=self.info.name,
                    target=alias.name,
                    names=(),
                    lineno=node.lineno,
                    deferred=bool(self._func_stack),
                )
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            target = _resolve_relative(self.info, node)
        else:
            target = node.module
        if target is not None:
            self.info.imports.append(
                ImportEdge(
                    source=self.info.name,
                    target=target,
                    names=tuple(alias.name for alias in node.names),
                    lineno=node.lineno,
                    deferred=bool(self._func_stack),
                )
            )
        self.generic_visit(node)

    # -- symbols --------------------------------------------------------
    def _qualname(self, name: str) -> str:
        return ".".join(self._class_stack + self._func_stack + [name])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self._class_stack and not self._func_stack:
            methods = {
                stmt.name: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            self.info.symbols[node.name] = SymbolInfo(
                name=node.name,
                kind="class",
                lineno=node.lineno,
                methods=methods,
                bases=tuple(_dotted(b) for b in node.bases),
            )
        self._class_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._class_stack.pop()

    def _visit_function(self, node) -> None:
        if not self._class_stack and not self._func_stack:
            self.info.symbols[node.name] = SymbolInfo(
                name=node.name, kind="function", lineno=node.lineno
            )
        self._func_stack.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._class_stack and not self._func_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        self.info.export_all = _string_tuple(node.value)
                        if self.info.export_all:
                            self.info.string_refs.update(self.info.export_all)
                    elif target.id not in self.info.symbols:
                        self.info.symbols[target.id] = SymbolInfo(
                            name=target.id, kind="assign", lineno=node.lineno
                        )
        self.generic_visit(node)

    # -- usage sets -----------------------------------------------------
    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.info.name_loads.add(node.id)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.info.attr_uses.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        called: Optional[str] = None
        if isinstance(func, ast.Name):
            called = func.id
            if func.id in ("getattr", "hasattr", "setattr") and len(node.args) >= 2:
                literal = node.args[1]
                if isinstance(literal, ast.Constant) and isinstance(
                    literal.value, str
                ):
                    self.info.string_refs.add(literal.value)
        elif isinstance(func, ast.Attribute):
            called = func.attr
        if called is not None:
            scope = ".".join(self._class_stack + self._func_stack) or "<module>"
            self.info.calls.setdefault(scope, set()).add(called)
        self.generic_visit(node)


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted rendering of a base-class expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return "?"


def _string_tuple(node: ast.AST) -> Optional[Tuple[str, ...]]:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            else:
                return None
        return tuple(out)
    return None


class ProgramIndex:
    """Parsed modules plus the derived graphs the passes query.

    Build once per run with :meth:`build` (from paths) or
    :meth:`from_sources` (tests). Modules that fail to parse are recorded
    in :attr:`errors` and skipped; the passes see the parseable subset.
    """

    def __init__(self, package: str = "repro"):
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.errors: List[Tuple[str, str]] = []

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        paths: Iterable[Path],
        package: str = "repro",
    ) -> "ProgramIndex":
        index = cls(package=package)
        for path in paths:
            rel = Path(path).as_posix()
            try:
                source = Path(path).read_text(encoding="utf-8")
            except OSError as exc:
                index.errors.append((rel, f"unreadable: {exc}"))
                continue
            index.add_source(rel, source)
        return index

    @classmethod
    def from_sources(
        cls, sources: Dict[str, str], package: str = "repro"
    ) -> "ProgramIndex":
        """Index an in-memory ``{path: source}`` mapping (test fixtures)."""
        index = cls(package=package)
        for path, source in sources.items():
            index.add_source(path, source)
        return index

    def add_source(self, path: str, source: str) -> Optional[ModuleInfo]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.errors.append((path, f"syntax error: {exc}"))
            return None
        name = module_name_for(Path(path), self.package)
        info = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            lines=source.splitlines(),
            is_package=Path(path).name == "__init__.py",
        )
        _ModuleVisitor(info).visit(tree)
        self.modules[name] = info
        self.by_path[path] = info
        return info

    # -- derived views --------------------------------------------------
    def internal_target(self, target: str) -> Optional[str]:
        """Map an import target onto an indexed module name (or ``None``).

        ``repro.serve.worker`` hits that module directly;
        ``repro.serve.worker.spawn_worker`` (symbol import) falls back to
        the longest indexed prefix.
        """
        parts = target.split(".")
        while parts:
            name = ".".join(parts)
            if name in self.modules:
                return name
            parts.pop()
        return None

    def import_graph(self, deferred: bool = False) -> Dict[str, Set[str]]:
        """``module -> imported internal modules`` (eager only by default).

        Edges onto an *ancestor package* of the importer are dropped:
        ``from . import init`` inside ``repro.autograd.conv`` names the
        parent package, but Python already imported that package to reach
        ``conv`` at all — the edge is implicit in every submodule and
        would make every package a trivial "cycle" with its children.
        """
        graph: Dict[str, Set[str]] = {name: set() for name in self.modules}
        for info in self.modules.values():
            for edge in info.imports:
                if edge.deferred and not deferred:
                    continue
                for resolved in self.resolved_targets(edge):
                    if resolved == info.name:
                        continue
                    if info.name.startswith(resolved + "."):
                        continue
                    graph[info.name].add(resolved)
        return graph

    def resolved_targets(self, edge: ImportEdge) -> Set[str]:
        """Indexed modules one import edge lands on.

        The bare target plus — for ``from pkg import name`` forms — each
        imported name resolved as a submodule (``from repro.serve import
        worker`` is an edge onto ``repro.serve.worker``, not just the
        package).
        """
        out: Set[str] = set()
        direct = self.internal_target(edge.target)
        if direct is not None:
            out.add(direct)
        for imported in edge.names:
            sub = self.internal_target(f"{edge.target}.{imported}")
            if sub is not None:
                out.add(sub)
        return out

    def import_cycles(self) -> List[List[str]]:
        """Eager-import cycles (each as a module list), via Tarjan SCC."""
        graph = self.import_graph(deferred=False)
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        number: Dict[str, int] = {}
        on_stack: Set[str] = set()
        cycles: List[List[str]] = []

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion depth would otherwise track the
            # import-chain depth of the package.
            work = [(node, iter(sorted(graph.get(node, ()))))]
            number[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, edges = work[-1]
                advanced = False
                for nxt in edges:
                    if nxt not in number:
                        number[nxt] = lowlink[nxt] = index_counter[0]
                        index_counter[0] += 1
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(sorted(graph.get(nxt, ())))))
                        advanced = True
                        break
                    if nxt in on_stack:
                        lowlink[current] = min(lowlink[current], number[nxt])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[current])
                if lowlink[current] == number[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        cycles.append(sorted(component))
                    elif component and component[0] in graph.get(
                        component[0], ()
                    ):
                        cycles.append(component)

        for name in sorted(graph):
            if name not in number:
                strongconnect(name)
        return cycles

    def used_names(self) -> Set[str]:
        """Every identifier the program references anywhere.

        The union of name loads, attribute names, getattr/__all__ string
        literals and imported symbol names — the conservative "is this
        symbol reachable" approximation the dead-code rules test against.
        """
        used: Set[str] = set()
        for info in self.modules.values():
            used |= info.name_loads
            used |= info.attr_uses
            used |= info.string_refs
            for edge in info.imports:
                used.update(edge.names)
        return used

    def importers_of(self, module: str) -> List[ImportEdge]:
        """Every import edge (eager or deferred) landing on ``module``."""
        edges = []
        for info in self.modules.values():
            if info.name == module:
                continue
            for edge in info.imports:
                resolved = self.internal_target(edge.target)
                if resolved == module:
                    edges.append(edge)
                    continue
                for imported in edge.names:
                    if (
                        self.internal_target(f"{edge.target}.{imported}")
                        == module
                    ):
                        edges.append(edge)
                        break
        return edges

    def functions_containing_call(self, called: str) -> List[Tuple[ModuleInfo, str]]:
        """``(module, function qualname)`` pairs whose body calls ``called``."""
        out = []
        for info in self.modules.values():
            for scope, names in info.calls.items():
                if called in names:
                    out.append((info, scope))
        return out

    def lines_for(self, path: str) -> List[str]:
        info = self.by_path.get(path)
        return info.lines if info is not None else []

    def subpackage_of(self, module: str) -> str:
        """Top-level subpackage of a package-internal module name."""
        parts = module.split(".")
        if parts[0] != self.package:
            return parts[0]
        return parts[1] if len(parts) > 1 else self.package


def render_deps(
    index: ProgramIndex, dot: bool = False, collapse: bool = True
) -> str:
    """Render the eager import graph, collapsed to top-level subpackages.

    ``dot=True`` emits Graphviz; otherwise an aligned adjacency listing.
    ``collapse=False`` keeps full module granularity.
    """
    graph = index.import_graph(deferred=False)
    if collapse:
        agg: Dict[str, Set[str]] = {}
        for source, targets in graph.items():
            s = index.subpackage_of(source)
            for target in targets:
                t = index.subpackage_of(target)
                if s != t:
                    agg.setdefault(s, set()).add(t)
                else:
                    agg.setdefault(s, set())
        graph = agg
    if dot:
        lines = ["digraph repro_deps {", "  rankdir=BT;"]
        for source in sorted(graph):
            if not graph[source]:
                lines.append(f'  "{source}";')
            for target in sorted(graph[source]):
                lines.append(f'  "{source}" -> "{target}";')
        lines.append("}")
        return "\n".join(lines)
    lines = []
    width = max((len(s) for s in graph), default=0)
    for source in sorted(graph):
        targets = ", ".join(sorted(graph[source])) or "-"
        lines.append(f"{source:<{width}s} -> {targets}")
    return "\n".join(lines)
