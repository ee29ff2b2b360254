"""Project-wide symbol table and call graph for whole-program rules.

The graph is deliberately lightweight — the same trade the syntax rules
make.  Nodes are **module-level** functions (methods are opaque: a
``self.f()`` call never creates an edge), plus one pseudo-node per
module (``pkg.mod.<module>``) holding the calls made by import-time
statements.  Edges come in two kinds:

- ``call`` — a direct call whose callee expression resolves, through
  the project's imports and re-exports, to a known function symbol;
- ``ref`` — a one-hop-indirect edge: the function is *referenced* in a
  load position without being called (passed to ``pool.submit``,
  registered as a handler, stored in a table).  Reachability follows
  these by default because a referenced function is one dispatch away
  from running.

Name resolution reuses the per-module binding discipline of
:class:`~repro.analysis.visitors.ImportMap` and extends it with
relative imports, class symbols, module-level ``alias = fn``
re-binds, and re-exports through package ``__init__`` modules
(``from pkg import fn`` where ``pkg/__init__.py`` itself does
``from pkg.impl import fn`` canonicalizes to ``pkg.impl.fn``), with a
cycle guard so mutually re-exporting packages terminate.

:func:`reachable_from` is a pure BFS over an edge mapping so property
tests can exercise monotonicity without building a project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.analysis.model import ParsedModule, Project
from repro.analysis.visitors import attribute_chain

__all__ = [
    "FunctionInfo",
    "Edge",
    "CallGraph",
    "get_callgraph",
    "reachable_from",
    "MODULE_SCOPE",
]

#: Suffix of the pseudo-node holding a module's import-time statements.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One module-level function symbol."""

    qualname: str  # "pkg.mod.fn" or "pkg.mod.<module>"
    module: str    # "pkg.mod"
    name: str      # "fn"
    line: int


@dataclass(frozen=True)
class Edge:
    """A resolved caller -> callee relationship."""

    caller: str
    callee: str
    line: int
    kind: str  # "call" | "ref"


def reachable_from(
    edges: Mapping[str, Iterable[str]], roots: Iterable[str]
) -> frozenset[str]:
    """Pure BFS closure: every node reachable from ``roots`` (inclusive).

    Monotone in both arguments — adding an edge or a root can only grow
    the result (the property test pins this).
    """
    seen: set[str] = set(roots)
    frontier = list(seen)
    while frontier:
        node = frontier.pop()
        for succ in edges.get(node, ()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return frozenset(seen)


def _scope_locals(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name bound anywhere inside ``func`` (params included)."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            args = node.args
            names.update(
                a.arg
                for a in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs,
                    *((args.vararg,) if args.vararg else ()),
                    *((args.kwarg,) if args.kwarg else ()),
                )
            )
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    # ``global x`` un-shadows: the name refers to module scope again.
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names.difference_update(node.names)
    return names


class _ScopeScanner(ast.NodeVisitor):
    """Collect call/ref edges for one scope (function or module body)."""

    def __init__(
        self, graph: "CallGraph", module_name: str,
        caller: str, locals_: set[str],
    ) -> None:
        self.graph = graph
        self.module_name = module_name
        self.caller = caller
        self.locals = locals_
        self.edges: list[Edge] = []

    def _resolve(self, expr: ast.expr) -> str | None:
        chain = attribute_chain(expr)
        if chain is None or chain[0] in self.locals:
            return None
        return self.graph.resolve(self.module_name, chain)

    def _emit(self, target: str | None, line: int, kind: str) -> None:
        if target is not None and target in self.graph.functions:
            self.edges.append(Edge(self.caller, target, line, kind))

    def visit_Call(self, node: ast.Call) -> None:
        target = self._resolve(node.func)
        self._emit(target, node.lineno, "call")
        if attribute_chain(node.func) is None:
            self.visit(node.func)  # e.g. f(x)(y): scan the inner call
        for arg in node.args:
            self.visit(arg)
        for kw in node.keywords:
            self.visit(kw.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            target = self._resolve(node)
            if target is not None and target in self.graph.functions:
                self._emit(target, node.lineno, "ref")
                return  # the whole chain was the reference
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._emit(self._resolve(node), node.lineno, "ref")


@dataclass
class CallGraph:
    """Symbol table + edges for every module in a project's src tree."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)
    #: module -> local name -> dotted target (pre-canonicalization)
    bindings: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._succ: dict[str, tuple[str, ...]] | None = None
        self._succ_calls: dict[str, tuple[str, ...]] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        for module in project.modules:
            graph._index_module(module)
        for module in project.modules:
            graph._scan_module(module)
        return graph

    def _index_module(self, module: ParsedModule) -> None:
        binds: dict[str, str] = {}
        pending_aliases: list[tuple[str, str]] = []
        # Imports bind wherever they appear — function-local imports are
        # the project idiom for breaking cycles, so walk the whole tree
        # (matching ``ImportMap`` semantics).
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        binds[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        binds[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    binds[local] = f"{base}.{alias.name}"
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.name}.{node.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual,
                    module=module.name,
                    name=node.name,
                    line=node.lineno,
                )
                binds[node.name] = qual
            elif isinstance(node, ast.ClassDef):
                binds[node.name] = f"{module.name}.{node.name}"
            elif isinstance(node, ast.Assign):
                # module-level ``alias = fn`` re-binds (resolved below,
                # once every module's primary bindings exist).
                if (
                    len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Name)
                ):
                    pending_aliases.append(
                        (node.targets[0].id, node.value.id)
                    )
        for local, source in pending_aliases:
            if source in binds and local not in binds:
                binds[local] = binds[source]
        mod_scope = f"{module.name}.{MODULE_SCOPE}"
        self.functions[mod_scope] = FunctionInfo(
            qualname=mod_scope,
            module=module.name,
            name=MODULE_SCOPE,
            line=1,
        )
        self.bindings[module.name] = binds

    @staticmethod
    def _import_base(
        module: ParsedModule, node: ast.ImportFrom
    ) -> str | None:
        """Absolute module a ``from ... import`` pulls names out of."""
        if not node.level:
            return node.module
        base = module.package
        for _ in range(node.level - 1):
            if not base:
                return None
            base = base.rpartition(".")[0]
        if not base:
            return None
        return f"{base}.{node.module}" if node.module else base

    def _scan_module(self, module: ParsedModule) -> None:
        mod_scope = f"{module.name}.{MODULE_SCOPE}"
        seen: set[tuple[str, str, str]] = set()

        def _collect(caller: str, nodes: Iterable[ast.stmt],
                     locals_: set[str]) -> None:
            scanner = _ScopeScanner(self, module.name, caller, locals_)
            for stmt in nodes:
                scanner.visit(stmt)
            for edge in scanner.edges:
                key = (edge.caller, edge.callee, edge.kind)
                if key not in seen:
                    seen.add(key)
                    self.edges.append(edge)

        body_stmts: list[ast.stmt] = []
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _collect(
                    f"{module.name}.{node.name}",
                    node.body,
                    _scope_locals(node),
                )
            elif isinstance(node, ast.ClassDef):
                continue  # methods are opaque (no ``self`` resolution)
            else:
                body_stmts.append(node)
        _collect(mod_scope, body_stmts, set())
        self._succ = None
        self._succ_calls = None

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def resolve(
        self, module_name: str, chain: list[str] | str
    ) -> str | None:
        """Canonical dotted path of ``chain`` as seen from ``module_name``.

        Returns a function/class symbol when the path lands on one,
        an external dotted path (``"time.sleep"``) when the root is an
        imported third-party name, or ``None`` when the root is not
        bound at module scope.
        """
        parts = chain.split(".") if isinstance(chain, str) else list(chain)
        if not parts:
            return None
        binds = self.bindings.get(module_name, {})
        root = binds.get(parts[0])
        if root is None:
            return None
        return self.canonical(".".join([root, *parts[1:]]))

    def canonical(self, dotted: str) -> str:
        """Follow re-exports until the path stops moving."""
        seen: set[str] = set()
        while dotted not in self.functions and dotted not in seen:
            seen.add(dotted)
            parts = dotted.split(".")
            moved = False
            for i in range(len(parts) - 1, 0, -1):
                mod = ".".join(parts[:i])
                binds = self.bindings.get(mod)
                if binds is None:
                    continue
                bound = binds.get(parts[i])
                if bound is not None:
                    nxt = ".".join([bound, *parts[i + 1:]])
                    if nxt not in seen:
                        dotted = nxt
                        moved = True
                break
            if not moved:
                break
        return dotted

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def successors(self, *, refs: bool = True) -> dict[str, tuple[str, ...]]:
        cached = self._succ if refs else self._succ_calls
        if cached is not None:
            return cached
        succ: dict[str, list[str]] = {}
        for edge in self.edges:
            if not refs and edge.kind != "call":
                continue
            succ.setdefault(edge.caller, []).append(edge.callee)
        out = {k: tuple(v) for k, v in succ.items()}
        if refs:
            self._succ = out
        else:
            self._succ_calls = out
        return out

    def reachable(
        self, roots: Iterable[str], *, refs: bool = True
    ) -> frozenset[str]:
        """Functions reachable from ``roots`` (inclusive)."""
        return reachable_from(self.successors(refs=refs), roots)

    def witness_paths(
        self, roots: Iterable[str], *, refs: bool = True
    ) -> dict[str, str]:
        """Map each reachable function to the root that first found it."""
        succ = self.successors(refs=refs)
        origin: dict[str, str] = {}
        frontier: list[str] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                frontier.append(root)
        while frontier:
            node = frontier.pop(0)
            for nxt in succ.get(node, ()):
                if nxt not in origin:
                    origin[nxt] = origin[node]
                    frontier.append(nxt)
        return origin

    def function_node(
        self, project: Project, qualname: str
    ) -> tuple[ParsedModule | None, ast.FunctionDef | ast.AsyncFunctionDef | None]:
        """The (module, def node) behind a function symbol."""
        info = self.functions.get(qualname)
        if info is None or info.name == MODULE_SCOPE:
            return None, None
        module = project.module_by_name.get(info.module)
        if module is None:
            return None, None
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == info.name
                and node.lineno == info.line
            ):
                return module, node
        return module, None


_GRAPH_ATTR = "_massf_callgraph"


def get_callgraph(project: Project) -> CallGraph:
    """Build (once) and cache the call graph on the project."""
    cached = getattr(project, _GRAPH_ATTR, None)
    if cached is None:
        cached = CallGraph.build(project)
        setattr(project, _GRAPH_ATTR, cached)
    return cached  # type: ignore[no-any-return]
