"""Parallel-safety rule for functions crossing process boundaries.

Work dispatched through a ``ProcessPoolExecutor.submit`` call crosses
the process boundary by *name*: the child re-imports the module and
looks the function up.  Two things therefore must hold for every
dispatched function:

- it must be **module-level** — a lambda or closure either fails to
  pickle or, worse, silently rebinds over fork;
- it must **not mutate module globals** — under ``fork`` each worker
  gets a copy-on-write snapshot, so writes diverge per worker and the
  parent never sees them; results then depend on which worker ran the
  item.  (Read-only module globals — the whole point of the fork-shared
  design — are fine.)

The same discipline extends to the mapping service: request handlers
registered through :func:`repro.service.handlers.register_handler` run
concurrently on worker *threads* against shared warm state.  Registered
handlers therefore get the identical checks — module-level only, no
module-global mutation (shared state goes through the
:class:`~repro.service.warm.WarmCache` lock).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.callgraph import CallGraph, get_callgraph
from repro.analysis.model import Finding, ParsedModule, Project
from repro.analysis.registry import Rule, register
from repro.analysis.visitors import (
    ImportMap,
    attribute_chain,
    imported_target,
    iter_calls,
    module_level_functions,
    module_level_names,
    nested_functions,
)

__all__ = ["ParallelSafetyRule"]

#: Receiver names that read as executors/pools even when their origin
#: cannot be traced (parameters, attributes).
_POOL_NAME_RE = re.compile(r"(^|_)(pool|executor)s?$", re.IGNORECASE)

#: Constructor origins that produce executors.
_POOL_ORIGINS = (
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
)


def _origin_is_pool(origin: str | None) -> bool:
    if origin is None:
        return False
    return any(
        origin == suffix.lstrip(".") or origin.endswith(suffix)
        for suffix in _POOL_ORIGINS
    )


def resolves_to_pool(
    receiver: ast.expr, origins: dict[str, str | None]
) -> bool:
    """True when ``receiver`` is plausibly an executor/pool object.

    ``origins`` maps names to the dotted origin of their (module- or
    function-scope) binding; a receiver resolves to a pool when its
    origin is a known pool constructor, or — for
    untraceable receivers — when its name says so (``pool``,
    ``executor``, ``self._pool``).  A ``job.submit(...)`` therefore no
    longer trips the check just because the method is called "submit".
    """
    if isinstance(receiver, ast.Name):
        origin = origins.get(receiver.id)
        if origin is not None:
            return _origin_is_pool(origin)
        return bool(_POOL_NAME_RE.search(receiver.id))
    if isinstance(receiver, ast.Attribute):
        return bool(_POOL_NAME_RE.search(receiver.attr))
    return False


def pool_dispatch_method(
    node: ast.AST, origins: dict[str, str | None]
) -> str | None:
    """``"map"`` / ``"submit"`` when ``node`` calls that method on a
    receiver that resolves to a pool; ``None`` otherwise."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("map", "submit")
        and resolves_to_pool(node.func.value, origins)
    ):
        return node.func.attr
    return None


def module_pool_origins(
    module: ParsedModule, graph: CallGraph | None = None
) -> dict[str, str | None]:
    """Name -> origin for every simple assignment anywhere in a module.

    Scope-blind on purpose: a linter only needs "was this name ever
    bound to a pool constructor in this file", and names rarely mean
    two things in one module.
    """
    origins: dict[str, str | None] = {}
    for node in ast.walk(module.tree):
        value: ast.expr | None = None
        names: list[str] = []
        if isinstance(node, ast.Assign):
            value = node.value
            names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = node.value
            if isinstance(node.target, ast.Name):
                names = [node.target.id]
        if value is None or not names:
            continue
        if isinstance(value, ast.Call):
            chain = attribute_chain(value.func)
            if chain is None:
                continue
            dotted = None
            if graph is not None:
                dotted = graph.resolve(module.name, chain)
            origin = dotted or ".".join(chain)
        else:
            chain = attribute_chain(value)
            if chain is None:
                continue
            origin = ".".join(chain)
        for name in names:
            # First binding wins: constructors sit above reassignment
            # churn, and "ever bound to a pool" is the question.
            if _origin_is_pool(origin) or name not in origins:
                origins[name] = origin
    return origins


#: Canonical dotted names whose *second* positional argument is a
#: callable run concurrently by service worker threads.
_REGISTRARS = {
    "repro.service.handlers.register_handler",
}


def _registered_callable(call: ast.Call) -> ast.expr | None:
    """The callable argument of a ``register_handler(kind, fn)`` call."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "fn":
            return kw.value
    return None


def _is_pool_submit(
    call: ast.Call, origins: dict[str, str | None]
) -> bool:
    """``pool.submit(fn, ...)`` where the receiver is actually a pool.

    Matching any ``.submit(...)`` by method name alone flagged every
    object with a submit method (``JobQueue.submit`` had to be renamed
    ``offer`` to dodge it); the receiver must now resolve to an
    executor/pool — by construction origin in this module or by an
    unambiguous name (``pool``, ``executor``, ``self._pool``).
    """
    return (
        bool(call.args)
        and pool_dispatch_method(call, origins) == "submit"
    )


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameters plus names assigned inside ``func``."""
    args = func.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *((args.vararg,) if args.vararg else ()),
            *((args.kwarg,) if args.kwarg else ()),
        )
    }
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _store_root(target: ast.expr) -> str | None:
    """Root name of an attribute/subscript store target."""
    node = target
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class ParallelSafetyRule(Rule):
    id = "parallel-safety"
    description = (
        "functions dispatched through pool.submit must "
        "be module-level and must not mutate module globals — "
        "transitively through every project function they call"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        checked: set[str] = set()
        for module in project.modules:
            imports = ImportMap.from_tree(module.tree)
            origins = module_pool_origins(module, graph)
            top = module_level_functions(module.tree)
            nested = nested_functions(module.tree)
            for call in iter_calls(module.tree):
                target = imported_target(call.func, imports)
                fn_node: ast.expr | None = None
                forked = True
                if (
                    target in _REGISTRARS or (
                        isinstance(call.func, ast.Name)
                        and call.func.id == "register_handler"
                        and "register_handler" in top
                    )
                ):
                    fn_node = _registered_callable(call)
                    # Handlers run on worker *threads*: module-global
                    # writes stay visible, so only the handler itself
                    # is checked, not its callees.
                    forked = False
                if fn_node is None and _is_pool_submit(call, origins):
                    fn_node = call.args[0]
                if fn_node is None:
                    continue
                yield from self._check_dispatch(
                    project, graph, module, fn_node, top, nested,
                    checked, transitive=forked,
                )

    def _check_dispatch(
        self,
        project: Project,
        graph: CallGraph,
        module: ParsedModule,
        fn_node: ast.expr,
        top: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        nested: set[str],
        checked: set[str],
        *,
        transitive: bool = True,
    ) -> Iterator[Finding]:
        if isinstance(fn_node, ast.Lambda):
            yield self.finding(
                module,
                fn_node,
                "lambda dispatched to a worker pool; workers resolve "
                "the function by module-level name — define it at "
                "module scope",
            )
            return
        if isinstance(fn_node, ast.Name):
            name = fn_node.id
            if name not in top and name in nested:
                yield self.finding(
                    module,
                    fn_node,
                    f"`{name}` is defined inside a function but is "
                    "dispatched to a worker pool; move it to module "
                    "scope so child processes can import it",
                )
                return
            yield from self._check_transitive(
                project, graph, module, name, checked,
                transitive=transitive,
            )
            return
        # Attribute access (mod.fn) resolves through the call graph
        # like a name; anything else (a parameter, an item lookup) is
        # opaque and left to the runtime's own checks.
        chain = attribute_chain(fn_node)
        if chain is not None and len(chain) > 1:
            yield from self._check_transitive(
                project, graph, module, chain, checked,
                transitive=transitive,
            )

    def _check_transitive(
        self,
        project: Project,
        graph: CallGraph,
        module: ParsedModule,
        ref: str | list[str],
        checked: set[str],
        *,
        transitive: bool = True,
    ) -> Iterator[Finding]:
        """Mutation-check the dispatched function and every project
        function it (transitively) calls, each in its own module."""
        chain = [ref] if isinstance(ref, str) else ref
        qualname = graph.resolve(module.name, chain)
        if qualname is None or qualname not in graph.functions:
            return
        closure = (
            graph.reachable([qualname], refs=False)
            if transitive else frozenset({qualname})
        )
        for reached in sorted(closure):
            if reached in checked:
                continue
            checked.add(reached)
            target_mod, fn = graph.function_node(project, reached)
            if target_mod is None or fn is None:
                continue
            via = (
                "" if reached == qualname
                else f" (called from dispatched `{qualname}`)"
            )
            for finding in self._check_mutation(target_mod, fn):
                yield Finding(
                    rule=finding.rule,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    message=finding.message + via,
                    severity=finding.severity,
                )

    def _check_mutation(
        self,
        module: ParsedModule,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Finding]:
        declared_global: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        locals_ = _local_names(func) - declared_global
        module_names = module_level_names(module.tree)
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    yield self.finding(
                        module,
                        node,
                        f"worker function `{func.name}` writes module "
                        f"global `{target.id}`; the write is lost in "
                        "forked children and makes results depend on "
                        "worker scheduling",
                    )
                    continue
                root = _store_root(target)
                if (
                    root is not None
                    and not isinstance(target, ast.Name)
                    and root not in locals_
                    and root in module_names
                ):
                    yield self.finding(
                        module,
                        node,
                        f"worker function `{func.name}` mutates "
                        f"module-level object `{root}`; fork-shared "
                        "state must stay read-only in workers",
                    )


register(ParallelSafetyRule())
