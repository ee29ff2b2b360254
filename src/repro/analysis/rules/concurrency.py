"""Whole-program concurrency rule built on the call graph.

``asyncio-blocking`` encodes one invariant the service layer relies on
but cannot express in types: nothing reachable from an ``async def`` in
``repro.service`` may block the event loop (``time.sleep``, bare
``open``, sockets, ``subprocess``, pool dispatch).  Handlers that the
service runs on worker *threads* (registered via ``register_handler``)
are exempt: traversal never enters them.
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
    is_bare_builtin,
)

__all__ = [
    "AsyncioBlockingRule",
    "pool_dispatch_method",
]

# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #

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


def _module_of(graph: CallGraph, project: Project, qualname: str):
    return graph.function_node(project, qualname)


# --------------------------------------------------------------------- #
# asyncio-blocking
# --------------------------------------------------------------------- #

#: Canonical call targets that block the calling thread.
_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() blocks the event loop",
    "os.system": "os.system() blocks the event loop",
    "urllib.request.urlopen": "urlopen() does blocking network I/O",
    "socket.socket": "raw sockets block; use asyncio streams",
    "socket.create_connection": "blocking connect; use asyncio streams",
    "socket.getaddrinfo": "blocking DNS lookup on the event loop",
    "requests.get": "requests does blocking HTTP",
    "requests.post": "requests does blocking HTTP",
}

_BLOCKING_PREFIXES = {
    "subprocess.": "subprocess spawns block the event loop",
}


class AsyncioBlockingRule(Rule):
    id = "asyncio-blocking"
    description = (
        "no blocking calls (time.sleep, file/socket I/O, subprocess, "
        "pool dispatch) reachable from async service coroutines; "
        "thread-dispatched handlers are exempt"
    )

    #: Module prefix whose ``async def`` symbols anchor the traversal.
    service_prefix = "repro.service"

    def run(self, project: Project) -> Iterator[Finding]:
        graph = get_callgraph(project)
        entries = graph.async_functions(self.service_prefix)
        if not entries:
            return
        handlers = graph.registered_handlers(project)
        witness = graph.witness_paths(entries, blocked=handlers)
        seen: set[tuple[str, int, str]] = set()
        for qualname in sorted(witness):
            module, fn = _module_of(graph, project, qualname)
            if module is None or fn is None:
                continue
            entry = witness[qualname]
            for finding in self._scan_function(
                graph, module, fn, entry
            ):
                key = (finding.path, finding.line, finding.message)
                if key not in seen:
                    seen.add(key)
                    yield finding

    def _scan_function(
        self,
        graph: CallGraph,
        module: ParsedModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        entry: str,
    ) -> Iterator[Finding]:
        origins = module_pool_origins(module, graph)
        imports = ImportMap.from_tree(module.tree)
        suffix = f" (reachable from async `{entry}`)"
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            target = (
                graph.resolve(module.name, chain)
                if chain is not None else None
            )
            dotted = target or (".".join(chain) if chain else "")
            if dotted in _BLOCKING_CALLS:
                yield self.finding(
                    module, node, _BLOCKING_CALLS[dotted] + suffix
                )
                continue
            if any(
                dotted.startswith(p) for p in _BLOCKING_PREFIXES
            ):
                yield self.finding(
                    module, node,
                    _BLOCKING_PREFIXES["subprocess."] + suffix,
                )
                continue
            method = pool_dispatch_method(node, origins)
            if method is not None:
                yield self.finding(
                    module, node,
                    f"pool.{method}() dispatches and blocks on "
                    "the event loop; delegate to a worker thread"
                    + suffix,
                )
                continue
            if is_bare_builtin(node.func, "open", module.tree, imports):
                yield self.finding(
                    module, node,
                    "blocking file I/O (open) on the event loop; use "
                    "asyncio.to_thread or pre-load" + suffix,
                )


register(AsyncioBlockingRule())
