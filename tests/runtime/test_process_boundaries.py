"""Work crosses a process boundary in exactly one place.

``runtime/executor.py::_run_pool`` runs stateless, crash/timeout/retry-
tolerant grid cells on a ``ProcessPoolExecutor``.  The parallel
emulation engine is a partition view over the sequential kernel and
forks nothing, so a second mechanism has to argue its way past this test
(see DESIGN.md, "One process crossing").  The pool is also the only way
*data* crosses: no shared-memory segment backs any array.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _spawn_sites(tree: ast.Module, rel: str) -> set[str]:
    """``file::function`` for every function that constructs a
    ``ProcessPoolExecutor`` / ``Process`` or calls ``os.fork``."""
    sites: set[str] = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = (
                    func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None
                )
                if name in ("ProcessPoolExecutor", "Process", "fork"):
                    sites.add(f"{rel}::{owner}")
            visit(child, inner)

    visit(tree, "<module>")
    return sites


def test_exactly_one_function_starts_processes():
    found: set[str] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        found |= _spawn_sites(ast.parse(path.read_text()), rel)
    assert found == {"runtime/executor.py::_run_pool"}


def test_nothing_imports_shared_memory():
    """The grid pool is the only cross-process data path;
    ``multiprocessing.shared_memory`` (and the ``resource_tracker``
    patching it drags in) has to argue its way back like a second fork
    site would."""
    banned = ("shared_memory", "resource_tracker")
    found: set[str] = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(part in banned for name in names
                   for part in name.split(".")):
                found.add(f"{rel}:{node.lineno}")
    assert found == set()
