"""Every ``_reference.py`` oracle keeps a counterpart and a test of both.

A deleted counterpart already fails its parity test with an
``ImportError``; these ``ast`` checks catch what no test run can.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Oracle -> counterpart, each ``module.function`` under ``repro``.
PAIRS = {
    "partition._reference.fm_refine_reference": "partition.fm.fm_refine",
    "partition._reference.kway_refine_reference": "partition.kwayrefine.kway_refine",
    "partition._reference.grow_bisection_reference": "partition.initial.grow_bisection",
    "partition._reference.greedy_graph_growing_reference":
        "partition.initial.greedy_graph_growing",
    "partition._reference.heavy_edge_matching_reference":
        "partition.coarsen.heavy_edge_matching",
    "routing._reference.compute_routing_reference": "routing.spf.build_routing",
    "routing._reference.update_routing_reference": "routing.delta.update_routing",
    "routing._reference.discover_routes_reference": "routing.icmp.discover_routes",
    "routing._reference.estimate_traffic_reference": "core.place.estimate_traffic",
    "engine._reference.run_kernel_reference": "engine.kernel.run_kernel",
}


def _functions(module: str) -> set[str]:
    """Module-level function names of ``repro.<module>``."""
    tree = ast.parse((SRC / "repro" / module.replace(".", "/")).with_suffix(
        ".py").read_text())
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_every_public_oracle_has_a_row():
    found = set()
    for path in sorted((SRC / "repro").rglob("_reference.py")):
        module = ".".join(path.relative_to(SRC / "repro").with_suffix("").parts)
        found |= {f"{module}.{name}" for name in _functions(module)
                  if not name.startswith("_")}
    assert found == set(PAIRS)


def test_each_counterpart_is_defined_at_module_level():
    for name in PAIRS.values():
        module, _, function = name.rpartition(".")
        assert function in _functions(module), name


def test_some_test_module_imports_both_sides():
    imported = [{f"{node.module}.{alias.name}"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module
                 for alias in node.names}
                for path in sorted((SRC.parent / "tests").rglob("*.py"))]
    assert {oracle for oracle, twin in PAIRS.items()
            if not any({f"repro.{oracle}", f"repro.{twin}"} <= names
                       for names in imported)} == set()
