"""Parity-coverage rule: every reference oracle stays paired.

PRs 3–4 preserved the original scalar kernels as oracles in
``partition/_reference.py`` and ``routing/_reference.py`` and promised
bit-identical vectorized counterparts.  That promise only holds while
(a) the counterpart still exists and (b) at least one test imports both
sides so the differential suite actually exercises the pair.  This rule
enforces both mechanically.

Pairing convention: a public reference function ``X_reference`` pairs
with a top-level function ``X`` defined anywhere in the source tree.
When history renamed the counterpart (``compute_routing_reference`` is
the oracle for ``repro.routing.spf.build_routing``), the reference
module declares the pairing explicitly:

.. code-block:: python

    _PARITY_COUNTERPARTS = {
        "compute_routing_reference": "repro.routing.spf.build_routing",
    }
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, ParsedModule, Project
from repro.analysis.registry import Rule, register
from repro.analysis.visitors import module_level_functions

__all__ = ["ParityCoverageRule", "counterpart_modules"]

_MAP_NAME = "_PARITY_COUNTERPARTS"
_SUFFIX = "_reference"


def _public_functions(module: ParsedModule) -> list[ast.FunctionDef]:
    """Public top-level functions of a reference module.

    ``__all__`` wins when present; otherwise every top-level function
    whose name does not start with an underscore.
    """
    funcs = {
        name: node
        for name, node in module_level_functions(module.tree).items()
        if isinstance(node, ast.FunctionDef)
    }
    exported = _declared_all(module.tree)
    if exported is not None:
        return [funcs[n] for n in exported if n in funcs]
    return [f for n, f in sorted(funcs.items()) if not n.startswith("_")]


def _declared_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
        ):
            value = node.value
            if isinstance(value, (ast.List, ast.Tuple)):
                out = [
                    e.value
                    for e in value.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)
                ]
                return out
    return None


def _declared_counterparts(tree: ast.Module) -> dict[str, str]:
    """The module's explicit ``_PARITY_COUNTERPARTS`` literal, if any."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == _MAP_NAME
            and isinstance(node.value, ast.Dict)
        ):
            out: dict[str, str] = {}
            for key, value in zip(node.value.keys, node.value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    out[key.value] = value.value
            return out
    return {}


def _pairings(
    project: Project,
) -> Iterator[tuple[ParsedModule, ast.FunctionDef, str,
                    ParsedModule | None, str]]:
    """Yield (ref_module, ref_def, counterpart_name, def_module, name).

    ``def_module`` is None when no defining module was found.
    """
    for module in project.modules:
        if not module.is_reference:
            continue
        explicit = _declared_counterparts(module.tree)
        for func in _public_functions(module):
            spec = explicit.get(func.name)
            if spec is None:
                if func.name.endswith(_SUFFIX):
                    spec = func.name[: -len(_SUFFIX)]
                else:
                    spec = func.name
            if "." in spec:
                mod_name, _, counterpart = spec.rpartition(".")
                def_module = project.module_by_name.get(mod_name)
                if def_module is not None and counterpart not in (
                    module_level_functions(def_module.tree)
                ):
                    def_module = None
            else:
                counterpart = spec
                def_module = None
                for candidate in project.modules:
                    if candidate.is_reference:
                        continue
                    if counterpart in module_level_functions(
                        candidate.tree
                    ):
                        def_module = candidate
                        break
            yield module, func, spec, def_module, counterpart


def counterpart_modules(project: Project) -> set[str]:
    """Dotted names of modules defining a declared parity counterpart.

    Used by the determinism rules: a module like ``repro.core.place``
    lives outside the oracle's package but still carries bit-identical
    obligations, so order-sensitive float reductions are banned there
    too.
    """
    return {
        def_module.name
        for _, _, _, def_module, _ in _pairings(project)
        if def_module is not None
    }


def _imported_names(module: ParsedModule) -> set[str]:
    """Every dotted module / ``module.name`` a test module imports."""
    out: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            out.add(node.module)
            for alias in node.names:
                if alias.name != "*":
                    out.add(f"{node.module}.{alias.name}")
    return out


class ParityCoverageRule(Rule):
    id = "parity-coverage"
    description = (
        "every public function in a _reference.py oracle has a "
        "same-named (or _PARITY_COUNTERPARTS-declared) vectorized "
        "counterpart, and at least one test imports both sides"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        test_imports = None
        if project.test_modules is not None:
            test_imports = [
                (t, _imported_names(t)) for t in project.test_modules
            ]
        for ref_mod, func, spec, def_mod, name in _pairings(project):
            if def_mod is None:
                yield self.finding(
                    ref_mod,
                    func,
                    f"reference `{func.name}` has no top-level "
                    f"counterpart `{spec}` in the source tree; "
                    "restore the vectorized twin or declare the "
                    f"pairing in {_MAP_NAME}",
                )
                continue
            if test_imports is None:
                continue  # no tests tree given: skip evidence check
            ref_names = {ref_mod.name, f"{ref_mod.name}.{func.name}"}
            cp_names = {def_mod.name, f"{def_mod.name}.{name}"}
            covered = any(
                (imports & ref_names) and (imports & cp_names)
                for _, imports in test_imports
            )
            if not covered:
                yield self.finding(
                    ref_mod,
                    func,
                    f"no test imports both `{ref_mod.name}."
                    f"{func.name}` and its counterpart "
                    f"`{def_mod.name}.{name}`; the parity promise "
                    "is unexercised",
                )


register(ParityCoverageRule())
