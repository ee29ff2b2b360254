"""Determinism rules: unseeded RNG, order-sensitive float reduction,
and set iteration in the partition/routing hot paths.

The repo's parity suites promise *bit-identical* outputs between the
vectorized kernels and their ``_reference.py`` oracles, and repeated
runs of the PROFILE pipeline must reproduce exactly.  Three things
silently break that promise:

- an unseeded random source (``random.random()``,
  ``np.random.rand()``, ``np.random.default_rng()`` with no seed) makes
  results differ run to run;
- ``sum()`` / ``np.sum`` over float accumulators fixes *an* order, but
  not necessarily the same order the scalar oracle used — IEEE float
  addition is not associative, so the "same" computation drifts by
  ulps and the bit-identical suites fail;
- iterating a ``set`` makes the visit order depend on hash seeding
  and insertion history, which reorders float accumulation and
  tie-breaking in the partition/routing kernels.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, ParsedModule, Project
from repro.analysis.registry import Rule, register
from repro.analysis.visitors import (
    ImportMap,
    attach_parents,
    imported_target,
    is_bare_builtin,
    iter_calls,
    parent_of,
)

__all__ = ["UnseededRngRule", "FloatSumRule", "SetIterationRule"]

#: numpy.random attributes that *construct* seeded generators (their
#: call sites are checked for an explicit seed instead of being
#: banned outright).
_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
}

#: numpy.random attributes that are fine to reference anywhere: types
#: for annotations / isinstance, and seedable bit generators (these
#: take their seed as the first argument, checked like default_rng).
_RNG_TYPES = {
    "numpy.random.Generator",
    "numpy.random.BitGenerator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}


def _first_arg_is_seed(call: ast.Call) -> bool:
    """True when the constructor call pins an explicit, non-None seed."""
    if call.args:
        first = call.args[0]
        return not (
            isinstance(first, ast.Constant) and first.value is None
        )
    for kw in call.keywords:
        if kw.arg == "seed":
            return not (
                isinstance(kw.value, ast.Constant)
                and kw.value.value is None
            )
    return False


class UnseededRngRule(Rule):
    id = "unseeded-rng"
    description = (
        "no unseeded random sources: stdlib `random` module calls are "
        "banned, `np.random.*` convenience functions are banned, and "
        "generator constructors must receive an explicit seed"
    )

    def run_module(
        self, project: Project, module: ParsedModule
    ) -> Iterator[Finding]:
        imports = ImportMap.from_tree(module.tree)
        for call in iter_calls(module.tree):
            target = imported_target(call.func, imports)
            if target is None:
                continue
            yield from self._check_call(module, call, target)

    def _check_call(
        self, module: ParsedModule, call: ast.Call, target: str
    ) -> Iterator[Finding]:
        if target == "random" or target.startswith("random."):
            yield self.finding(
                module,
                call,
                f"stdlib `{target}()` draws from a process-global, "
                "unseeded stream; use np.random.default_rng(seed) "
                "threaded from the caller",
            )
            return
        if not target.startswith("numpy.random."):
            return
        if target in _RNG_CONSTRUCTORS or target in _RNG_TYPES:
            if target in (
                "numpy.random.Generator",
                "numpy.random.BitGenerator",
                "numpy.random.SeedSequence",
            ):
                return  # wrap/derive an already-seeded source
            if _first_arg_is_seed(call):
                return
            yield self.finding(
                module,
                call,
                f"`{target}()` without an explicit seed is "
                "entropy-seeded; pass the seed through from the caller",
            )
            return
        yield self.finding(
            module,
            call,
            f"`{target}()` uses numpy's legacy global RNG state; "
            "use np.random.default_rng(seed) instead",
        )


def _int_wrapped(call: ast.Call, module: ParsedModule,
                 imports: ImportMap) -> bool:
    """True when ``call`` is directly inside ``int(...)``.

    Integer accumulation is exact, so its order cannot change the
    result — ``int(sum(...))`` over counters is deterministic.
    """
    parent = parent_of(call)
    return (
        isinstance(parent, ast.Call)
        and parent.args
        and parent.args[0] is call
        and is_bare_builtin(parent.func, "int", module.tree, imports)
    )


class FloatSumRule(Rule):
    id = "float-sum"
    description = (
        "no builtin sum()/np.sum over float accumulators in modules "
        "backed by a _reference.py oracle (IEEE addition is not "
        "associative; use math.fsum or an explicitly ordered reduction)"
    )

    def run(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.rules.parity import counterpart_modules

        in_scope = counterpart_modules(project)
        for module in project.modules:
            if module.is_reference:
                continue  # the oracle *defines* the accumulation order
            if not (
                module.has_reference_oracle or module.name in in_scope
            ):
                continue
            imports = ImportMap.from_tree(module.tree)
            attach_parents(module.tree)
            for call in iter_calls(module.tree):
                is_builtin_sum = is_bare_builtin(
                    call.func, "sum", module.tree, imports
                )
                is_np_sum = (
                    imported_target(call.func, imports) == "numpy.sum"
                )
                if not (is_builtin_sum or is_np_sum):
                    continue
                if is_builtin_sum and _int_wrapped(call, module, imports):
                    continue
                which = "sum()" if is_builtin_sum else "np.sum()"
                yield self.finding(
                    module,
                    call,
                    f"{which} in an oracle-backed module is an "
                    "order-sensitive float reduction; use math.fsum "
                    "(exact) or an explicitly ordered accumulation "
                    "(np.add.at / np.add.reduce over a sorted array), "
                    "or wrap in int(...) if the operands are integers",
                )


#: Dotted package prefixes whose modules count as partition/routing
#: hot paths for the set-iteration rule.
_HOT_PREFIXES = ("repro.partition", "repro.routing")


def _is_set_expr(node: ast.expr, module: ParsedModule,
                 imports: ImportMap) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return is_bare_builtin(
            node.func, "set", module.tree, imports
        ) or is_bare_builtin(node.func, "frozenset", module.tree, imports)
    return False


def _set_typed_names(
    scope: ast.AST, module: ParsedModule, imports: ImportMap
) -> set[str]:
    """Names whose every assignment in ``scope`` is a set expression."""
    sety: dict[str, bool] = {}
    for node in ast.walk(scope):
        target: ast.expr | None = None
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        elif isinstance(node, ast.AugAssign):
            target, value = node.target, None  # |= etc.: keep prior kind
        if not isinstance(target, ast.Name):
            continue
        if value is None:
            continue
        is_set = _is_set_expr(value, module, imports)
        prior = sety.get(target.id)
        sety[target.id] = is_set if prior is None else (prior and is_set)
    return {name for name, flag in sety.items() if flag}


class SetIterationRule(Rule):
    id = "set-iteration"
    description = (
        "no iteration over sets in the partition/routing hot paths "
        "(visit order depends on hashing; sort first)"
    )

    def run_module(
        self, project: Project, module: ParsedModule
    ) -> Iterator[Finding]:
        if not (
            module.name in _HOT_PREFIXES
            or module.name.startswith(
                tuple(p + "." for p in _HOT_PREFIXES)
            )
        ):
            return
        imports = ImportMap.from_tree(module.tree)
        yield from self._check_scope(module, module.tree, imports)

    def _check_scope(
        self, module: ParsedModule, scope: ast.AST, imports: ImportMap
    ) -> Iterator[Finding]:
        sety = _set_typed_names(scope, module, imports)
        for node in ast.walk(scope):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                direct = _is_set_expr(it, module, imports)
                via_name = (
                    isinstance(it, ast.Name) and it.id in sety
                )
                if direct or via_name:
                    what = (
                        f"`{it.id}` (assigned a set)"
                        if isinstance(it, ast.Name)
                        else "a set expression"
                    )
                    yield self.finding(
                        module,
                        it,
                        f"iterating {what} visits elements in "
                        "hash order; iterate `sorted(...)` of it so "
                        "downstream accumulation and tie-breaking "
                        "stay deterministic",
                    )


register(UnseededRngRule())
register(FloatSumRule())
register(SetIterationRule())
