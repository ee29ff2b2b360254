"""Entry point: resolve a project root, load it, run the rules.

:func:`run_check` is what both ``massf check`` and the test suite call.
Root resolution, in order:

1. an explicit ``root`` argument (must contain ``src/repro``);
2. the current working directory, when it contains ``src/repro``;
3. walking up from the installed ``repro`` package (the development
   layout keeps it at ``<root>/src/repro``).

The ``tests`` directory next to ``src`` (when present) is parsed too —
only as *evidence* for the parity-coverage rule; module rules never
flag test code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.model import AnalysisError, Finding, Project
from repro.analysis.registry import resolve_rules, run_rules

__all__ = [
    "CheckResult",
    "run_check",
    "resolve_root",
]


@dataclass
class CheckResult:
    """Everything a reporter needs about one check run."""

    root: Path
    rules: list[str]
    findings: list[Finding]
    suppressed: list[Finding]
    n_files: int

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


def resolve_root(root: str | os.PathLike[str] | None = None) -> Path:
    """Locate the project root (the directory holding ``src/repro``)."""
    if root is not None:
        path = Path(root).resolve()
        if not (path / "src" / "repro").is_dir():
            raise AnalysisError(
                f"{path} does not contain src/repro; pass the "
                "project root"
            )
        return path
    cwd = Path.cwd()
    if (cwd / "src" / "repro").is_dir():
        return cwd
    import repro

    pkg_file = getattr(repro, "__file__", None)
    if pkg_file:
        candidate = Path(pkg_file).resolve().parent.parent.parent
        if (candidate / "src" / "repro").is_dir():
            return candidate
    raise AnalysisError(
        "cannot locate the project root: neither the working "
        "directory nor the installed package layout contains src/repro"
    )


def run_check(
    root: str | os.PathLike[str] | None = None,
    *,
    rules: Sequence[str] | None = None,
    include_tests: bool = True,
) -> CheckResult:
    """Run the selected rules over the project at ``root``.

    Raises :class:`AnalysisError` when the check itself cannot run
    (bad root, unknown rule id); findings are *returned*, never raised.
    """
    project_root = resolve_root(root)
    tests_root = project_root / "tests" if include_tests else None
    selected = resolve_rules(rules)
    project = Project.load(project_root, project_root / "src", tests_root)
    findings, suppressed = run_rules(project, selected)
    return CheckResult(
        root=project_root,
        rules=[r.id for r in selected],
        findings=findings,
        suppressed=suppressed,
        n_files=len(project.all_modules()),
    )
