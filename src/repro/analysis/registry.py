"""Rule base class and registry for :mod:`repro.analysis`.

A rule is a small object with an ``id``, a human description, a
severity, and a ``run(project)`` generator producing
:class:`~repro.analysis.model.Finding` rows.  Every rule sees the whole
:class:`~repro.analysis.model.Project` — per-module rules simply iterate
``project.modules``, while cross-cutting rules (parity coverage) can
correlate sources with tests.

Rules self-register at import time via :func:`register`; importing
:mod:`repro.analysis.rules` pulls in the shipped rule set.
"""

from __future__ import annotations

import ast
from abc import ABC
from typing import Iterable, Iterator, Sequence

from repro.analysis.model import (
    AnalysisError,
    Finding,
    ParsedModule,
    Project,
    Severity,
)

__all__ = ["Rule", "register", "all_rules", "resolve_rules", "RULES"]

#: The global registry: rule id -> rule instance, insertion-ordered.
RULES: dict[str, "Rule"] = {}


class Rule(ABC):
    """One invariant the codebase must uphold.

    Rules that look at one file at a time implement
    :meth:`run_module`; rules that need the whole tree (call graph,
    parity pairings) override :meth:`run`.
    """

    id: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR

    def run(self, project: Project) -> Iterator[Finding]:
        """Yield every violation found in ``project``."""
        for module in project.modules:
            yield from self.run_module(project, module)

    def run_module(
        self, project: Project, module: ParsedModule
    ) -> Iterator[Finding]:
        """Violations attributable to ``module`` alone."""
        raise NotImplementedError(
            f"rule {self.id!r} implements neither run() nor run_module()"
        )

    def finding(
        self,
        module: ParsedModule,
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a finding anchored at ``node`` inside ``module``."""
        return Finding(
            rule=self.id,
            path=module.rel,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            message=message,
            severity=self.severity,
        )


def register(rule: Rule) -> Rule:
    """Add ``rule`` to the global registry (id must be unique)."""
    if not rule.id:
        raise AnalysisError(f"rule {rule!r} has no id")
    if rule.id in RULES:
        raise AnalysisError(f"duplicate rule id {rule.id!r}")
    RULES[rule.id] = rule
    return rule


def all_rules() -> list[Rule]:
    """Every registered rule, in registration order."""
    _ensure_loaded()
    return list(RULES.values())


def resolve_rules(ids: Sequence[str] | None) -> list[Rule]:
    """Map rule ids to rule objects.

    ``None`` selects every registered rule.
    """
    if ids is None:
        return all_rules()
    _ensure_loaded()
    unknown = [i for i in ids if i not in RULES]
    if unknown:
        known = ", ".join(sorted(RULES))
        raise AnalysisError(
            f"unknown rule id(s) {', '.join(sorted(set(unknown)))}; "
            f"known rules: {known}"
        )
    seen: set[str] = set()
    out: list[Rule] = []
    for i in ids:
        if i not in seen:
            seen.add(i)
            out.append(RULES[i])
    return out


def _ensure_loaded() -> None:
    """Import the shipped rule modules so they self-register."""
    import repro.analysis.rules  # noqa: F401  (import for side effect)


def run_rules(
    project: Project, rules: Iterable[Rule]
) -> tuple[list[Finding], list[Finding]]:
    """Run ``rules`` over ``project``; split kept vs. suppressed.

    Parse failures are prepended to the kept findings — a file that
    does not parse cannot carry suppression comments for itself.
    """
    kept: list[Finding] = list(project.parse_failures)
    suppressed: list[Finding] = []
    for rule in rules:
        for finding in rule.run(project):
            module = project.module_by_rel.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.rule, finding.line
            ):
                suppressed.append(finding)
            else:
                kept.append(finding)
    kept.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return kept, suppressed
