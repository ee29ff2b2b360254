"""Custom static analysis enforcing the repo's reproducibility story.

The scaling PRs rest on invariants nothing used to check mechanically:
vectorized kernels must stay bit-identical to their ``_reference.py``
oracles, hot paths must stay free of unseeded RNG and unordered float
reduction, anything crossing a process boundary must be fork-safe, and
telemetry spans must close on all paths.  This package is an AST-based
checker framework (rule registry, suppression comments, JSON/text
reporters) plus the shipped rule set tuned to this codebase.

Run it as ``massf check`` (exit 0 = clean, 2 = findings, 1 = internal
error) or from python::

    from repro.analysis import run_check
    result = run_check()           # auto-locates the project root
    assert result.ok, result.findings

Suppress a deliberate violation with a comment naming the rule::

    order = list(seen)  # massf: ignore[set-iteration]
"""

from repro.analysis.model import (
    AnalysisError,
    Finding,
    ParsedModule,
    Project,
    Severity,
)
from repro.analysis.registry import (
    RULES,
    Rule,
    all_rules,
    register,
    resolve_rules,
)
from repro.analysis.report import (
    render_json,
    render_sarif,
    render_text,
    to_payload,
    to_sarif,
)
from repro.analysis.runner import (
    CheckResult,
    resolve_root,
    run_check,
)

__all__ = [
    "AnalysisError",
    "CheckResult",
    "Finding",
    "ParsedModule",
    "Project",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "resolve_root",
    "resolve_rules",
    "run_check",
    "to_payload",
    "to_sarif",
]
