"""Text and JSON reporters for check results."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.runner import CheckResult

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "to_payload",
    "REPORT_SCHEMA",
]

#: Version stamp embedded in every JSON findings report.
REPORT_SCHEMA = 2

#: SARIF spec version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_text(result: "CheckResult") -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [f.render() for f in result.findings]
    n = len(result.findings)
    n_sup = len(result.suppressed)
    scanned = (
        f"{result.n_files} files, {len(result.rules)} rules"
        + (f", {n_sup} suppressed" if n_sup else "")
    )
    if not lines:
        return f"massf check: no findings ({scanned})"
    by_rule: dict[str, int] = {}
    for f in result.findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    breakdown = ", ".join(
        f"{rule}: {count}" for rule, count in sorted(by_rule.items())
    )
    lines.append("")
    lines.append(
        f"massf check: {n} finding{'s' if n != 1 else ''} "
        f"({breakdown}) ({scanned})"
    )
    return "\n".join(lines)


def to_payload(result: "CheckResult") -> dict[str, object]:
    """JSON-serializable structure (also the ``-o`` artifact format)."""
    return {
        "schema": REPORT_SCHEMA,
        "root": str(result.root),
        "rules": list(result.rules),
        "files_scanned": result.n_files,
        "findings": [f.to_dict() for f in result.findings],
        "suppressed": [f.to_dict() for f in result.suppressed],
        "summary": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
    }


def render_json(result: "CheckResult") -> str:
    return json.dumps(to_payload(result), indent=2)


def to_sarif(result: "CheckResult") -> dict[str, object]:
    """SARIF 2.1.0 log for code-scanning uploads / IDE ingestion.

    One run, one driver (``massf-check``); every executed rule appears
    in the driver's rule table so viewers can show descriptions even
    for rules with no findings.  Columns are 1-based per the spec (our
    :class:`Finding` columns are 0-based AST offsets).
    """
    from repro.analysis.registry import RULES, all_rules

    all_rules()  # ensure the registry is populated
    driver_rules = []
    for rule_id in result.rules:
        rule = RULES.get(rule_id)
        driver_rules.append(
            {
                "id": rule_id,
                "shortDescription": {
                    "text": rule.description if rule else rule_id
                },
                "defaultConfiguration": {
                    "level": rule.severity.value if rule else "error"
                },
            }
        )
    sarif_results = [
        {
            "ruleId": f.rule,
            "level": f.severity.value,
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path,
                            "uriBaseId": "PROJECTROOT",
                        },
                        "region": {
                            "startLine": max(1, f.line),
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in result.findings
    ]
    return {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "massf-check",
                        "rules": driver_rules,
                    }
                },
                "originalUriBaseIds": {
                    "PROJECTROOT": {
                        "uri": result.root.resolve().as_uri() + "/"
                    }
                },
                "results": sarif_results,
            }
        ],
    }


def render_sarif(result: "CheckResult") -> str:
    return json.dumps(to_sarif(result), indent=2)
