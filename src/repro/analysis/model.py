"""Data model for the :mod:`repro.analysis` static-analysis pass.

The pass operates on a :class:`Project`: every python module under a
``src`` tree (and, optionally, a ``tests`` tree) parsed once into a
:class:`ParsedModule` — source text, AST, and the suppression comments
extracted from the token stream.  Rules walk these parsed modules and
emit :class:`Finding` rows; the runner filters findings through the
suppressions and sorts them into a stable report order.

Suppression syntax (checked by ``tests/analysis``):

- ``# massf: ignore[rule-id]`` on the line a finding is reported at
  suppresses that rule there (several ids may be comma-separated);
- ``# massf: ignore`` with no rule list suppresses every rule on the
  line (discouraged — name the rule so the intent survives edits);
- ``# massf: ignore-file[rule-id]`` anywhere in a file suppresses the
  named rules for the whole file.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = [
    "AnalysisError",
    "Severity",
    "Finding",
    "ParsedModule",
    "Project",
    "PARSE_ERROR_RULE",
]

#: Pseudo-rule id attached to findings for files that fail to parse.
PARSE_ERROR_RULE = "parse-error"

_SUPPRESS_RE = re.compile(
    r"#\s*massf:\s*(ignore-file|ignore)\s*(?:\[([^\]]*)\])?"
)

#: Wildcard entry meaning "every rule" in a suppression set.
ALL_RULES = "*"


class AnalysisError(Exception):
    """Internal error: the check could not be completed at all.

    The CLI maps this (and any other unexpected exception) to exit
    code 1, distinct from exit 2 = "the check ran and found problems".
    """


class Severity(str, Enum):
    """How bad a finding is; ``error`` findings fail the build."""

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # posix path relative to the project root
    line: int
    col: int
    message: str
    severity: Severity = Severity.ERROR

    @property
    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity.value}[{self.rule}] {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "message": self.message,
        }


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract per-line and file-level suppression sets from comments."""
    per_line: dict[int, set[str]] = {}
    file_level: set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (tok.start[0], tok.string)
            for tok in tokens
            if tok.type == tokenize.COMMENT
        ]
    except tokenize.TokenError:  # unparsable file: no suppressions
        comments = []
    for line, text in comments:
        match = _SUPPRESS_RE.search(text)
        if not match:
            continue
        kind, rule_list = match.group(1), match.group(2)
        if rule_list is None:
            rules = {ALL_RULES}
        else:
            rules = {r.strip() for r in rule_list.split(",") if r.strip()}
            if not rules:
                rules = {ALL_RULES}
        if kind == "ignore-file":
            file_level |= rules
        else:
            per_line.setdefault(line, set()).update(rules)
    return (
        {line: frozenset(rules) for line, rules in per_line.items()},
        frozenset(file_level),
    )


@dataclass
class ParsedModule:
    """One python file, parsed and ready for rules to walk."""

    path: Path  # absolute path on disk
    rel: str  # posix path relative to the project root
    name: str  # dotted module name relative to the source root
    source: str
    tree: ast.Module
    line_ignores: dict[int, frozenset[str]] = field(default_factory=dict)
    file_ignores: frozenset[str] = frozenset()

    @property
    def package(self) -> str:
        """Dotted name of the package containing this module."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]

    @property
    def package_dir(self) -> Path:
        return self.path.parent

    @property
    def is_reference(self) -> bool:
        return self.path.name == "_reference.py"

    @property
    def has_reference_oracle(self) -> bool:
        """True when this module's package ships a ``_reference.py``."""
        return (self.package_dir / "_reference.py").is_file()

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_ignores or ALL_RULES in self.file_ignores:
            return True
        at_line = self.line_ignores.get(line)
        if at_line is None:
            return False
        return rule in at_line or ALL_RULES in at_line


def _module_name(rel_to_src: Path) -> str:
    parts = list(rel_to_src.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _load_tree(
    root: Path, tree_root: Path, failures: list[Finding]
) -> list[ParsedModule]:
    modules: list[ParsedModule] = []
    for path in sorted(tree_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {rel}: {exc}") from exc
        try:
            parsed = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            failures.append(
                Finding(
                    rule=PARSE_ERROR_RULE,
                    path=rel,
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0),
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        line_ignores, file_ignores = _parse_suppressions(source)
        modules.append(
            ParsedModule(
                path=path,
                rel=rel,
                name=_module_name(path.relative_to(tree_root)),
                source=source,
                tree=parsed,
                line_ignores=line_ignores,
                file_ignores=file_ignores,
            )
        )
    return modules


@dataclass
class Project:
    """Everything the rules need: parsed sources plus parsed tests."""

    root: Path
    src_root: Path
    modules: list[ParsedModule]
    #: ``None`` when no tests tree was given (rules needing test
    #: evidence skip); an empty list means "a tests tree with nothing
    #: in it", which rules do treat as missing evidence.
    test_modules: list[ParsedModule] | None
    parse_failures: list[Finding] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.module_by_name: dict[str, ParsedModule] = {
            m.name: m for m in self.modules
        }
        self.module_by_rel: dict[str, ParsedModule] = {
            m.rel: m for m in self.all_modules()
        }

    def all_modules(self) -> list[ParsedModule]:
        return self.modules + list(self.test_modules or [])

    @classmethod
    def load(
        cls,
        root: Path,
        src_root: Path,
        tests_root: Path | None = None,
    ) -> "Project":
        if not src_root.is_dir():
            raise AnalysisError(f"source root {src_root} is not a directory")
        failures: list[Finding] = []
        modules = _load_tree(root, src_root, failures)
        test_modules: list[ParsedModule] | None = None
        if tests_root is not None and tests_root.is_dir():
            test_modules = _load_tree(root, tests_root, failures)
        return cls(
            root=root,
            src_root=src_root,
            modules=modules,
            test_modules=test_modules,
            parse_failures=failures,
        )
