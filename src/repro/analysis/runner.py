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

Two-tier result caching (the warm re-check path)
------------------------------------------------

With a ``cache`` (an :class:`~repro.runtime.cache.ArtifactCache`), the
runner keys results on content, not time:

- **check-module** — one entry per file, keyed on
  ``(ANALYSIS_VERSION, module-rule ids, rel path, source sha)``.  Holds
  the module-scope findings (kept and suppressed) and any parse failure
  — everything the file alone determines.
- **check-project** — one entry per tree state, keyed on the same
  version + the project-scope rule ids + a manifest of every
  ``(rel, sha)`` pair.  Holds the project-scope findings, which any
  single changed file can invalidate (they flow through the call
  graph).

A fully warm re-check therefore never calls ``ast.parse``: it hashes
the sources, loads the per-file entries plus the project entry, and
assembles the report.  Any miss falls back to parsing the tree once;
unchanged files still skip their module-rule execution.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.analysis.model import (
    AnalysisError,
    Finding,
    ParsedModule,
    Project,
    _module_name,
    parse_source,
)
from repro.analysis.registry import Rule, resolve_rules

__all__ = [
    "ANALYSIS_VERSION",
    "CheckResult",
    "run_check",
    "resolve_root",
]

#: Bumped whenever rule semantics change; invalidates every cached
#: result (the version is part of both cache keys).
ANALYSIS_VERSION = 3

#: Artifact kinds in the shared :class:`ArtifactCache`.
MODULE_KIND = "check-module"
PROJECT_KIND = "check-project"


@dataclass
class CheckResult:
    """Everything a reporter needs about one check run."""

    root: Path
    rules: list[str]
    findings: list[Finding]
    suppressed: list[Finding]
    n_files: int
    #: Result-cache probes that hit / missed (0/0 when uncached).  A
    #: fully warm run reports one hit per file plus one for the
    #: project-scope entry.
    cache_hits: int = 0
    cache_misses: int = 0

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


# --------------------------------------------------------------------- #
# File scan (reads + hashes, no parsing)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _SourceFile:
    """One scanned file: bytes read once, parsed only on a miss."""

    path: Path
    rel: str
    name: str  # dotted module name relative to its tree root
    tree: str  # "src" | "tests"
    source: str
    sha: str


def _scan_tree(
    root: Path, tree_root: Path, label: str
) -> list[_SourceFile]:
    out: list[_SourceFile] = []
    for path in sorted(tree_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root).as_posix()
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise AnalysisError(f"cannot read {rel}: {exc}") from exc
        out.append(
            _SourceFile(
                path=path,
                rel=rel,
                name=_module_name(path.relative_to(tree_root)),
                tree=label,
                source=data.decode("utf-8"),
                sha=hashlib.sha256(data).hexdigest(),
            )
        )
    return out


# --------------------------------------------------------------------- #
# Per-file pass (cache-keyed)
# --------------------------------------------------------------------- #
def _file_entry(
    project: Project, module: ParsedModule,
    rules: Sequence[Rule], is_src: bool,
) -> dict:
    """The cacheable per-file result: module-rule findings."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    if is_src:
        for rule in rules:
            for finding in rule.run_module(project, module):
                if module.is_suppressed(finding.rule, finding.line):
                    suppressed.append(finding)
                else:
                    kept.append(finding)
    kept.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return {
        "findings": kept,
        "suppressed": suppressed,
        "parse_failure": None,
    }


def _failure_entry(failure: Finding) -> dict:
    """Per-file entry for a file that does not parse."""
    return {"findings": [], "suppressed": [], "parse_failure": failure}


def _module_key(
    cache, module_ids: tuple[str, ...], sf: _SourceFile
) -> str:
    return cache.key_of(
        MODULE_KIND, ANALYSIS_VERSION, module_ids, sf.rel, sf.sha
    )


def _project_key(
    cache,
    project_ids: tuple[str, ...],
    include_tests: bool,
    sources: Sequence[_SourceFile],
) -> str:
    manifest = tuple((sf.rel, sf.sha) for sf in sources)
    return cache.key_of(
        PROJECT_KIND, ANALYSIS_VERSION, project_ids, include_tests,
        manifest,
    )


# --------------------------------------------------------------------- #
# The check itself
# --------------------------------------------------------------------- #
def _resolve_check_cache(cache, project_root: Path):
    """``True`` means the default cache *under the project root* (so
    checking two trees never cross-pollutes a cwd-relative cache)."""
    from repro.runtime.cache import (
        DEFAULT_CACHE_DIR,
        ArtifactCache,
        resolve_cache,
    )

    if cache is True or cache == "default":
        env = os.environ.get("MASSF_CACHE_DIR")
        return ArtifactCache(
            Path(env) if env else project_root / DEFAULT_CACHE_DIR
        )
    return resolve_cache(cache)


def _build_project(
    project_root: Path,
    src_root: Path,
    tests_root: Path | None,
    sources: Sequence[_SourceFile],
) -> Project:
    """Parse the scanned sources (read once, parsed once)."""
    failures: list[Finding] = []
    modules: list[ParsedModule] = []
    test_modules: list[ParsedModule] | None = (
        [] if tests_root is not None and tests_root.is_dir() else None
    )
    for sf in sources:
        parsed = parse_source(sf.path, sf.rel, sf.name, sf.source)
        if isinstance(parsed, Finding):
            failures.append(parsed)
        elif sf.tree == "src":
            modules.append(parsed)
        else:
            assert test_modules is not None
            test_modules.append(parsed)
    return Project(
        root=project_root,
        src_root=src_root,
        modules=modules,
        test_modules=test_modules,
        parse_failures=failures,
    )


def _run_project_rules(
    project: Project, rules: Sequence[Rule]
) -> dict:
    """Project-scope findings, split kept / suppressed (cacheable)."""
    kept: list[Finding] = []
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
    return {"findings": kept, "suppressed": suppressed}


def _assemble(
    project_root: Path,
    selected: Sequence[Rule],
    entries: dict[str, dict],
    project_entry: dict,
    *,
    cache_hits: int,
    cache_misses: int,
) -> CheckResult:
    """Fold per-file + project entries into the final report."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    n_files = 0
    for rel in sorted(entries):
        entry = entries[rel]
        if entry["parse_failure"] is not None:
            kept.append(entry["parse_failure"])
        else:
            n_files += 1
        kept.extend(entry["findings"])
        suppressed.extend(entry["suppressed"])
    kept.extend(project_entry["findings"])
    suppressed.extend(project_entry["suppressed"])
    suppressed.sort(key=lambda f: f.sort_key)
    kept.sort(key=lambda f: f.sort_key)
    return CheckResult(
        root=project_root,
        rules=[r.id for r in selected],
        findings=kept,
        suppressed=suppressed,
        n_files=n_files,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
    )


def run_check(
    root: str | os.PathLike[str] | None = None,
    *,
    rules: Sequence[str] | None = None,
    include_tests: bool = True,
    cache: object = None,
) -> CheckResult:
    """Run the selected rules over the project at ``root``.

    Raises :class:`AnalysisError` when the check itself cannot run
    (bad root, unknown rule id); findings are *returned*, never raised.

    Parameters
    ----------
    cache:
        Result cache: an :class:`~repro.runtime.cache.ArtifactCache`, a
        directory path, ``True`` for ``<root>/.massf-cache``, or
        ``None`` (default) for no caching.  A warm re-check skips
        parsing entirely.
    """
    project_root = resolve_root(root)
    src_root = project_root / "src"
    tests_root = project_root / "tests" if include_tests else None
    if not src_root.is_dir():
        raise AnalysisError(f"source root {src_root} is not a directory")

    selected = resolve_rules(rules)
    module_rules = [r for r in selected if r.scope == "module"]
    project_rules = [r for r in selected if r.scope == "project"]
    module_ids = tuple(r.id for r in module_rules)
    project_ids = tuple(r.id for r in project_rules)

    art = _resolve_check_cache(cache, project_root)
    sources = _scan_tree(project_root, src_root, "src")
    if tests_root is not None and tests_root.is_dir():
        sources += _scan_tree(project_root, tests_root, "tests")
    by_rel = {sf.rel: sf for sf in sources}

    # Warm probe: per-file entries + the project entry, no parsing yet.
    entries: dict[str, dict] = {}
    project_entry: dict | None = None
    hits = misses = 0
    if art is not None:
        for sf in sources:
            found, value = art.lookup(
                MODULE_KIND, _module_key(art, module_ids, sf)
            )
            if found:
                entries[sf.rel] = value
        if project_rules:
            pkey = _project_key(art, project_ids, include_tests, sources)
            found, value = art.lookup(PROJECT_KIND, pkey)
            if found:
                project_entry = value
        hits = len(entries) + (1 if project_entry is not None else 0)
        misses = (len(sources) - len(entries)) + (
            1 if project_rules and project_entry is None else 0
        )

    warm = (
        art is not None
        and len(entries) == len(sources)
        and (project_entry is not None or not project_rules)
    )
    if not warm:
        # Cold / mixed: parse once; files the probe found keep their
        # entry, the rest run their module rules here and are stored.
        project = _build_project(
            project_root, src_root, tests_root, sources
        )
        src_rels = frozenset(m.rel for m in project.modules)
        fresh: dict[str, dict] = {}
        for module in project.all_modules():
            if module.rel not in entries:
                fresh[module.rel] = _file_entry(
                    project, module, module_rules, module.rel in src_rels
                )
        for failure in project.parse_failures:
            if failure.path not in entries:
                fresh[failure.path] = _failure_entry(failure)
        if art is not None:
            for rel, entry in fresh.items():
                art.store(
                    MODULE_KIND,
                    _module_key(art, module_ids, by_rel[rel]),
                    entry,
                )
        entries.update(fresh)
        if project_rules:
            project_entry = _run_project_rules(project, project_rules)
            if art is not None:
                art.store(
                    PROJECT_KIND,
                    _project_key(art, project_ids, include_tests, sources),
                    project_entry,
                )
    if project_entry is None:
        project_entry = {"findings": [], "suppressed": []}
    return _assemble(
        project_root,
        selected,
        entries,
        project_entry,
        cache_hits=hits,
        cache_misses=misses,
    )
