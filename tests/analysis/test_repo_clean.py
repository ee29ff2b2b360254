"""Acceptance: the repo's own tree passes its own static analysis."""

from pathlib import Path

import pytest

from repro.analysis import run_check

REPO_ROOT = Path(__file__).resolve().parents[2]

EXPECTED_RULES = {
    "unseeded-rng",
    "float-sum",
    "set-iteration",
    "parity-coverage",
    "parallel-safety",
    "telemetry-span",
}


@pytest.fixture(scope="module")
def repo_result():
    return run_check(REPO_ROOT)


def test_repo_is_clean(repo_result):
    assert repo_result.findings == [], "\n".join(
        f.render() for f in repo_result.findings
    )


def test_all_rule_families_ran(repo_result):
    assert set(repo_result.rules) == EXPECTED_RULES


def test_whole_tree_was_scanned(repo_result):
    # src plus tests; a regression here means the walker lost a subtree.
    assert repo_result.n_files > 100


def test_engine_oracle_is_paired():
    """The engine joins the parity regime: ``engine/_reference.py`` must
    declare a counterpart, which puts ``repro.engine.kernel`` under the
    bit-identity float rules like partition/ and routing/ counterparts."""
    from repro.analysis.model import Project
    from repro.analysis.rules.parity import counterpart_modules

    project = Project.load(
        REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "tests"
    )
    counterparts = counterpart_modules(project)
    assert "repro.engine.kernel" in counterparts
    assert "repro.routing.spf" in counterparts
