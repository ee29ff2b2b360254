"""The lint configuration the CI lint job relies on.

CI runs ``ruff check`` and ``mypy`` straight off ``pyproject.toml``;
neither tool is a runtime dependency, so these tests pin the config
shape itself (the ruff rule set, the strict-typed mypy allowlist)
rather than tool behavior.
"""

import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pyproject():
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_ruff_rule_set(pyproject):
    assert pyproject["tool"]["ruff"]["lint"]["select"] == [
        "E4", "E7", "E9", "F"
    ]


def test_mypy_strict_allowlist(pyproject):
    overrides = pyproject["tool"]["mypy"]["overrides"]
    strict = next(
        o
        for o in overrides
        if isinstance(o["module"], list)
        and "repro.runtime.*" in o["module"]
    )
    assert set(strict["module"]) >= {
        "repro.runtime.*",
        "repro.metrics.*",
    }
    assert strict["ignore_errors"] is False
    assert strict["disallow_untyped_defs"] is True
    assert strict["disallow_incomplete_defs"] is True
