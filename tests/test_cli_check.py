"""`massf check` CLI: exit-code contract, JSON report, rule selection.

The contract (pinned here, relied on by CI):

- exit 0: the check ran and found nothing;
- exit 2: the check ran and found problems;
- exit 1: the check could not run (bad root, unknown rule, internal
  error) — reported as a one-line message, never a traceback.
"""

import json

import pytest

from repro.cli import massf

CLEAN_MODULE = """\
def double(values):
    return [v * 2 for v in values]
"""

DIRTY_MODULE = """\
import random


def jitter():
    return random.random()
"""


def make_project(tmp_path, source):
    root = tmp_path / "proj"
    pkg = root / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    return root


@pytest.fixture
def clean_root(tmp_path):
    return make_project(tmp_path, CLEAN_MODULE)


@pytest.fixture
def dirty_root(tmp_path):
    return make_project(tmp_path, DIRTY_MODULE)


def test_exit_0_on_clean_tree(clean_root, capsys):
    assert massf(["check", str(clean_root)]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out


def test_exit_2_on_findings(dirty_root, capsys):
    assert massf(["check", str(dirty_root)]) == 2
    out = capsys.readouterr().out
    assert "unseeded-rng" in out
    assert "src/repro/mod.py:5" in out


def test_exit_1_on_bad_root(tmp_path, capsys):
    rc = massf(["check", str(tmp_path / "nowhere")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("massf check: error:")
    assert "Traceback" not in err


def test_exit_1_on_unknown_rule(clean_root, capsys):
    rc = massf(["check", str(clean_root), "--rule", "no-such-rule"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "Traceback" not in err


def test_json_report_shape(dirty_root, capsys):
    assert massf(["check", str(dirty_root), "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    assert "cache" not in payload
    assert payload["summary"]["findings"] == len(payload["findings"]) > 0
    finding = payload["findings"][0]
    assert finding["rule"] == "unseeded-rng"
    assert finding["path"] == "src/repro/mod.py"
    assert finding["line"] == 5
    assert finding["severity"] == "error"


def test_output_file_written_even_with_findings(dirty_root, tmp_path,
                                                capsys):
    out_path = tmp_path / "findings.json"
    rc = massf(["check", str(dirty_root), "-o", str(out_path)])
    assert rc == 2
    payload = json.loads(out_path.read_text())
    assert payload["findings"][0]["rule"] == "unseeded-rng"


def test_rule_filter_limits_the_run(dirty_root, capsys):
    rc = massf(
        ["check", str(dirty_root), "--rule", "telemetry-span"]
    )
    assert rc == 0  # the RNG problem is out of scope for this rule


def test_list_rules(capsys):
    assert massf(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 6
    for rule_id in (
        "unseeded-rng",
        "float-sum",
        "set-iteration",
        "parity-coverage",
        "parallel-safety",
        "telemetry-span",
    ):
        assert rule_id in out


def test_result_cache_flags_are_gone(clean_root, capsys):
    with pytest.raises(SystemExit) as exc:
        massf(["check", str(clean_root), "--no-cache"])
    assert exc.value.code == 2
    assert "--no-cache" in capsys.readouterr().err
