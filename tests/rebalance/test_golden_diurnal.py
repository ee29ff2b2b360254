"""Golden regression test: fixed-seed diurnal-shift rebalancing run.

The checked-in snapshot (``data/golden_diurnal_rebalance.json``) pins the
complete :class:`~repro.rebalance.log.MigrationLog` of a deterministic
hysteresis run on the diurnal scenario — every trigger time, migration
set, cost, and the full imbalance timeline.  Any change to the monitor's
binning, the trigger/cooldown logic, the refinement machinery, or the
policy economics shows up as a numeric diff here.

Regenerate deliberately after an intended behaviour change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/rebalance/test_golden_diurnal.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.engine.kernel import run_kernel
from repro.experiments.setups import diurnal_scenario
from repro.rebalance import RebalanceConfig
from repro.routing.spf import build_routing

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_diurnal_rebalance.json"
SEED = 0
REL_TOL = 1e-6


def _run() -> dict:
    scenario = diurnal_scenario(seed=SEED)
    tables = build_routing(scenario.net)
    _, kernel = run_kernel(
        scenario.net, tables, scenario.workload, seed=SEED,
        engine="parallel", parts=scenario.parts,
        rebalance=RebalanceConfig(policy="hysteresis", seed=SEED),
    )
    log = kernel.rebalancer.log
    snapshot = log.to_dict()
    snapshot["time_to_rebalance"] = [
        None if t == float("inf") else t
        for t in (
            log.time_to_rebalance(s, 0.35) for s in scenario.shift_times
        )
    ]
    return snapshot


@pytest.fixture(scope="module")
def current() -> dict:
    return _run()


def _compare(path: str, golden, ours) -> list[str]:
    diffs: list[str] = []
    if isinstance(golden, dict):
        if set(golden) != set(ours):
            diffs.append(f"{path}: keys {sorted(golden)} != {sorted(ours)}")
            return diffs
        for key in golden:
            diffs += _compare(f"{path}.{key}", golden[key], ours[key])
    elif isinstance(golden, list):
        if len(golden) != len(ours):
            diffs.append(f"{path}: length {len(golden)} != {len(ours)}")
            return diffs
        for i, (g, o) in enumerate(zip(golden, ours)):
            diffs += _compare(f"{path}[{i}]", g, o)
    elif isinstance(golden, float):
        if ours != pytest.approx(golden, rel=REL_TOL, abs=1e-12):
            diffs.append(f"{path}: {golden!r} != {ours!r}")
    elif golden != ours:
        diffs.append(f"{path}: {golden!r} != {ours!r}")
    return diffs


def test_golden_snapshot_matches(current):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1 "
        f"({GOLDEN_PATH})"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    diffs = _compare("snapshot", golden, current)
    assert not diffs, "golden mismatch:\n" + "\n".join(diffs[:20])


def test_golden_run_actually_rebalances(current):
    """The scenario is non-trivial: the hot-spot rotation triggers real
    migrations, and the timeline spans the whole run."""
    assert current["policy"] == "hysteresis"
    assert current["migration_count"] >= 1
    assert current["routers_moved"] >= 1
    assert current["bytes_moved"] > 0
    assert len(current["bin_times"]) >= 8
    adopted = [e for e in current["events"] if e["adopted"]]
    assert adopted, "no adopted migration in the golden scenario"
    for e in adopted:
        assert e["imbalance_after"] < e["imbalance_before"]


def test_rerun_is_deterministic(current):
    assert _compare("snapshot", current, _run()) == []
