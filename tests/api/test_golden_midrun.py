"""Golden regression: mid-run link-cost shift under online rebalancing.

The checked-in snapshot pins a fixed-seed diurnal run through
:func:`repro.api.emulate` with *both* dynamic subsystems engaged — the
online rebalancer migrating routers and the incremental routing engine
applying a mid-run latency shift and its revert.  The trace, the change
log, and the repaired tables are captured as byte-exact digests: any
drift in windowing, barrier-hook ordering, the delta engine's splices, or
the rebalancer's economics shows up as a digest diff here.

Regenerate deliberately after an intended behaviour change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/api/test_golden_midrun.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import emulate
from repro.experiments.setups import diurnal_scenario
from repro.rebalance import RebalanceConfig
from repro.routing.delta import SetLinkCost
from repro.routing.spf import build_routing

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_midrun_shift.json"
SEED = 0
SHIFT_LINK = 3
SHIFT_FACTOR = 5.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _emulate(policy: str | None):
    """The midrun run: parallel under ``policy``, or sequential for None.

    Fresh scenario per call: applying the schedule mutates the network.
    """
    scenario = diurnal_scenario(seed=SEED)
    tables = build_routing(scenario.net)
    link = scenario.net.links[SHIFT_LINK]
    schedule = [
        (2.0, SetLinkCost(SHIFT_LINK, latency_s=link.latency_s * SHIFT_FACTOR)),
        (4.0, SetLinkCost(SHIFT_LINK, latency_s=link.latency_s)),
    ]
    if policy is None:
        return emulate(
            scenario.net, tables, scenario.workload, seed=SEED,
            link_changes=schedule,
        )
    return emulate(
        scenario.net, tables, scenario.workload, seed=SEED,
        engine="parallel", parts=scenario.parts,
        rebalance=RebalanceConfig(policy=policy, seed=SEED),
        link_changes=schedule,
    )


def _run() -> dict:
    result = _emulate("hysteresis")
    trace = result.trace
    log = result.migration_log
    return {
        "n_events": int(trace.n_events),
        "trace_digest": _digest(
            trace.time, trace.node, trace.next_node, trace.packets,
            trace.span,
        ),
        "link_change_log": [list(entry) for entry in result.link_change_log],
        "tables_digest": _digest(
            result.final_tables.dist, result.final_tables.next_hop
        ),
        "link_accounting_digest": _digest(
            result.link_packets, result.link_bytes, result.link_busy_s
        ),
        "migration_count": int(log.to_dict()["migration_count"]),
    }


@pytest.fixture(scope="module")
def current() -> dict:
    return _run()


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
    ours = json.loads(json.dumps(current))  # normalize tuples to lists
    assert golden == ours


def test_both_dynamics_engaged(current):
    """The scenario is non-trivial: the shift touched routing rows and
    the run is change-logged at both scheduled times."""
    times = [entry[0] for entry in current["link_change_log"]]
    assert times == [2.0, 4.0]
    assert all(entry[2] > 0 for entry in current["link_change_log"])
    assert current["n_events"] > 0


LINK_FIELDS = ("link_packets", "link_bytes", "link_busy_s",
               "link_max_backlog_s")


@pytest.mark.parametrize("policy", ("static", "hysteresis"))
def test_link_accounting_equals_sequential(policy):
    """The parallel engine is the sequential kernel seen through a
    partition, so its per-link aggregates are the sequential run's bit
    for bit, whatever the rebalancer migrated."""
    sequential = _emulate(None)
    parallel = _emulate(policy)
    assert (parallel.migration_log.migration_count > 0) == (
        policy == "hysteresis")
    for field in LINK_FIELDS:
        assert np.array_equal(
            getattr(parallel, field), getattr(sequential, field)
        ), field
