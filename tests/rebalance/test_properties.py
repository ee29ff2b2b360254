"""Property tests of the rebalancer's decision contract (hypothesis).

The :class:`~repro.rebalance.OnlineRebalancer` runs *detached* here — no
kernel, synthetic load segments — so the properties hold over arbitrary
load histories, not just the ones our workloads happen to produce:

* triggers never fire inside the cooldown window;
* every adopted migration set strictly reduces predicted imbalance;
* migration cost accounting equals the per-router channel-state size;
* the telemetry counters agree with the log; and
* the same seed and loads yield an identical :class:`MigrationLog`.

One property needs live runs instead: two diurnal emulations whose
workloads agree up to virtual time T log identical triggers before T.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setups import diurnal_network
from repro.obs import Telemetry
from repro.rebalance import (
    OnlineRebalancer,
    RebalanceConfig,
    attach_rebalancer,
    node_state_bytes_array,
)

# One small shared topology: 3 regions × (core + edge + host) = 9 nodes.
NET = diurnal_network(n_regions=3, edges_per_region=1, hosts_per_edge=1)
N = NET.n_nodes
K = 3
PARTS = np.arange(N, dtype=np.int64) % K
BIN_S = 0.25

ONLINE = ["hysteresis", "kurve"]


class FakeSeg:
    """The slice of an EventBatch the monitor reads."""

    def __init__(self, time, node, count):
        self.time = np.asarray(time, dtype=np.float64)
        self.node = np.asarray(node, dtype=np.int64)
        self.count = np.asarray(count, dtype=np.float64)


def _drive(policy, bins, seed=0, config=None):
    """Feed per-bin node loads into a detached rebalancer, closing each
    bin with a live barrier, and return it finalized."""
    cfg = config if config is not None else RebalanceConfig(
        policy=policy, bin_s=BIN_S, seed=seed,
    )
    reb = OnlineRebalancer(NET, PARTS, config=cfg, telemetry=Telemetry())
    for i, loads in enumerate(bins):
        loads = np.asarray(loads, dtype=np.float64)
        nz = np.nonzero(loads)[0]
        if len(nz):
            t = (i + 0.5) * cfg.bin_s
            reb.observe(FakeSeg(np.full(len(nz), t), nz, loads[nz]))
        reb.on_barrier((i + 1) * cfg.bin_s + 1e-6)
    reb.finalize()
    return reb


# Load histories: up to 10 bins of small per-node counts, biased so that
# skewed (trigger-worthy) and flat (quiescent) bins both appear.
bin_loads = st.lists(
    st.integers(min_value=0, max_value=60), min_size=N, max_size=N,
)
histories = st.lists(bin_loads, min_size=1, max_size=10)


@given(policy=st.sampled_from(ONLINE), bins=histories,
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=40, deadline=None)
def test_decision_contract(policy, bins, seed):
    reb = _drive(policy, bins, seed=seed)
    cfg = reb.config

    # Telemetry: every trigger is one log event, adopted or rejected.
    adopted = [e for e in reb.log.events if e.adopted]
    counters = reb.telemetry.counters
    assert counters["rebalance.bins"] == len(reb.log.bin_times)
    assert counters["rebalance.triggers"] == len(reb.log.events)
    assert counters["rebalance.adopted"] == len(adopted)
    assert counters["rebalance.rejected"] == len(reb.log.events) - len(
        adopted
    )
    assert counters["rebalance.routers_migrated"] == sum(
        e.n_moved for e in adopted
    )
    assert counters["rebalance.bytes_moved"] == sum(
        e.cost_bytes for e in adopted
    )

    # Cooldown: consecutive triggers (adopted or not) are spaced.
    times = [e.time for e in reb.log.events]
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= cfg.cooldown_s - 1e-9

    parts = PARTS.copy()
    for e in reb.log.events:
        if e.adopted:
            # Strict predicted improvement — the universal adoption gate.
            assert e.imbalance_after < e.imbalance_before
            # Cost accounting: exactly the movers' channel-state sizes.
            assert e.cost_bytes == int(
                node_state_bytes_array(NET)[list(e.routers)].sum()
            )
            assert len(e.routers) == len(e.sources) == len(e.dests)
            # max_moves bounds every proposal's size.
            if cfg.max_moves is not None:
                assert e.n_moved <= cfg.max_moves
            # Sources match the partition at decision time; replaying the
            # log reproduces the rebalancer's final partition.
            for r, s, d in zip(e.routers, e.sources, e.dests):
                assert parts[r] == s
                assert s != d
                parts[r] = d
        else:
            assert e.cost_bytes == 0
            assert e.routers == ()
            assert e.imbalance_after == e.imbalance_before
    assert np.array_equal(parts, reb.parts)
    assert parts.min() >= 0 and parts.max() < K

    # Signal bookkeeping: one entry per closed bin, NaN only for bins
    # under the min-load floor.
    assert len(reb.log.bin_times) == len(reb.log.imbalance)
    assert len(reb.log.bin_times) == len(reb.log.lp_loads)
    for signal, lp in zip(reb.log.imbalance, reb.log.lp_loads):
        if np.isnan(signal):
            assert sum(lp) < cfg.min_bin_load


@given(policy=st.sampled_from(ONLINE), bins=histories,
       seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_same_seed_same_log(policy, bins, seed):
    a = _drive(policy, bins, seed=seed)
    b = _drive(policy, bins, seed=seed)
    assert a.log.to_dict() == b.log.to_dict()
    assert a.telemetry.counters == b.telemetry.counters
    assert np.array_equal(a.parts, b.parts)


@given(bins=histories)
@settings(max_examples=20, deadline=None)
def test_static_policy_never_migrates(bins):
    reb = _drive("static", bins)
    assert reb.log.events == []
    assert reb.log.migration_count == 0
    assert np.array_equal(reb.parts, PARTS)


def test_rebalance_takes_a_config_naming_a_policy():
    with pytest.raises(ValueError, match="unknown rebalance policy 'greedy'"):
        RebalanceConfig(policy="greedy")
    with pytest.raises(TypeError, match="takes a RebalanceConfig"):
        attach_rebalancer(None, "hysteresis")


def _hot_bins(n_bins, hot_lp=0, load=40.0):
    """Every node of one LP loaded, the rest idle — far over threshold."""
    bins = []
    for _ in range(n_bins):
        loads = np.zeros(N)
        loads[PARTS == hot_lp] = load
        bins.append(loads)
    return bins


@pytest.mark.parametrize("policy", ONLINE)
def test_skewed_load_actually_triggers(policy):
    """Non-vacuity: a persistently hot LP trips every online policy."""
    reb = _drive(policy, _hot_bins(8))
    assert reb.log.migration_count >= 1


def test_cooldown_zero_retriggers_every_hot_bin():
    cfg = RebalanceConfig(
        policy="kurve", bin_s=BIN_S, cooldown_s=0.0, seed=0,
    )
    reb = _drive("kurve", _hot_bins(4), config=cfg)
    # With no damper, every over-threshold bin is its own trigger.
    hot = sum(
        1 for s in reb.log.imbalance
        if np.isfinite(s) and s > cfg.threshold
    )
    assert len(reb.log.events) == hot


def test_quiescent_history_never_triggers():
    flat = [np.full(N, 10.0) for _ in range(6)]
    for policy in ONLINE:
        reb = _drive(policy, flat)
        assert reb.log.events == []
        assert reb.log.migration_count == 0


# --------------------------------------------------------------------- #
# Causality on live runs: decisions before T never read traffic after T
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def diurnal_pair():
    """The diurnal scenario twice: as drawn, and with every transfer
    starting at or after the last demand shift rewritten (4x the bytes,
    endpoints swapped).  Same transfer count, same start times."""
    from repro.experiments.setups import diurnal_scenario
    from repro.routing.spf import build_routing

    scenario = diurnal_scenario(seed=0)
    t_cut = scenario.shift_times[-1]
    src, dst, nbytes, start = scenario.workload._drawn
    late = start >= t_cut
    assert late.any() and not late.all()
    mutated = dataclasses.replace(scenario.workload, _drawn=(
        np.where(late, dst, src), np.where(late, src, dst),
        np.where(late, nbytes * 4, nbytes), start,
    ))
    return scenario, build_routing(scenario.net), mutated, t_cut


@pytest.mark.parametrize("policy", ONLINE)
def test_future_traffic_never_changes_past_decisions(diurnal_pair, policy):
    from repro.engine.kernel import run_kernel

    scenario, tables, mutated, t_cut = diurnal_pair
    logs = []
    for workload in (scenario.workload, mutated):
        _, kernel = run_kernel(
            scenario.net, tables, workload, seed=0, engine="parallel",
            parts=scenario.parts,
            rebalance=RebalanceConfig(policy=policy, seed=0),
        )
        logs.append(kernel.rebalancer.log)
    before = [
        [e.to_dict() for e in log.events if e.time < t_cut] for log in logs
    ]
    # Non-vacuity: something was adopted before the cut, and the rewrite
    # was visible to the rebalancer after it.
    assert any(e["adopted"] for e in before[0])
    assert logs[0].to_dict() != logs[1].to_dict()
    # Time, movers, bytes, adoption (and the predicted imbalances) of
    # every trigger strictly before the cut are identical.
    assert before[0] == before[1]
