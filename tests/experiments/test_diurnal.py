"""The diurnal-shift rebalancing study: scenario shape + the headline claim.

The scenario is built so a static region-per-LP placement is *right* for
phase 0 and wrong afterwards — the hot region rotates every
``duration / n_phases`` seconds.  The headline result this suite pins:
every online policy recovers (strictly lower imbalance-over-time AUC than
static) while leaving the event trace byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernel import run_kernel
from repro.experiments.setups import diurnal_network, diurnal_scenario
from repro.experiments.workloads import DiurnalTransfers
from repro.rebalance import POLICIES, RebalanceConfig
from repro.routing.spf import build_routing

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")
SEED = 0


def test_diurnal_network_shape():
    net = diurnal_network(n_regions=3, edges_per_region=3, hosts_per_edge=3)
    # Per region: 1 core + 3 edges + 9 hosts = 13; 3 regions = 39 nodes.
    assert net.n_nodes == 39
    sites = {node.site for node in net.nodes}
    assert sites == {"region0", "region1", "region2"}
    assert len(net.hosts()) == 27


def test_scenario_partition_is_region_aligned():
    scenario = diurnal_scenario(seed=SEED)
    assert scenario.k == 3
    for node in scenario.net.nodes:
        region = int(node.site.removeprefix("region"))
        assert scenario.parts[node.node_id] == region
    assert scenario.shift_times == [2.0, 4.0]


def test_workload_rotates_the_hot_region():
    net = diurnal_network()
    wl = DiurnalTransfers(n_flows=900, duration=6.0, n_phases=3,
                          hot_frac=1.0)
    wl.prepare(net, np.random.default_rng(SEED))
    site_of = {node.node_id: node.site for node in net.nodes}
    srcs, dsts, _, starts = wl._drawn
    for src, dst, start in zip(srcs, dsts, starts):
        phase = min(int(start / wl.phase_s), wl.n_phases - 1)
        assert site_of[src] == f"region{phase}"
        assert site_of[dst] == f"region{phase}"
        assert src != dst


def test_workload_is_deterministic_per_seed():
    net = diurnal_network()
    a = DiurnalTransfers(n_flows=100, duration=6.0)
    b = DiurnalTransfers(n_flows=100, duration=6.0)
    a.prepare(net, np.random.default_rng(7))
    b.prepare(net, np.random.default_rng(7))
    for x, y in zip(a._drawn, b._drawn):
        np.testing.assert_array_equal(x, y)


@pytest.fixture(scope="module")
def policy_runs():
    scenario = diurnal_scenario(seed=SEED)
    tables = build_routing(scenario.net)
    out = {}
    for policy in sorted(POLICIES):
        trace, kernel = run_kernel(
            scenario.net, tables, scenario.workload, seed=SEED,
            engine="parallel", parts=scenario.parts,
            rebalance=RebalanceConfig(policy=policy, seed=SEED),
        )
        out[policy] = (trace, kernel.rebalancer.log)
    return scenario, out


def test_every_online_policy_beats_static(policy_runs):
    """The PR's acceptance criterion, as a test."""
    _, runs = policy_runs
    static_auc = runs["static"][1].auc()
    assert runs["static"][1].migration_count == 0
    for policy in sorted(set(POLICIES) - {"static"}):
        log = runs[policy][1]
        assert log.auc() < static_auc, (
            f"{policy} auc {log.auc():.3f} !< static {static_auc:.3f}"
        )
        assert log.migration_count >= 1


def test_rebalancing_never_changes_the_trace(policy_runs):
    """Migration is pure state relocation: all four policies emit the
    byte-identical event trace."""
    _, runs = policy_runs
    base = runs["static"][0]
    for policy in sorted(set(POLICIES) - {"static"}):
        trace = runs[policy][0]
        for field in TRACE_FIELDS:
            assert np.array_equal(
                getattr(base, field), getattr(trace, field)
            ), f"{policy}: {field}"


def test_online_policies_recover_after_shifts(policy_runs):
    """After each demand shift, every online policy re-converges below
    the trigger threshold in finite virtual time; static never does."""
    scenario, runs = policy_runs
    threshold = RebalanceConfig().threshold
    last_shift = scenario.shift_times[-1]
    assert runs["static"][1].time_to_rebalance(
        last_shift, threshold
    ) == float("inf")
    for policy in sorted(set(POLICIES) - {"static"}):
        ttr = runs[policy][1].time_to_rebalance(last_shift, threshold)
        assert np.isfinite(ttr), f"{policy} never recovered"
