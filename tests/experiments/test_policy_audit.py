"""The rebalance-policy audit, pinned on two scenario families.

Besides the diurnal scenario (the hot spot *inside* one region, rotating)
this suite drives a rotating ring arc — Räcke, Schmid & Zabrodin's
ring-demand sequence on the diurnal network: in phase ``p`` the hot flows
join a host of region ``p`` to a host of region ``p + 1``, so the hot
traffic crosses the backbone cut the region-aligned partition makes.

On 3 regions and seeds 0–2 of both families every online policy ends
with a lower imbalance AUC than ``static``, and all policies emit the
byte-identical event trace.  EXPERIMENTS.md ("Policy audit") has the
full-size tables behind the policy set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.engine.kernel import run_kernel
from repro.experiments.setups import diurnal_scenario
from repro.experiments.workloads import DiurnalTransfers
from repro.rebalance import POLICIES, RebalanceConfig
from repro.routing.spf import build_routing

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")
SEEDS = (0, 1, 2)
#: Half the audit's 600 flows over 6 s, at the same flow density: one
#: run per policy and scenario keeps the module near 10 s.
N_FLOWS = 300
DURATION = 3.0


@dataclass
class RingArcTransfers(DiurnalTransfers):
    """Diurnal soup whose hot flows span the arc region p → region p+1."""

    name: str = "ring-arc-transfers"

    def prepare(self, net, rng: np.random.Generator) -> None:
        regions = self._regions(net)
        all_hosts = np.concatenate(regions)
        n = int(self.n_flows)
        start = np.sort(rng.uniform(0.0, self.duration, size=n))
        phase = np.minimum(
            (start / self.phase_s).astype(np.int64), self.n_phases - 1
        )
        hot = rng.random(n) < self.hot_frac
        src = np.empty(n, dtype=np.int64)
        dst = np.empty(n, dtype=np.int64)
        for i in range(n):
            if hot[i]:
                p = phase[i] % len(regions)
                src[i] = rng.choice(regions[p])
                dst[i] = rng.choice(regions[(p + 1) % len(regions)])
            else:
                src[i], dst[i] = rng.choice(all_hosts, size=2, replace=False)
        nbytes = rng.integers(self.min_bytes, self.max_bytes, size=n)
        self._drawn = (src, dst, nbytes, start)


def _scenario(family: str, seed: int):
    scenario = diurnal_scenario(
        n_regions=3, n_flows=N_FLOWS, duration=DURATION, seed=seed
    )
    if family == "ring":
        workload = RingArcTransfers(
            n_flows=N_FLOWS, duration=DURATION, n_phases=scenario.k,
            hot_frac=scenario.workload.hot_frac,
        )
        workload.prepare(scenario.net, np.random.default_rng(seed))
        scenario.workload = workload
    return scenario


@pytest.fixture(scope="module", params=[
    (family, seed) for family in ("diurnal", "ring") for seed in SEEDS
], ids=lambda p: f"{p[0]}-{p[1]}")
def audit_runs(request):
    family, seed = request.param
    scenario = _scenario(family, seed)
    tables = build_routing(scenario.net)
    runs = {}
    for policy in sorted(POLICIES):
        trace, kernel = run_kernel(
            scenario.net, tables, scenario.workload, seed=seed,
            engine="parallel", parts=scenario.parts,
            rebalance=RebalanceConfig(policy=policy, seed=seed),
        )
        runs[policy] = (trace, kernel.rebalancer.log)
    return runs


def test_ring_arc_hot_flows_cross_the_region_cut():
    scenario = _scenario("ring", 0)
    wl = scenario.workload
    src, dst, _, start = wl._drawn
    phase = np.minimum(
        (start / wl.phase_s).astype(np.int64), wl.n_phases - 1
    )
    parts = scenario.parts
    arc = (parts[src] == phase) & (parts[dst] == (phase + 1) % scenario.k)
    # hot_frac of the flows ride the arc (plus uniform ones by chance).
    assert arc.mean() >= wl.hot_frac - 0.1


def test_every_online_policy_beats_static(audit_runs):
    static_auc = audit_runs["static"][1].auc()
    for policy in sorted(set(POLICIES) - {"static"}):
        log = audit_runs[policy][1]
        assert log.migration_count >= 1
        assert log.auc() < static_auc, (
            f"{policy} auc {log.auc():.3f} !< static {static_auc:.3f}"
        )


def test_every_policy_leaves_the_trace_byte_identical(audit_runs):
    base = audit_runs["static"][0]
    for policy in sorted(set(POLICIES) - {"static"}):
        trace = audit_runs[policy][0]
        for field in TRACE_FIELDS:
            assert np.array_equal(
                getattr(base, field), getattr(trace, field)
            ), f"{policy}: {field}"
