"""Perf guards: the rebalancer's cost promises, as operation counters.

No wall clocks — every bound here is a deterministic counter that betrays
a regression to the expensive behaviour:

* refinement at a trigger is *incremental*: one connectivity-table build
  per proposal, boundary-local scanning, never a full-graph rescan;
* the game-theoretic policies move boundary vertices only;
* LP channel state is serialized for migrated routers exactly — nothing
  for no-ops, nothing for rejected proposals; and
* a quiescent run migrates nothing at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.kernel import run_kernel
from repro.experiments.setups import diurnal_scenario
from repro.experiments.workloads import DiurnalTransfers
from repro.rebalance import (
    CHANNEL_STATE_BYTES,
    RebalanceConfig,
    boundary_vertices,
)
from repro.routing.spf import build_routing

SEED = 0


def _rebalanced_run(policy, **config_kwargs):
    scenario = diurnal_scenario(seed=SEED)
    tables = build_routing(scenario.net)
    _, kernel = run_kernel(
        scenario.net, tables, scenario.workload, seed=SEED,
        engine="parallel", parts=scenario.parts,
        rebalance=RebalanceConfig(
            policy=policy, seed=SEED, **config_kwargs
        ),
    )
    return scenario, kernel, kernel.rebalancer


@pytest.fixture(scope="module")
def runs():
    return {
        policy: _rebalanced_run(policy)
        for policy in ("hysteresis", "kurve")
    }


def test_hysteresis_refinement_is_incremental(runs):
    """kway refinement builds its (n, k) connectivity table once per
    proposal — re-scanning per pass would multiply this counter."""
    _, _, reb = runs["hysteresis"]
    proposals = len(reb.log.events)
    assert proposals >= 1, "scenario must actually trigger"
    assert reb.refine_stats.conn_builds == proposals
    assert reb.refine_stats.full_gain_builds == 0  # k-way path, not FM
    # Scanning is boundary-local: interior vertices are never inspected,
    # so scans stay strictly under the full-rescan cost of passes × n.
    n = len(reb.parts)
    assert reb.refine_stats.boundary_scans < reb.refine_stats.passes * n


@pytest.mark.parametrize("policy", ["kurve"])
def test_game_policies_move_within_boundary_neighborhood(runs, policy):
    """Migration sets are neighborhood-local: every mover was a boundary
    vertex of the partition at trigger time, or adjacent to another mover
    (boundary growth as the move cascade proceeds) — never an interior
    relocation.  (Hysteresis is guarded through its RefineStats counters
    instead: kway refinement may bounce an enabling vertex back, dropping
    it from the final diff.)"""
    _, _, reb = runs[policy]
    graph = reb._graph
    adopted = reb.log.migrations()
    assert adopted, "scenario must actually migrate"
    for event in adopted:
        assert event.parts_before is not None
        boundary = set(
            boundary_vertices(graph, event.parts_before).tolist()
        )
        assert event.n_boundary == len(boundary)
        movers = set(event.routers)
        cascade = boundary | movers
        for v in movers - boundary:
            neighbors = set(
                graph.adjncy[graph.xadj[v]:graph.xadj[v + 1]].tolist()
            )
            assert neighbors & cascade, (
                f"router {v} is neither boundary nor adjacent to the "
                f"move cascade"
            )


@pytest.mark.parametrize("policy", ["hysteresis", "kurve"])
def test_serialization_covers_migrated_routers_exactly(runs, policy):
    """The kernel serialized channel state for adopted movers and nothing
    else: per-router payloads sum to the log's byte accounting."""
    scenario, kernel, reb = runs[policy]
    adopted = reb.log.migrations()
    assert adopted
    moved = [r for e in adopted for r in e.routers]
    degrees = sum(scenario.net.degree(int(r)) for r in moved)
    assert kernel.channels_migrated == degrees
    assert kernel.migration_bytes == degrees * CHANNEL_STATE_BYTES
    assert kernel.migration_bytes == reb.log.bytes_moved
    assert kernel.routers_migrated == len(moved)
    assert kernel.migrations_applied == reb.log.migration_count
    assert kernel.migration_noops == 0  # adopted sets never contain no-ops


@pytest.mark.parametrize("policy", ["hysteresis", "kurve"])
def test_proposals_respect_move_budget(runs, policy):
    _, _, reb = runs[policy]
    budget = reb.config.max_moves
    assert budget is not None
    for event in reb.log.events:
        assert event.n_moved <= budget


def test_quiescent_run_migrates_nothing():
    """A balanced workload (no hot region) never clears the trigger, so
    the rebalancer observes but serializes nothing."""
    scenario = diurnal_scenario(seed=SEED)
    workload = DiurnalTransfers(
        n_flows=400, duration=4.0, n_phases=scenario.k, hot_frac=0.0,
    )
    workload.prepare(scenario.net, np.random.default_rng(SEED))
    tables = build_routing(scenario.net)
    _, kernel = run_kernel(
        scenario.net, tables, workload, seed=SEED,
        engine="parallel", parts=scenario.parts,
        rebalance=RebalanceConfig(policy="hysteresis", seed=SEED),
    )
    reb = kernel.rebalancer
    assert len(reb.log.bin_times) >= 4, "run must produce a timeline"
    assert reb.log.events == []
    assert kernel.migrations_applied == 0
    assert kernel.channels_migrated == 0
    assert kernel.migration_bytes == 0
    # Refinement machinery never even woke up.
    assert reb.refine_stats.conn_builds == 0
    assert reb.refine_stats.boundary_scans == 0
    assert np.array_equal(reb.parts, scenario.parts)
