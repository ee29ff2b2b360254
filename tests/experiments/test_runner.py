"""Integration tests for the end-to-end experiment runner.

These run a miniature version of the paper's pipeline (small workloads,
short horizons) and check the structural properties the full benchmarks
rely on.
"""

import numpy as np
import pytest

from repro.core.mapper import MapperConfig
from repro.engine.costmodel import CostModel
from repro.experiments.runner import (
    RunnerConfig,
    evaluate_setup,
    run_emulation,
)
from repro.experiments.setups import ExperimentSetup, campus_setup
from repro.experiments.workloads import build_workload
from repro.routing.spf import build_routing


@pytest.fixture(scope="module")
def small_setup():
    """Campus with a deliberately small, fast workload."""
    return campus_setup(
        "scalapack",
        intensity="light",
        workload_kwargs=dict(
            duration=60.0, http_servers=2, clients_per_server=3
        ),
    )


@pytest.fixture(scope="module")
def results(small_setup):
    return evaluate_setup(small_setup, seed=2)


def test_all_approaches_present(results):
    assert set(results) == {"top", "place", "profile"}


def test_outcomes_are_finite(results):
    for name, ev in results.items():
        o = ev.outcome
        assert np.isfinite(o.load_imbalance)
        assert o.app_emulation_time > 0
        assert o.network_emulation_time > 0
        assert o.app_emulation_time >= o.network_emulation_time - 1e-9


def test_mapping_covers_network(results, small_setup):
    n = small_setup.network.n_nodes
    for ev in results.values():
        assert ev.mapping.parts.shape == (n,)
        assert len(np.unique(ev.mapping.parts)) == small_setup.n_engine_nodes


def test_loads_identical_across_approaches(results):
    """Work conservation: the trace is mapping independent."""
    totals = {n: ev.metrics.loads.sum() for n, ev in results.items()}
    values = list(totals.values())
    assert all(v == pytest.approx(values[0]) for v in values)


def test_profile_diagnostics_present(results):
    diag = results["profile"].mapping.diagnostics
    assert diag["approach"] == "profile"
    assert "profiled_packets" in diag
    assert diag["profiled_packets"] > 0


def test_deterministic_given_seed(small_setup):
    a = evaluate_setup(small_setup, seed=4, approaches=("top",))
    b = evaluate_setup(small_setup, seed=4, approaches=("top",))
    assert a["top"].outcome.load_imbalance == pytest.approx(
        b["top"].outcome.load_imbalance
    )
    assert a["top"].outcome.app_emulation_time == pytest.approx(
        b["top"].outcome.app_emulation_time
    )


def test_run_emulation_netflow_toggle(small_setup):
    net = small_setup.network
    tables = build_routing(net)
    wl = small_setup.build_workload(1)
    wl.prepare(net, np.random.default_rng(1))
    without = run_emulation(net, tables, wl, seed=1)
    assert without.profile is None
    wl2 = small_setup.build_workload(1)
    wl2.prepare(net, np.random.default_rng(1))
    with_nf = run_emulation(net, tables, wl2, seed=1, collect_netflow=True)
    assert with_nf.profile is not None
    assert with_nf.profile.node_packets.sum() > 0


def test_runner_config_cost_model_plumbed(small_setup):
    expensive = RunnerConfig(cost=CostModel(per_packet_cost=300e-6))
    cheap = RunnerConfig(cost=CostModel(per_packet_cost=3e-6))
    r_exp = evaluate_setup(small_setup, seed=2, approaches=("top",),
                           config=expensive)
    r_cheap = evaluate_setup(small_setup, seed=2, approaches=("top",),
                             config=cheap)
    assert (
        r_exp["top"].outcome.network_emulation_time
        > r_cheap["top"].outcome.network_emulation_time
    )


def _profile_run_with_calls(setup, seed, monkeypatch):
    """``evaluate_setup`` plus its ``part_graph`` call count and every
    PROFILE candidate it mapped (in mapping order)."""
    from repro.core.mapper import Mapper
    from repro.obs.telemetry import Telemetry

    mapped = []
    real = Mapper.map_profile

    def recording(self, *args, **kwargs):
        mapped.append(real(self, *args, **kwargs))
        return mapped[-1]

    monkeypatch.setattr(Mapper, "map_profile", recording)
    tel = Telemetry()
    results = evaluate_setup(setup, seed=seed, telemetry=tel)
    return results, tel.counters["partition.calls"], mapped


def _unshortened_profile_mapping(setup, seed):
    """PROFILE's choice with both candidates always mapped and scored."""
    from dataclasses import replace

    from repro.core.mapper import Mapper
    from repro.engine.parallel import evaluate_mapping
    from repro.experiments.runner import PROFILE_SEED_OFFSET

    net, k, config = setup.network, setup.n_engine_nodes, RunnerConfig()
    tables = build_routing(net)
    workload = setup.build_workload(seed)
    workload.prepare(net, np.random.default_rng(seed))
    top = Mapper(net, n_parts=k, tables=tables, config=config.mapper).map_top()
    run = run_emulation(net, tables, workload, seed + PROFILE_SEED_OFFSET,
                        config=config, collect_netflow=True)
    candidates = []
    for use_segments in (True, False):
        cand = Mapper(
            net, n_parts=k, tables=tables,
            config=replace(config.mapper, use_segments=use_segments),
        ).map_profile(run.profile, initial_parts=top.parts)
        score = evaluate_mapping(
            run.trace, net, cand.parts, cost=config.cost,
            compute=workload.compute_profile(),
        ).wall_app
        cand.diagnostics["profiling_run_score"] = score
        candidates.append((score, cand))
    candidates.sort(key=lambda item: item[0])
    return candidates[0][1]


def test_profile_maps_one_candidate_without_segments(small_setup,
                                                     monkeypatch):
    """Fewer than two segments: both candidates would be one problem, so
    PROFILE is partitioned once (TOP 1 + PLACE 3 + PROFILE 3 = 7 calls,
    not 10) and ships what the two-candidate loop would have shipped."""
    results, calls, mapped = _profile_run_with_calls(small_setup, 2,
                                                     monkeypatch)
    assert len(mapped) == 1
    assert mapped[0].diagnostics["n_segments"] < 2
    assert calls == 7
    monkeypatch.undo()
    want = _unshortened_profile_mapping(small_setup, 2)
    got = results["profile"].mapping
    assert np.array_equal(got.parts, want.parts)
    assert got.diagnostics == want.diagnostics
    assert results["profile"].outcome.diagnostics == want.diagnostics


def test_profile_scores_both_candidates_with_segments(small_setup,
                                                      monkeypatch):
    """Two segments: both candidates are partitioned (10 calls) and the
    lower profiling-run score ships.  A one-bin second segment is a noise
    constraint, so here the unsegmented second candidate wins."""
    import repro.core.profile_map as profile_map

    def two_segments(lp_series, **kwargs):
        bins = np.arange(lp_series.shape[1])
        return [bins[:-1], bins[-1:]]

    monkeypatch.setattr(profile_map, "find_segments", two_segments)
    results, calls, mapped = _profile_run_with_calls(small_setup, 2,
                                                     monkeypatch)
    assert calls == 10
    assert [m.diagnostics["use_segments"] for m in mapped] == [True, False]
    assert mapped[0].diagnostics["n_segments"] == 2
    scores = [m.diagnostics["profiling_run_score"] for m in mapped]
    assert scores[1] < scores[0]
    assert results["profile"].mapping is mapped[1]
