"""Tests for the §2.3 multi-objective combination algorithm."""

import numpy as np
import pytest

from repro.core.graphbuild import latency_objective_weights, network_csr
from repro.core.multi_objective import combine_objectives


@pytest.fixture
def setup(tiny_network):
    graph, link_index = network_csr(tiny_network)
    w_lat = latency_objective_weights(tiny_network)
    rng = np.random.default_rng(5)
    w_bw = rng.uniform(0.0, 100.0, size=tiny_network.n_links)
    return graph, link_index, w_lat, w_bw


def test_formula_exact(setup):
    graph, link_index, w_lat, w_bw = setup
    result = combine_objectives(graph, link_index, w_lat, w_bw, k=2, p=0.7)
    expected = 0.7 * w_lat / result.c_latency + 0.3 * w_bw / result.c_bandwidth
    assert np.allclose(result.link_weights, expected)


def test_p_extremes(setup):
    graph, link_index, w_lat, w_bw = setup
    r1 = combine_objectives(graph, link_index, w_lat, w_bw, k=2, p=1.0)
    assert np.allclose(r1.link_weights, w_lat / r1.c_latency)
    r0 = combine_objectives(graph, link_index, w_lat, w_bw, k=2, p=0.0)
    assert np.allclose(r0.link_weights, w_bw / r0.c_bandwidth)


def test_p_out_of_range(setup):
    graph, link_index, w_lat, w_bw = setup
    with pytest.raises(ValueError):
        combine_objectives(graph, link_index, w_lat, w_bw, k=2, p=1.5)


def test_mismatched_vectors(setup):
    graph, link_index, w_lat, w_bw = setup
    with pytest.raises(ValueError):
        combine_objectives(graph, link_index, w_lat, w_bw[:-1], k=2)


def test_zero_cut_guarded(setup):
    """All-zero traffic weights give C_bandwidth = 0; no division blowup."""
    graph, link_index, w_lat, _ = setup
    zeros = np.zeros_like(w_lat)
    result = combine_objectives(graph, link_index, w_lat, zeros, k=2, p=0.5)
    assert np.all(np.isfinite(result.link_weights))


def test_normalization_is_scale_invariant(setup):
    """Scaling one objective by a constant does not change the combination
    (that is the whole point of normalizing by the optimal cuts)."""
    graph, link_index, w_lat, w_bw = setup
    a = combine_objectives(graph, link_index, w_lat, w_bw, k=2, p=0.5, seed=3)
    b = combine_objectives(graph, link_index, w_lat, w_bw * 1000.0, k=2,
                           p=0.5, seed=3)
    assert np.allclose(a.link_weights, b.link_weights)


def test_normalizing_runs_see_engine_capacities(campus):
    """With uneven engine capacities the single-objective runs that give
    C_latency / C_bandwidth are balanced to the same shares as the final
    run, not to uniform ones."""
    from repro.core.graphbuild import link_weights_to_adjwgt
    from repro.core.mapper import Mapper
    from repro.core.place import build_place_inputs
    from repro.partition.api import part_graph

    caps = np.array([2.0, 1.0, 1.0])
    mapper = Mapper(campus, n_parts=3, engine_capacities=caps)
    diag = mapper.map_place([], []).diagnostics
    cfg = mapper.config
    inputs = build_place_inputs(
        campus, mapper.tables, [], [], memory_weight=cfg.memory_weight,
        memory_mode=cfg.memory_mode,
        use_representatives=cfg.use_representatives,
    )
    graph, link_index = network_csr(campus)
    g_lat = graph.with_vwgt(inputs.vwgt).with_adjwgt(
        link_weights_to_adjwgt(inputs.link_weights_latency, link_index)
    )

    def c_latency(target_fracs):
        return part_graph(g_lat, 3, tolerance=cfg.tolerance, seed=cfg.seed,
                          target_fracs=target_fracs).weighted_cut

    assert diag["c_latency"] == c_latency(caps / caps.sum())
    assert diag["c_latency"] != c_latency(None)
