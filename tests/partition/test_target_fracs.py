"""Tests for uneven target fractions (heterogeneous engine capacities)."""

import numpy as np
import pytest

from repro.partition.api import part_graph
from repro.partition.csr import CSRGraph
from repro.partition.metrics import imbalance_vector, part_weights


@pytest.fixture
def big_grid():
    import networkx as nx

    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(12, 12))
    return CSRGraph.from_edges(144, [(u, v, 1.0) for u, v in g.edges()])


@pytest.mark.parametrize("algorithm", ["multilevel", "recursive", "random",
                                       "linear"])
def test_shares_follow_targets(big_grid, algorithm):
    fracs = np.array([0.5, 0.3, 0.2])
    r = part_graph(big_grid, 3, algorithm=algorithm, tolerance=1.15,
                   seed=1, target_fracs=fracs)
    weights = part_weights(big_grid, r.parts, 3)[:, 0]
    shares = weights / weights.sum()
    assert np.all(np.abs(shares - fracs) < 0.12)


def test_imbalance_measured_against_targets(big_grid):
    fracs = np.array([0.5, 0.3, 0.2])
    r = part_graph(big_grid, 3, tolerance=1.15, seed=1, target_fracs=fracs)
    # Relative to the requested shares, the partition is near-balanced...
    assert r.max_imbalance < 1.3
    # ...while against uniform targets it is deliberately unbalanced.
    uniform = imbalance_vector(big_grid, r.parts, 3)
    assert uniform.max() > 1.3


def test_unsupported_algorithms_reject(big_grid):
    fracs = np.array([0.5, 0.5])
    for algo in ("spectral", "greedy-kcluster"):
        with pytest.raises(ValueError):
            part_graph(big_grid, 2, algorithm=algo, target_fracs=fracs)


def test_bad_fracs_rejected(big_grid):
    with pytest.raises(ValueError):
        part_graph(big_grid, 3, target_fracs=np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        part_graph(big_grid, 2, target_fracs=np.array([0.5, -0.1]))


def test_fracs_normalized(big_grid):
    """Unnormalized capacities work (2:1:1 == 0.5:0.25:0.25)."""
    a = part_graph(big_grid, 3, seed=2, target_fracs=np.array([2.0, 1.0, 1.0]))
    b = part_graph(big_grid, 3, seed=2,
                   target_fracs=np.array([0.5, 0.25, 0.25]))
    assert np.array_equal(a.parts, b.parts)


def test_mapper_engine_capacities(campus):
    from repro.core.mapper import Mapper

    caps = np.array([2.0, 1.0, 1.0])
    mapper = Mapper(campus, n_parts=3, engine_capacities=caps)
    mapping = mapper.map_top()
    weights = mapping.partition.part_weight[:, 0]
    shares = weights / weights.sum()
    assert shares[0] > shares[1] and shares[0] > shares[2]
    with pytest.raises(ValueError):
        Mapper(campus, n_parts=3, engine_capacities=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Mapper(campus, n_parts=2, engine_capacities=np.array([1.0, -1.0]))


def test_engine_speeds_scale_wall_time(tiny_routed):
    from repro.engine.kernel import EmulationKernel
    from repro.engine.packet import Transfer
    from repro.engine.parallel import evaluate_mapping

    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=4)
    kern.submit_transfer(Transfer(src=4, dst=6, nbytes=2e5), 0.0)
    trace = kern.run(until=30.0)
    parts = np.zeros(net.n_nodes, dtype=np.int64)
    slow = evaluate_mapping(trace, net, parts,
                            engine_speeds=np.array([1.0]))
    fast = evaluate_mapping(trace, net, parts,
                            engine_speeds=np.array([4.0]))
    assert fast.wall_network == pytest.approx(slow.wall_network / 4.0)
    with pytest.raises(ValueError):
        evaluate_mapping(trace, net, parts, engine_speeds=np.array([0.0]))


@pytest.mark.parametrize("algorithm", ["multilevel", "recursive"])
@pytest.mark.parametrize("n,k", [(3, 3), (5, 3), (8, 3), (5, 2), (30, 2)])
def test_skewed_fracs_leave_no_part_empty(algorithm, n, k):
    """A bisection whose growth swallows the whole graph falls back to a
    random split; that split keeps a vertex on each side even when the
    left share rounds to every vertex (0.98 of 5 vertices is 5), so up
    to three parts every part is populated whenever ``n >= k``."""
    path = CSRGraph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    fracs = np.full(k, 0.02)
    fracs[0] = 1.0 - 0.02 * (k - 1)
    r = part_graph(path, k, algorithm=algorithm, seed=0, target_fracs=fracs)
    assert np.all(np.bincount(r.parts, minlength=k) >= 1)
