"""Behavioural tests for all k-way partitioning algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition.api import ALGORITHMS, part_graph
from repro.partition.baselines import _bfs_order, linear_partition
from repro.partition.csr import CSRGraph
from repro.partition.metrics import max_imbalance, weighted_edge_cut

QUALITY = ("multilevel", "recursive", "spectral")
ALL = tuple(sorted(ALGORITHMS))


@pytest.mark.parametrize("algorithm", ALL)
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_valid_assignment(grid_graph, algorithm, k):
    r = part_graph(grid_graph, k, algorithm=algorithm, seed=3)
    assert r.parts.shape == (grid_graph.n,)
    assert set(np.unique(r.parts)) <= set(range(k))
    # Every part is non-empty for these sizes.
    assert len(np.unique(r.parts)) == k


@pytest.mark.parametrize("algorithm", ALL)
def test_deterministic_given_seed(weighted_graph, algorithm):
    a = part_graph(weighted_graph, 4, algorithm=algorithm, seed=9)
    b = part_graph(weighted_graph, 4, algorithm=algorithm, seed=9)
    assert np.array_equal(a.parts, b.parts)


@pytest.mark.parametrize("algorithm", QUALITY)
def test_quality_beats_random(weighted_graph, algorithm):
    quality = part_graph(weighted_graph, 4, algorithm=algorithm, seed=2)
    random = part_graph(weighted_graph, 4, algorithm="random", seed=2)
    assert quality.weighted_cut < random.weighted_cut


@pytest.mark.parametrize("algorithm", QUALITY)
def test_balance_respected(weighted_graph, algorithm):
    r = part_graph(weighted_graph, 3, algorithm=algorithm, tolerance=1.10,
                   seed=5)
    # The envelope plus slack for the heaviest-vertex escape hatch.
    assert r.max_imbalance <= 1.35


def test_k1_is_trivial(weighted_graph):
    r = part_graph(weighted_graph, 1)
    assert r.weighted_cut == 0.0
    assert np.array_equal(r.parts, np.zeros(weighted_graph.n))


def test_k_larger_than_n_rejected():
    g = CSRGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        part_graph(g, 5, algorithm="multilevel")


def test_unknown_algorithm_rejected(grid_graph):
    with pytest.raises(ValueError, match="unknown algorithm"):
        part_graph(grid_graph, 2, algorithm="does-not-exist")


def test_multilevel_finds_planted_clusters():
    """Two dense clusters joined by one weak edge: the bisection is obvious."""
    edges = []
    for base in (0, 10):
        for i in range(10):
            for j in range(i + 1, 10):
                edges.append((base + i, base + j, 5.0))
    edges.append((0, 10, 0.1))
    g = CSRGraph.from_edges(20, edges)
    r = part_graph(g, 2, algorithm="multilevel", seed=1)
    assert r.weighted_cut == pytest.approx(0.1)
    assert len(set(r.parts[:10])) == 1
    assert len(set(r.parts[10:])) == 1


def test_multilevel_handles_disconnected_graph():
    g = CSRGraph.from_edges(8, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)])
    r = part_graph(g, 2, algorithm="multilevel", seed=0)
    assert r.parts.shape == (8,)
    assert set(np.unique(r.parts)) <= {0, 1}


def test_multiconstraint_balances_both_columns(rng):
    """With two anti-correlated weight columns, both must stay balanced."""
    import networkx as nx

    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(6, 6))
    edges = [(u, v, 1.0) for u, v in g.edges()]
    n = 36
    col1 = np.ones(n)
    col2 = np.zeros(n)
    col2[: n // 2] = 2.0  # concentrated in the first half
    graph = CSRGraph.from_edges(n, edges, vwgt=np.stack([col1, col2], axis=1))
    r = part_graph(graph, 2, algorithm="multilevel", tolerance=1.2, seed=4)
    assert r.max_imbalance <= 1.45


def test_greedy_kcluster_count_balanced(weighted_graph):
    r = part_graph(weighted_graph, 4, algorithm="greedy-kcluster", seed=7)
    counts = np.bincount(r.parts, minlength=4)
    assert counts.min() >= 1


def test_linear_partition_contiguity(grid_graph):
    """BFS chunks of a grid yield far fewer cut edges than random."""
    lin = part_graph(grid_graph, 4, algorithm="linear", seed=1)
    rnd = part_graph(grid_graph, 4, algorithm="random", seed=1)
    assert lin.edge_cut < rnd.edge_cut


@given(
    n=st.integers(min_value=6, max_value=40),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_multilevel_property_valid_on_random_graphs(n, k, seed):
    """Property: multilevel always yields a complete, in-range assignment."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]  # ring keeps it connected
    extra = rng.integers(0, n, size=(n // 2, 2))
    edges += [(int(a), int(b), 1.0) for a, b in extra if a != b]
    g = CSRGraph.from_edges(n, edges)
    if k > n:
        return
    r = part_graph(g, k, algorithm="multilevel", seed=seed)
    assert r.parts.shape == (n,)
    assert r.parts.min() >= 0 and r.parts.max() < k


def test_algorithm_aliases_and_case(grid_graph):
    canonical = part_graph(grid_graph, 3, algorithm="multilevel", seed=2)
    for alias in ("METIS", "kway", "Multilevel", "MULTILEVEL", " metis "):
        r = part_graph(grid_graph, 3, algorithm=alias, seed=2)
        assert r.algorithm == "multilevel"
        assert np.array_equal(r.parts, canonical.parts)
    assert part_graph(grid_graph, 3, algorithm="RB", seed=2).algorithm == \
        "recursive"
    assert part_graph(grid_graph, 3, algorithm="hierarchical",
                      seed=2).algorithm == "linear"


def test_unknown_algorithm_message_lists_choices(grid_graph):
    with pytest.raises(ValueError, match="multilevel") as excinfo:
        part_graph(grid_graph, 2, algorithm="banana")
    assert "aliases" in str(excinfo.value)


def test_part_graph_is_keyword_only(grid_graph):
    with pytest.raises(TypeError):
        part_graph(grid_graph, 2, "multilevel")  # noqa: the point


def _path(n: int) -> CSRGraph:
    return CSRGraph.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def test_linear_partition_chunks_end_on_boundaries():
    """A vertex whose cumulative weight ends exactly on a chunk boundary
    closes that chunk instead of opening the next one."""
    r = part_graph(_path(12), 4, algorithm="linear", seed=0)
    assert np.bincount(r.parts, minlength=4).tolist() == [3, 3, 3, 3]
    assert r.max_imbalance == pytest.approx(1.0)
    r = part_graph(_path(4), 4, algorithm="linear", seed=0)
    assert sorted(r.parts.tolist()) == [0, 1, 2, 3]


def test_linear_partition_visits_neighbours_in_id_order():
    """Vertex 0's neighbours are 2 and 9; the set ``{2, 9}`` iterates 9
    first, so BFS must visit neighbours sorted, not in set order."""
    edges = [(0, 2), (0, 9), (2, 3), (2, 5), (9, 1), (9, 4), (3, 7),
             (4, 8), (5, 6)]
    graph = CSRGraph.from_edges(10, [(u, v, 1.0) for u, v in edges])
    assert _bfs_order(graph, 0).tolist() == [0, 2, 9, 3, 5, 1, 4, 7, 6, 8]
    # Seed 23 draws start vertex 0.
    parts = linear_partition(graph, 2, rng=np.random.default_rng(23))
    assert parts.tolist() == [0, 1, 0, 0, 1, 0, 1, 1, 1, 0]


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), 0.5, -1.0,
                                       0.999])
def test_part_graph_rejects_meaningless_tolerance(grid_graph, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        part_graph(grid_graph, 2, tolerance=tolerance)


@pytest.mark.parametrize("fracs", [[float("nan"), 1.0], [float("inf"), 1.0],
                                   [0.0, 1.0], [-1.0, 2.0]])
@pytest.mark.parametrize("algorithm", ["multilevel", "recursive", "linear"])
def test_part_graph_rejects_meaningless_target_fracs(grid_graph, fracs,
                                                    algorithm):
    with pytest.raises(ValueError, match="target_fracs"):
        part_graph(grid_graph, 2, algorithm=algorithm, target_fracs=fracs)


def test_part_graph_accepts_exact_tolerance(grid_graph):
    r = part_graph(grid_graph, 2, tolerance=1.0, seed=1)
    assert len(np.unique(r.parts)) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where", ["adjwgt", "vwgt"])
def test_part_graph_rejects_non_finite_weights(bad, where):
    """A NaN gain never equals itself, so FM's stale-entry test re-pushed
    the vertex forever: this call used to spin instead of failing."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]
    vwgt = np.ones(4)
    if where == "adjwgt":
        edges[1] = (1, 2, bad)
    else:
        vwgt[2] = bad
    graph = CSRGraph.from_edges(4, edges, vwgt=vwgt)
    with pytest.raises(ValueError, match=where):
        part_graph(graph, 2)
