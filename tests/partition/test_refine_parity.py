"""Differential parity: incremental refinement vs the in-tree oracles.

The optimized kernels (:func:`repro.partition.fm.fm_refine`,
:func:`repro.partition.kwayrefine.kway_refine`) maintain gain/connectivity
tables incrementally; the originals in :mod:`repro.partition._reference`
recompute them from scratch every pass.  Because every mirrored update is
the same element-wise IEEE operation, the two must agree *bit for bit*
under a fixed seed whenever the edge/vertex weights are exactly
representable — which covers both the small-integer random graphs below
and the paper topologies (bandwidth weights are integral floats).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.graphbuild import network_csr
from repro.partition._reference import (
    fm_refine_reference,
    kway_refine_reference,
)
from repro.partition.csr import CSRGraph
from repro.partition.fm import fm_refine
from repro.partition.kwayrefine import kway_refine


def random_graph(seed: int, n: int = 60, extra: int = 90) -> CSRGraph:
    """Connected random graph with small-integer weights (exact floats)."""
    rng = np.random.default_rng(seed)
    edges: dict[tuple[int, int], float] = {}
    for i in range(1, n):  # random spanning tree keeps it connected
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.integers(1, 9))
    for _ in range(extra):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        a, b = min(a, b), max(a, b)
        if a != b and (a, b) not in edges:
            edges[(a, b)] = float(rng.integers(1, 9))
    vwgt = rng.integers(1, 5, size=n).astype(np.float64)
    return CSRGraph.from_edges(
        n, [(u, v, w) for (u, v), w in edges.items()], vwgt=vwgt
    )


def weighted_cut(graph: CSRGraph, parts: np.ndarray) -> float:
    src = np.repeat(np.arange(graph.n), np.diff(graph.xadj))
    return float(graph.adjwgt[parts[graph.adjncy] != parts[src]].sum()) / 2.0


def paper_graph(name: str) -> CSRGraph:
    if name == "campus":
        from repro.topology.campus import campus_network

        net = campus_network()
    elif name == "teragrid":
        from repro.topology.teragrid import teragrid_network

        net = teragrid_network()
    else:
        from repro.topology.brite import brite_network

        net = brite_network(n_routers=80, n_hosts=60, seed=11)
    graph, _ = network_csr(net)
    return graph


# --------------------------------------------------------------------- #
# Bit-exact identity under fixed seeds
# --------------------------------------------------------------------- #
def assert_fm_parity(graph, parts0, seed, **kwargs) -> np.ndarray:
    """Same parts as the oracle *and* the same RNG stream consumed: the
    kernel draws its tie-breaks in blocks and rewinds, the oracle draws
    one scalar per heap push."""
    rng_got = np.random.default_rng(seed)
    rng_want = np.random.default_rng(seed)
    got = fm_refine(graph, parts0, rng=rng_got, **kwargs)
    want = fm_refine_reference(graph, parts0, rng=rng_want, **kwargs)
    assert np.array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


@pytest.mark.parametrize("seed", range(8))
def test_fm_identical_to_reference(seed):
    graph = random_graph(seed)
    init_rng = np.random.default_rng(seed + 100)
    parts0 = init_rng.integers(0, 2, size=graph.n).astype(np.int64)
    parts0[:2] = (0, 1)  # both sides populated
    got = assert_fm_parity(graph, parts0, seed, tolerance=1.1)
    assert weighted_cut(graph, got) <= weighted_cut(graph, parts0)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [3, 5])
def test_kway_identical_to_reference(seed, k):
    graph = random_graph(seed, n=70, extra=120)
    init_rng = np.random.default_rng(seed + 200)
    parts0 = init_rng.integers(0, k, size=graph.n).astype(np.int64)
    parts0[:k] = np.arange(k)  # every part populated
    got = kway_refine(
        graph, parts0, k, tolerance=1.2, rng=np.random.default_rng(seed)
    )
    want = kway_refine_reference(
        graph, parts0, k, tolerance=1.2, rng=np.random.default_rng(seed)
    )
    assert np.array_equal(got, want)
    assert weighted_cut(graph, got) <= weighted_cut(graph, parts0)


def test_fm_identical_from_unbalanced_start():
    """The repair pre-pass (the trickiest shared code path) also matches."""
    graph = random_graph(31)
    parts0 = np.zeros(graph.n, dtype=np.int64)
    parts0[: graph.n // 8] = 1  # far outside any reasonable envelope
    assert_fm_parity(graph, parts0, 5, tolerance=1.05)


def test_kway_identical_from_unbalanced_start():
    graph = random_graph(32, n=80, extra=160)
    parts0 = np.zeros(graph.n, dtype=np.int64)
    parts0[:4] = (1, 2, 3, 3)
    got = kway_refine(
        graph, parts0, 4, tolerance=1.1, rng=np.random.default_rng(6)
    )
    want = kway_refine_reference(
        graph, parts0, 4, tolerance=1.1, rng=np.random.default_rng(6)
    )
    assert np.array_equal(got, want)


def assert_kway_parity(graph, parts0, k, seed, **kwargs) -> np.ndarray:
    """Same parts as the oracle *and* the same RNG stream consumed — the
    second keeps every later multilevel level identical too."""
    rng_got = np.random.default_rng(seed)
    rng_want = np.random.default_rng(seed)
    got = kway_refine(graph, parts0, k, rng=rng_got, **kwargs)
    want = kway_refine_reference(graph, parts0, k, rng=rng_want, **kwargs)
    assert np.array_equal(got, want)
    assert rng_got.bit_generator.state == rng_want.bit_generator.state
    return got


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(6, 40),
    k=st.integers(2, 5),
    ncon=st.sampled_from((1, 2, 3)),
    shares=st.lists(st.integers(1, 4), min_size=5, max_size=5),
    crowd=st.integers(60, 100),
    tolerance=st.sampled_from((1.0, 1.05, 1.2)),
)
@example(seed=8, n=40, k=5, ncon=3, shares=[4, 1, 1, 2, 1], crowd=100,
         tolerance=1.05)
def test_kway_repair_identical_to_reference(
    seed, n, k, ncon, shares, crowd, tolerance
):
    """Balance repair from deliberately unbalanced starts (``crowd`` % of
    the vertices in part 0, uneven target shares) matches the oracle move
    for move.  Small-integer vertex and edge weights make gain ties common,
    so the per-candidate tie-break draws decide moves."""
    graph = random_graph(seed, n=n, extra=2 * n)
    wrng = np.random.default_rng(seed + 300)
    graph = graph.with_vwgt(
        wrng.integers(1, 4, size=(n, ncon)).astype(np.float64)
    )
    parts0 = np.where(
        wrng.random(n) * 100 < crowd, 0, wrng.integers(0, k, size=n)
    ).astype(np.int64)
    parts0[1:k] = np.arange(1, k)  # every part populated
    fracs = np.asarray(shares[:k], dtype=np.float64)
    assert_kway_parity(graph, parts0, k, seed,
                       target_fracs=fracs / fracs.sum(), tolerance=tolerance)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(6, 60),
    ncon=st.sampled_from((1, 2)),
    target_frac=st.sampled_from((0.5, 0.3, 0.62)),
    tolerance=st.sampled_from((1.0, 1.05, 1.2)),
    max_passes=st.integers(0, 8),
    crowd=st.integers(50, 100),
)
def test_fm_identical_to_reference_property(
    seed, n, ncon, target_frac, tolerance, max_passes, crowd
):
    """FM from unbalanced starts (``crowd`` % of the vertices on side 0)
    matches the oracle move for move and leaves the generator where one
    scalar draw per heap push leaves it.  Small-integer weights make gain
    ties common, so the tie-break draws decide moves; many passes push
    more entries than one block holds, so the rewind is exercised."""
    graph = random_graph(seed, n=n, extra=2 * n)
    wrng = np.random.default_rng(seed + 400)
    graph = graph.with_vwgt(
        wrng.integers(1, 4, size=(n, ncon)).astype(np.float64)
    )
    parts0 = np.where(wrng.random(n) * 100 < crowd, 0, 1).astype(np.int64)
    parts0[:2] = (0, 1)  # both sides populated
    assert_fm_parity(graph, parts0, seed, target_frac=target_frac,
                     tolerance=tolerance, max_passes=max_passes)


@pytest.mark.parametrize("seed", range(4))
def test_kway_repair_leaves_overloaded_part_one_member(seed):
    """Part 0 holds the two heavy vertices (8 > cap 6); repair moves one
    out and leaves it a single member.  A part that starts with one member
    is never overloaded — every cap is at least the heaviest vertex — so
    this is the tightest start the repair can meet."""
    graph = random_graph(seed, n=4, extra=6).with_vwgt(
        np.array([4.0, 4.0, 1.0, 1.0])
    )
    parts0 = np.array([0, 0, 1, 1], dtype=np.int64)
    got = assert_kway_parity(graph, parts0, 2, seed, tolerance=1.2,
                             max_passes=0)
    assert got[0] != got[1]
    assert np.bincount(got, minlength=2)[0] == 1


# --------------------------------------------------------------------- #
# Paper topologies: no worse than the oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["campus", "teragrid", "brite"])
def test_fm_parity_on_paper_topologies(name):
    graph = paper_graph(name)
    init_rng = np.random.default_rng(7)
    parts0 = init_rng.integers(0, 2, size=graph.n).astype(np.int64)
    parts0[:2] = (0, 1)
    got = assert_fm_parity(graph, parts0, 0, tolerance=1.15)
    assert weighted_cut(graph, got) <= weighted_cut(graph, parts0)


@pytest.mark.parametrize("name", ["campus", "teragrid", "brite"])
def test_kway_parity_on_paper_topologies(name):
    graph = paper_graph(name)
    k = 4
    init_rng = np.random.default_rng(9)
    parts0 = init_rng.integers(0, k, size=graph.n).astype(np.int64)
    parts0[:k] = np.arange(k)
    got = kway_refine(
        graph, parts0, k, tolerance=1.2, rng=np.random.default_rng(0)
    )
    want = kway_refine_reference(
        graph, parts0, k, tolerance=1.2, rng=np.random.default_rng(0)
    )
    assert np.array_equal(got, want)
    assert weighted_cut(graph, got) <= weighted_cut(graph, parts0)
