"""Differential parity: list-walking growth and matching vs their oracles.

:func:`repro.partition.initial.greedy_graph_growing` and
:func:`repro.partition.coarsen.heavy_edge_matching` walk plain-list
mirrors of the CSR arrays; the originals in
:mod:`repro.partition._reference` make numpy calls per vertex.  Growth
adds floats, so it must reproduce numpy's summation order (left to right
below 8 terms, pairwise from 8 up); matching only compares weights.  Both
must return the same assignment *and* leave the generator in the same
state, on any weights — not only exactly representable ones.

The generated graphs mix hubs of degree ≥ 16 (gain sums past numpy's
pairwise threshold), up to 10 constraints (the mean over ``grown`` past
it too), weights drawn from a three-value pool (heap, argmax and leaf
ranking ties) or spanning twelve decades, pendant stars (two-hop
pairing) and several components (the restart draw).  A gain that differs
in its last bit rarely reorders the heap, so the summation rule itself is
pinned exactly by :func:`test_np_sum_follows_numpy_order`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition._reference import (
    greedy_graph_growing_reference,
    grow_bisection_reference,
    heavy_edge_matching_reference,
)
from repro.partition.coarsen import heavy_edge_matching
from repro.partition.csr import CSRGraph
from repro.partition.initial import (
    _np_sum,
    greedy_graph_growing,
    grow_bisection,
)


def _weights(rng: np.random.Generator, size: int, mode: str) -> np.ndarray:
    if mode == "tied":
        return rng.choice([1.0, 2.5, 7.0], size=size)
    if mode == "scales":
        return rng.random(size) * 10.0 ** rng.integers(-6, 6, size=size)
    return rng.uniform(0.1, 3.0, size=size)


def _graph(seed, n, components, hubs, extra, pendants, ncon,
           mode) -> CSRGraph:
    """A spanning tree per component, ``hubs`` vertices of degree ≥ 16
    within their component, ``extra`` random chords, and ``pendants``
    degree-1 leaves on vertex 0 (the stars two-hop matching pairs up)."""
    rng = np.random.default_rng(seed)
    comp = np.arange(n) % components
    members = [np.flatnonzero(comp == c) for c in range(components)]
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        if a != b:
            edges.add((min(a, b), max(a, b)))

    for group in members:
        for i in range(1, len(group)):
            add(int(group[rng.integers(i)]), int(group[i]))
    for hub in rng.choice(n, size=min(hubs, n), replace=False):
        group = members[comp[hub]]
        for leaf in rng.choice(group, size=min(17, len(group)), replace=False):
            add(int(hub), int(leaf))
    for _ in range(extra):
        a, b = (int(x) for x in rng.integers(n, size=2))
        if comp[a] == comp[b]:
            add(a, b)
    for leaf in range(n, n + pendants):
        add(0, leaf)
    n += pendants
    ordered = sorted(edges)
    w = _weights(rng, len(ordered), mode)
    vwgt = _weights(rng, n * ncon, mode).reshape(n, ncon)
    if ncon > 1:
        vwgt[:, -1] = 0.0  # a zero-total constraint column
    return CSRGraph.from_edges(
        n, [(a, b, float(x)) for (a, b), x in zip(ordered, w)], vwgt=vwgt
    )


graphs = st.builds(
    _graph,
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 70),
    components=st.integers(1, 4),
    hubs=st.integers(0, 3),
    extra=st.integers(0, 60),
    pendants=st.integers(0, 12),
    ncon=st.integers(1, 10),
    mode=st.sampled_from(["tied", "scales", "uniform"]),
)


@settings(max_examples=150, deadline=None)
@given(graph=graphs, frac=st.floats(0.05, 0.95), rng_seed=st.integers(0, 999),
       n_tries=st.integers(1, 4))
def test_greedy_graph_growing_matches_oracle(graph, frac, rng_seed, n_tries):
    rng = np.random.default_rng(rng_seed)
    want_rng = np.random.default_rng(rng_seed)
    got = greedy_graph_growing(graph, frac, rng, n_tries=n_tries)
    want = greedy_graph_growing_reference(graph, frac, want_rng,
                                          n_tries=n_tries)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(graph=graphs, frac=st.floats(0.05, 0.95), rng_seed=st.integers(0, 999))
def test_grow_bisection_matches_oracle(graph, frac, rng_seed):
    rng = np.random.default_rng(rng_seed)
    want_rng = np.random.default_rng(rng_seed)
    got = grow_bisection(graph, frac, rng)
    want = grow_bisection_reference(graph, frac, want_rng)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(graph=graphs, rng_seed=st.integers(0, 999), two_hop=st.booleans())
def test_heavy_edge_matching_matches_oracle(graph, rng_seed, two_hop):
    rng = np.random.default_rng(rng_seed)
    want_rng = np.random.default_rng(rng_seed)
    got = heavy_edge_matching(graph, rng, two_hop=two_hop)
    want = heavy_edge_matching_reference(graph, want_rng, two_hop=two_hop)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("length", range(0, 40))
def test_np_sum_follows_numpy_order(length):
    """Both branches of the summation helper equal ``np.sum`` exactly on
    values whose sum depends on the order of addition."""
    rng = np.random.default_rng(length)
    for _ in range(200):
        values = rng.random(length) * 10.0 ** rng.integers(-8, 8, size=length)
        assert _np_sum(values.tolist()) == values.sum()
