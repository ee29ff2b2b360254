"""Perf guards: the refinement kernels must stay incremental.

The scalability of the large-N partitioning path rests on one invariant:
gain/connectivity tables are built **once per call** and then maintained by
neighborhood-local updates.  A regression back to per-pass O(n) / O(n·k)
rescanning would still produce correct partitions — only slowly — so these
tests assert the :class:`~repro.partition.perf.RefineStats` operation
counters directly instead of timing anything.
"""

import numpy as np

from repro.partition._reference import fm_refine_reference
from repro.partition.fm import fm_refine
from repro.partition.kwayrefine import kway_refine
from repro.partition.perf import RefineStats
from tests.partition.test_refine_parity import random_graph


def test_fm_builds_gain_table_once_across_passes():
    graph = random_graph(1, n=120, extra=240)
    parts0 = np.random.default_rng(2).integers(0, 2, size=graph.n)
    parts0[:2] = (0, 1)
    stats = RefineStats()
    fm_refine(graph, parts0, tolerance=1.1, max_passes=8,
              rng=np.random.default_rng(0), stats=stats)
    # The kernel must have iterated (otherwise the guard proves nothing) …
    assert stats.passes >= 2
    assert stats.moves > 0
    # … yet built the gain table exactly once.
    assert stats.full_gain_builds == 1
    assert stats.conn_builds == 0


def test_fm_neighbor_updates_scale_with_moves_not_passes():
    graph = random_graph(3, n=120, extra=240)
    parts0 = np.random.default_rng(4).integers(0, 2, size=graph.n)
    parts0[:2] = (0, 1)
    stats = RefineStats()
    fm_refine(graph, parts0, tolerance=1.1, max_passes=8,
              rng=np.random.default_rng(0), stats=stats)
    max_degree = int(np.diff(graph.xadj).max())
    # Incremental updates touch only the moved vertex's neighborhood (this
    # includes best-prefix rollbacks — they repair the table the same way).
    assert stats.neighbor_updates <= stats.moves * max_degree


def test_kway_builds_connectivity_table_once_across_passes():
    graph = random_graph(5, n=150, extra=300)
    parts0 = np.random.default_rng(6).integers(0, 4, size=graph.n)
    parts0[:4] = np.arange(4)
    stats = RefineStats()
    kway_refine(graph, parts0, 4, tolerance=1.2, max_passes=8,
                rng=np.random.default_rng(0), stats=stats)
    assert stats.passes >= 2
    assert stats.moves > 0
    assert stats.conn_builds == 1
    assert stats.full_gain_builds == 0


def test_kway_scans_boundary_vertices_only():
    """On a structured graph with a good partition, the cached external-
    weight test skips interior vertices, so gain passes inspect far fewer
    than n vertices each."""
    import networkx as nx

    from repro.partition.csr import CSRGraph

    side = 16
    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(side, side))
    graph = CSRGraph.from_edges(
        side * side, [(u, v, 1.0) for u, v in g.edges()]
    )
    # Contiguous column blocks: only the three seam columns are boundary.
    parts0 = (np.arange(side * side) // side) * 4 // side
    stats = RefineStats()
    kway_refine(graph, parts0, 4, tolerance=1.1, max_passes=8,
                rng=np.random.default_rng(0), stats=stats)
    assert stats.passes >= 1
    # Boundary is ~2 columns per seam = 6/16 of the grid; anything close to
    # n per pass means the interior-vertex shortcut is gone.
    assert stats.boundary_scans < stats.passes * graph.n // 2


class _CountingRNG:
    """A ``Generator`` stand-in that counts ``random`` calls."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self._rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_kway_repair_draws_once_per_move_not_per_candidate():
    """Balance repair scores every (member, destination) candidate of the
    overloaded part in one vector pass: one tie-break draw call per move."""
    graph = random_graph(32, n=80, extra=160)
    parts0 = np.zeros(graph.n, dtype=np.int64)
    parts0[:4] = (1, 2, 3, 3)
    stats = RefineStats()
    rng = _CountingRNG(np.random.default_rng(6))
    # No gain passes: every move counted is a repair move.
    kway_refine(graph, parts0, 4, tolerance=1.1, max_passes=0, rng=rng,
                stats=stats)
    assert stats.moves >= 20
    assert rng.random_calls <= stats.moves


def test_fm_draws_tie_breaks_in_blocks_not_per_push():
    """FM takes its heap tie-breaks from the generator in vector blocks of
    at least ``n`` draws and rewinds once at the end, so its ``random``
    calls do not grow with heap pushes.  The oracle draws one scalar per
    push, so its call count is the push count."""
    graph = random_graph(1, n=120, extra=240)
    parts0 = np.random.default_rng(2).integers(0, 2, size=graph.n)
    parts0[:2] = (0, 1)
    rng = _CountingRNG(np.random.default_rng(0))
    oracle_rng = _CountingRNG(np.random.default_rng(0))
    stats = RefineStats()
    fm_refine(graph, parts0, tolerance=1.1, max_passes=8, rng=rng,
              stats=stats)
    fm_refine_reference(graph, parts0, tolerance=1.1, max_passes=8,
                        rng=oracle_rng)
    pushes = oracle_rng.random_calls
    assert stats.passes >= 2
    assert pushes > 4 * graph.n  # several blocks' worth of pushes
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # One call per block, plus the rewind.
    assert rng.random_calls <= pushes // graph.n + 2


def test_stats_merge_accumulates():
    a = RefineStats(full_gain_builds=1, conn_builds=0, passes=3, moves=10,
                    neighbor_updates=40, boundary_scans=7)
    b = RefineStats(full_gain_builds=0, conn_builds=1, passes=2, moves=5,
                    neighbor_updates=20, boundary_scans=9)
    a.merge(b)
    assert a.full_gain_builds == 1
    assert a.conn_builds == 1
    assert a.passes == 5
    assert a.moves == 15
    assert a.neighbor_updates == 60
    assert a.boundary_scans == 16
