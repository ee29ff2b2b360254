"""Shortest-path-first route computation.

MaSSF instantiates the emulated network and generates routing tables from
routing protocols; our stand-in computes all-pairs shortest paths over the
link graph with a configurable metric and materializes a dense next-hop
matrix (the union of every node's routing table).

The next-hop fill is vectorized.  On the symmetric link graph the first
hop from ``s`` to ``t`` is the last hop before ``s`` on the path from ``t``,
so the transpose of scipy's predecessor matrix is a candidate table
``nh[s, t] = pred[t, s]``.  One gather certifies each row exactly: a cell
whose predecessor is ``s`` holds ``t``, every other reachable cell equals
its predecessor's cell and unreachable cells hold −1, which by induction
down ``s``'s shortest-path tree is the table pointer doubling gives.  Only
rows that fail (shortest-path ties) are resolved by pointer doubling
(path compression), O(log diameter) whole-block gather rounds.  A blocked
per-source mode bounds peak memory at 10k-node scale: Dijkstra runs per
source block, so the full predecessor matrix a certificate would need is
never materialized, and those blocks stay on pointer doubling.  Dijkstra
runs with ``directed=True``: ``_cost_graph`` is symmetric, and scipy's
undirected mode only adds a pass over each node's transpose row, which
on a symmetric matrix never strictly improves a distance.  Outputs are
bit-identical to the preserved reference kernel
(:func:`repro.routing._reference.compute_routing_reference`) in every mode.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from repro.routing.tables import (
    METRICS,
    RoutingTables,
    link_cost_array,
)
from repro.topology.network import Network

__all__ = ["build_routing", "METRICS", "ROUTING_TABLE_VERSION"]

#: Cache-key salt for routing artifacts.  v2: parallel links between the
#: same node pair route over the min-cost link (previously scipy's CSR
#: duplicate coalescing silently *summed* their costs), so v1 entries for
#: affected networks would be stale.
ROUTING_TABLE_VERSION = 2

#: Networks above this size default to blocked per-source computation.
_AUTO_BLOCK_NODES = 4096
_AUTO_BLOCK_SIZE = 1024


def build_routing(
    net: Network,
    metric: str = "latency",
    *,
    cache=None,
    telemetry=None,
    block_size: int | None = None,
    stats=None,
) -> RoutingTables:
    """Compute all-pairs routes for ``net``.

    Returns a :class:`RoutingTables` with the distance matrix (in metric
    units) and the dense next-hop matrix.  Ties are broken deterministically
    by scipy's Dijkstra implementation given the fixed adjacency ordering.

    ``cache`` (an :class:`repro.runtime.cache.ArtifactCache`) keys the
    tables on the network fingerprint + metric + table version; a hit skips
    the all-pairs computation entirely.  ``telemetry`` records a
    ``routing/build`` span (actual builds only — cache hits cost no span)
    and build counters.  ``block_size`` forces per-source-block computation
    (``None`` auto-enables blocking above ``4096`` nodes — results are
    bit-identical, only peak memory changes).  ``stats`` (a
    :class:`repro.routing.perf.RoutingStats`) collects operation counters
    for the perf-guard tests.
    """
    if cache is not None:
        key_parts = (net.fingerprint(), metric, ROUTING_TABLE_VERSION)
        tables = cache.get_or_compute(
            "routing", key_parts,
            lambda: _build_routing(
                net, metric, telemetry=telemetry, block_size=block_size,
                stats=stats,
            ),
        )
        # A disk hit unpickles its own copy of the network; rebind to the
        # caller's instance so the object graph stays consistent.
        if tables.net is not net:
            tables.net = net
            tables.__post_init__()
        return tables
    return _build_routing(
        net, metric, telemetry=telemetry, block_size=block_size, stats=stats
    )


def _build_routing(
    net: Network, metric: str, telemetry=None, block_size=None, stats=None
) -> RoutingTables:
    from repro.obs.telemetry import ensure_telemetry
    from repro.routing.perf import RoutingStats

    tel = ensure_telemetry(telemetry)
    st = stats if stats is not None else RoutingStats()
    with tel.span("routing/build"):
        tables = _compute_routing(
            net, metric, block_size=block_size, stats=st
        )
    tel.count("routing.builds")
    tel.count("routing.nodes", net.n_nodes)
    tel.count("routing.dijkstra_calls", st.dijkstra_calls)
    tel.count("routing.nexthop_rounds", st.nexthop_rounds)
    return tables


def _cost_graph(net: Network, metric: str) -> sp.csr_matrix:
    """Symmetric link-cost CSR; parallel links coalesce to the min cost.

    Administratively-down links are absent from the graph entirely (their
    dense ids survive in the per-link arrays, but routing never sees
    them).
    """
    n = net.n_nodes
    u, v, lat, bw = net.link_endpoint_arrays()
    up = net.link_up_array()
    if not up.all():
        u, v, lat, bw = u[up], v[up], lat[up], bw[up]
    costs = link_cost_array(lat, bw, metric)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    both = np.concatenate([costs, costs])
    # Sort by (row, col, cost): the first slot of every duplicate group is
    # the cheapest parallel link — scipy's default coo→csr conversion would
    # silently *sum* duplicates instead.
    order = np.lexsort((both, cols, rows))
    rows, cols, both = rows[order], cols[order], both[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return sp.csr_matrix(
        (both[first], (rows[first], cols[first])), shape=(n, n)
    )


def _next_hop_block(
    pred: np.ndarray, srcs: np.ndarray, stats=None
) -> np.ndarray:
    """Next-hop rows for one source block, by pointer doubling.

    ``pred[b, j]`` is the predecessor of ``j`` on the shortest path from
    ``srcs[b]``.  Nodes adjacent to the source resolve immediately
    (``next_hop = j``); every other node copies the next hop of any strict
    ancestor on its shortest-path tree branch — ancestor pointers double
    each round and park at the (already resolved) first-hop node, so the
    whole block resolves in O(log diameter) gather rounds.
    """
    b, n = pred.shape
    cols = np.broadcast_to(np.arange(n, dtype=np.int32), (b, n))
    src_col = np.asarray(srcs, dtype=np.int32)[:, None]
    has_pred = pred >= 0
    direct = pred == src_col
    nh = np.where(direct, cols, np.int32(-1))
    # Ancestor pointers: parents, except resolved/terminal nodes point at
    # themselves so doubled pointers never jump past the first hop.
    anc = np.where(direct | ~has_pred, cols, pred).astype(np.int32)
    max_rounds = 2 * max(int(n).bit_length(), 1) + 4
    for _ in range(max_rounds):
        unresolved = (nh < 0) & has_pred
        if not unresolved.any():
            return nh
        np.copyto(nh, np.take_along_axis(nh, anc, axis=1), where=unresolved)
        anc = np.take_along_axis(anc, anc, axis=1)
        if stats is not None:
            stats.nexthop_rounds += 1
    if ((nh < 0) & has_pred).any():  # pragma: no cover - defensive
        raise RuntimeError("next-hop fixpoint did not converge")
    return nh


def _compute_routing(
    net: Network, metric: str, *, block_size=None, stats=None
) -> RoutingTables:
    n = net.n_nodes
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    graph = _cost_graph(net, metric)
    if block_size is None:
        block_size = _AUTO_BLOCK_SIZE if n > _AUTO_BLOCK_NODES else n
    block_size = max(1, int(block_size))

    # directed=True is exact: the graph is symmetric, and the undirected
    # mode's extra pass over each transpose row never strictly improves.
    if block_size >= n:
        dist, pred = shortest_path(
            graph, method="D", directed=True, return_predecessors=True
        )
        if stats is not None:
            stats.dijkstra_calls += 1
        # Candidate: the first hop s → t is the hop before s on t's path,
        # pred[t, s]; scipy's "no predecessor" (−9999, diagonal) → −1.
        next_hop = np.maximum(pred.T, -1, order="C")
        # Certificate, one gather: cells whose predecessor is s hold t,
        # other cells equal their predecessor's cell (unreachable ones
        # the −1 diagonal's).  By induction down s's tree a passing row
        # is the doubling table; failing rows (ties) fall back to it.
        srcs = np.arange(n, dtype=np.int32)[:, None]
        want = np.take_along_axis(
            next_hop, np.where(pred >= 0, pred, srcs), axis=1
        )
        np.copyto(want, srcs.T, where=pred == srcs)
        bad = np.flatnonzero((want != next_hop).any(axis=1))
        del want
        next_hop[bad] = _next_hop_block(pred[bad], bad, stats)
        if stats is not None:
            stats.fallback_rows += bad.size
        return RoutingTables(
            net=net, metric=metric, dist=dist, next_hop=next_hop
        )

    # Blocked mode stays on pointer doubling: a certificate would need the
    # whole pred matrix, which blocking exists never to hold.
    dist = np.empty((n, n), dtype=np.float64)
    next_hop = np.empty((n, n), dtype=np.int32)
    for start in range(0, n, block_size):
        srcs = np.arange(start, min(start + block_size, n))
        d, p = shortest_path(
            graph, method="D", directed=True, return_predecessors=True,
            indices=srcs,
        )
        if stats is not None:
            stats.dijkstra_calls += 1
        dist[srcs] = d
        next_hop[srcs] = _next_hop_block(p, srcs, stats)
    return RoutingTables(net=net, metric=metric, dist=dist, next_hop=next_hop)
