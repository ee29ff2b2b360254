"""Reference (pre-optimization) routing / PLACE kernels — test oracles.

These are the original pure-Python implementations of the §3.2 pipeline
hot paths, kept verbatim (modulo the parallel-link min-cost fix, which is
a semantic bugfix applied to both generations) so the differential parity
suite can prove the vectorized kernels in :mod:`repro.routing.spf`,
:mod:`repro.routing.icmp` and :mod:`repro.core.place` produce
*bit-identical* outputs:

- :func:`compute_routing_reference` — per-(source, destination) Python
  next-hop fill, O(n²) scalar work;
- :func:`discover_routes_reference` — one Python TTL walk per pair;
- :func:`estimate_traffic_reference` — per-pair Python accumulation of
  link/node rates.

They scale exactly the way the optimized kernels exist to avoid; never
call them from production code.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from repro.routing.icmp import traceroute
from repro.routing.tables import RoutingTables, link_cost

__all__ = [
    "compute_routing_reference",
    "discover_routes_reference",
    "estimate_traffic_reference",
    "update_routing_reference",
]


# --------------------------------------------------------------------- #
# All-pairs routing (original)
# --------------------------------------------------------------------- #
def compute_routing_reference(
    net, metric: str = "latency", stats=None
) -> RoutingTables:
    """Original all-pairs route computation: scalar per-(i, j) fill.

    Parallel links between the same node pair route over the min-cost one
    (the optimized kernel's semantics; the original let scipy's CSR
    duplicate coalescing *sum* their costs, which is a bug — no real
    routing protocol adds parallel links' costs together).
    Administratively-down links are invisible to routing, matching
    :func:`repro.routing.spf._cost_graph` — another semantic fix applied
    to both generations.
    """
    n = net.n_nodes
    best: dict[tuple[int, int], float] = {}
    for link in net.links:
        if not link.up:
            continue
        cost = link_cost(link, metric)
        for pair in ((link.u, link.v), (link.v, link.u)):
            if pair not in best or cost < best[pair]:
                best[pair] = cost
    rows = [pair[0] for pair in best]
    cols = [pair[1] for pair in best]
    costs = [best[pair] for pair in best]
    graph = sp.csr_matrix(
        (np.array(costs), (np.array(rows), np.array(cols))), shape=(n, n)
    )
    dist, pred = shortest_path(
        graph, method="D", directed=False, return_predecessors=True
    )

    # next_hop[i, j]: first hop on the path i -> j.  Fill per source in
    # order of increasing distance so each entry is O(1):
    #   next_hop[i, j] = j                      if pred[i, j] == i
    #                  = next_hop[i, pred[i,j]] otherwise.
    next_hop = np.full((n, n), -1, dtype=np.int32)
    order = np.argsort(dist, axis=1, kind="stable")
    for i in range(n):
        nh = next_hop[i]
        pi = pred[i]
        for j in order[i]:
            j = int(j)
            if j == i or pi[j] < 0:
                continue
            p = int(pi[j])
            nh[j] = j if p == i else nh[p]
            if stats is not None:
                stats.python_dest_fills += 1
    return RoutingTables(net=net, metric=metric, dist=dist, next_hop=next_hop)


# --------------------------------------------------------------------- #
# Incremental routing maintenance (scalar oracle)
# --------------------------------------------------------------------- #
def _scalar_costs(net, metric: str) -> dict[tuple[int, int], float]:
    """Undirected min-coalesced link costs as a plain ``(a, b) -> cost``
    dict (``a < b``), up links only — the scalar twin of the CSR that
    :func:`repro.routing.spf._cost_graph` builds."""
    best: dict[tuple[int, int], float] = {}
    for link in net.links:
        if not link.up:
            continue
        cost = link_cost(link, metric)
        pair = (link.u, link.v) if link.u < link.v else (link.v, link.u)
        if pair not in best or cost < best[pair]:
            best[pair] = cost
    return best


def update_routing_reference(state, changes, stats=None) -> np.ndarray:
    """Scalar oracle for :func:`repro.routing.delta.update_routing`.

    Applies the change batch, derives the affected-source set with one
    plain Python tightness test per (source, changed edge) pair on the
    *pre-change* distances::

        dist[s, a] + min(c_old, c_new) <= dist[s, b]   (finite side only,
        or the symmetric test)

    then rebuilds the whole table from scratch via
    :func:`compute_routing_reference` and splices only the affected rows
    — so a row the predicate misses stays verbatim, and any divergence
    from the full rebuild indicts the predicate itself.  Mutates
    ``state`` exactly like the production engine (in-place tables, graph,
    generation) and returns the sorted touched source ids.
    """
    from repro.routing.delta import apply_changes

    tables = state.tables
    net = tables.net
    changes = list(changes)
    if not changes:
        return np.zeros(0, dtype=np.int64)
    old_dist = np.array(tables.dist)
    old_best = _scalar_costs(net, tables.metric)
    apply_changes(net, changes)
    new_best = _scalar_costs(net, tables.metric)

    edges: list[tuple[int, int, float]] = []
    for pair in sorted(set(old_best) | set(new_best)):
        old_c = old_best.get(pair, np.inf)
        new_c = new_best.get(pair, np.inf)
        if old_c != new_c:
            edges.append((pair[0], pair[1], min(old_c, new_c)))

    touched: list[int] = []
    for s in range(net.n_nodes):
        for a, b, cmin in edges:
            da = old_dist[s, a]
            db = old_dist[s, b]
            if (np.isfinite(da) and da + cmin <= db) or (
                    np.isfinite(db) and db + cmin <= da):
                touched.append(s)
                break
    if stats is not None:
        stats.delta_updates += 1
        stats.affected_sources += len(touched)
        stats.touched_sources += len(touched)

    fresh = compute_routing_reference(net, tables.metric)
    for s in touched:
        tables.dist[s] = fresh.dist[s]
        tables.next_hop[s] = fresh.next_hop[s]
    tables.__post_init__()

    rows = [pair[0] for pair in new_best] + [pair[1] for pair in new_best]
    cols = [pair[1] for pair in new_best] + [pair[0] for pair in new_best]
    costs = [new_best[pair] for pair in new_best] * 2
    state.graph = sp.csr_matrix(
        (np.array(costs), (np.array(rows), np.array(cols))),
        shape=(net.n_nodes, net.n_nodes),
    )
    state.generation += 1
    return np.array(touched, dtype=np.int64)


# --------------------------------------------------------------------- #
# Route discovery (original)
# --------------------------------------------------------------------- #
def discover_routes_reference(
    tables: RoutingTables,
    pairs: list[tuple[int, int]],
    use_representatives: bool = False,
    stats=None,
) -> tuple[dict[tuple[int, int], list[int]], int]:
    """Original per-pair traceroute loop (see
    :func:`repro.routing.icmp.discover_routes` for semantics)."""

    def walk(src: int, dst: int) -> list[int]:
        path = traceroute(tables, src, dst)
        if stats is not None:
            stats.python_walk_steps += len(path) - 1
        return path

    routes: dict[tuple[int, int], list[int]] = {}
    n_walks = 0
    if not use_representatives:
        for src, dst in pairs:
            routes[(src, dst)] = walk(src, dst)
            n_walks += 1
        return routes, n_walks

    site_of = {
        n.node_id: (n.site or f"node{n.node_id}") for n in tables.net.nodes
    }
    rep_paths: dict[tuple[str, str], list[int]] = {}
    for src, dst in pairs:
        s_site, d_site = site_of[src], site_of[dst]
        key = (s_site, d_site)
        if s_site != d_site and key not in rep_paths:
            rep_paths[key] = walk(src, dst)
            n_walks += 1
            routes[(src, dst)] = rep_paths[key]
            continue
        if s_site == d_site:
            routes[(src, dst)] = walk(src, dst)
            n_walks += 1
            continue
        rep = rep_paths[key]
        # Reuse the representative's path when this pair enters and leaves
        # the core at the same points (same access hops).
        src_hop = tables.hop(src, dst)
        if (
            len(rep) >= 3
            and src_hop == rep[1]
            and tables.hop(rep[-2], dst) == dst
        ):
            routes[(src, dst)] = [src] + rep[1:-1] + [dst]
        else:
            routes[(src, dst)] = walk(src, dst)
            n_walks += 1
    return routes, n_walks


# --------------------------------------------------------------------- #
# Traffic aggregation (original)
# --------------------------------------------------------------------- #
def estimate_traffic_reference(
    net,
    tables: RoutingTables,
    flows,
    use_representatives: bool = True,
    stats=None,
):
    """Original per-pair accumulation of predicted rates."""
    from repro.core.place import TrafficEstimate

    link_rate = np.zeros(net.n_links, dtype=np.float64)
    node_rate = np.zeros(net.n_nodes, dtype=np.float64)
    # Merge duplicate pairs first — one traceroute per distinct pair.
    pair_rate: dict[tuple[int, int], float] = {}
    for flow in flows:
        key = (flow.src, flow.dst)
        pair_rate[key] = pair_rate.get(key, 0.0) + flow.bytes_per_s
    pairs = sorted(pair_rate)
    routes, n_walks = discover_routes_reference(
        tables, pairs, use_representatives=use_representatives, stats=stats
    )
    for pair in pairs:
        rate = pair_rate[pair]
        path = routes[pair]
        for node in path:
            node_rate[node] += rate
        for u, v in zip(path, path[1:]):
            link_rate[tables.link_between(u, v).link_id] += rate
    return TrafficEstimate(
        link_rate=link_rate, node_rate=node_rate, n_routes=n_walks
    )
