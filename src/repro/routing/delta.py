"""Incremental shortest-path maintenance under topology change streams.

MaSSF emulates long-running networks whose link weights drift (diurnal
traffic engineering, failures, capacity upgrades); rebuilding the full
all-pairs table on every change costs O(n · Dijkstra) even when one edge
moved.  This module maintains a :class:`RoutingState` under a batch of
link changes by repairing only the *affected* source rows:

1. apply the changes to the :class:`~repro.topology.network.Network`;
2. diff the old and new cost CSRs — the canonical change set (this also
   coalesces parallel links and no-op changes for free);
3. flag source ``s`` as affected by edge ``(a, b)`` going from ``c_old``
   to ``c_new`` iff, with ``c = min(c_old, c_new)``::

       dist[s, a] + c <= dist[s, b]   or   dist[s, b] + c <= dist[s, a]

   (finite side only).  An edge strictly outside every old *and* new
   equal-cost shortest-path cone of ``s`` cannot alter any of ``s``'s
   routes, so unaffected rows are reusable verbatim — the ``<=`` keeps
   tie-crossing edges inside the recompute set, which is what makes the
   splice bit-identical to a from-scratch build;
4. re-settle, in each affected row, only the destinations the change can
   move: the subtree below a pricier edge in the row's old shortest-path
   tree (a breadth-first search down *tight* edges, ``dist[s, x] +
   w_old(x, t) == dist[s, t]`` exactly), and the destinations a cheaper
   edge reaches at a tied or better cost.  One scipy Dijkstra over the
   product graph of all those (source, destination) cells plus a virtual
   root settles them: root -> cell carries the best value through an
   unchanged neighbour, cell -> cell the new link cost, so every sum is
   the IEEE addition a full build performs, in the same path order.  A row
   is spliced only under a certificate that makes a full build's result
   independent of its heap order — the old and new trees are unique and
   nothing leaving the region ties with or beats an outside value; every
   other row is recomputed whole, in blocks.

A ``cache`` keys the repaired rows on (fingerprint-before, metric,
table version, canonical change set), so replaying a change stream — in
particular a change-then-revert pair — skips the Dijkstra work entirely;
and because the network fingerprint is content-based, a reverted network
hits the original full-table ``routing`` artifact again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.routing.spf import (
    ROUTING_TABLE_VERSION,
    _cost_graph,
    _next_hop_block,
)
from repro.routing.tables import RoutingTables
from repro.topology.elements import Link
from repro.topology.network import Network

__all__ = [
    "SetLinkCost",
    "LinkUp",
    "LinkDown",
    "AddLink",
    "RoutingState",
    "routing_state",
    "apply_changes",
    "update_routing",
    "derive_routing",
]

#: Default number of fallback rows per Dijkstra call — bounds the
#: ``block × n`` predecessor matrix scipy materialises for each call.
_DELTA_BLOCK_SIZE = 1024

#: Element budget of the row-chunked scratch in the uniqueness and
#: cheaper-edge passes.
_SCRATCH_ELEMS = 1 << 16


@dataclass(frozen=True)
class SetLinkCost:
    """Change a link's cost-bearing attributes (either may be ``None``)."""

    link_id: int
    bandwidth_bps: float | None = None
    latency_s: float | None = None


@dataclass(frozen=True)
class LinkUp:
    """Bring a link administratively up."""

    link_id: int


@dataclass(frozen=True)
class LinkDown:
    """Take a link administratively down (routing-level removal)."""

    link_id: int


@dataclass(frozen=True)
class AddLink:
    """Add a new link between two existing nodes."""

    u: int
    v: int
    bandwidth_bps: float
    latency_s: float


def _check_batch(net: Network, changes: list) -> None:
    """Reject a batch before any of it is applied: ids must exist (links
    added earlier in the batch count), costs be positive and finite."""
    n_links = net.n_links
    for change in changes:
        if isinstance(change, AddLink):
            ends = [e in net if isinstance(e, str) else 0 <= e < net.n_nodes
                    for e in (change.u, change.v)]
            ok = all(ends) and change.u != change.v
            values = [change.bandwidth_bps, change.latency_s]
            n_links += 1
        elif isinstance(change, (SetLinkCost, LinkUp, LinkDown)):
            ok = 0 <= change.link_id < n_links
            values = [v for v in (getattr(change, "bandwidth_bps", None),
                                  getattr(change, "latency_s", None))
                      if v is not None]
        else:
            raise TypeError(f"unknown change {change!r}")
        if not ok:
            raise ValueError(f"invalid change {change!r}: no such link/node")
        if not all(0 < v < math.inf for v in values):
            raise ValueError(f"invalid change {change!r}: bandwidth and "
                             f"latency must be positive and finite")


def apply_changes(net: Network, changes) -> list[Link]:
    """Apply a change batch to the network; returns the new link records.

    The whole batch is validated first, so an invalid change raises
    ``ValueError`` with the network untouched.  Mutation-only — routing
    tables are *not* updated; that is :func:`update_routing`'s job (which
    calls this itself).
    """
    changes = list(changes)
    _check_batch(net, changes)
    applied: list[Link] = []
    for change in changes:
        if isinstance(change, SetLinkCost):
            applied.append(net.set_link(
                change.link_id, bandwidth_bps=change.bandwidth_bps,
                latency_s=change.latency_s,
            ))
        elif isinstance(change, LinkUp):
            applied.append(net.set_link_up(change.link_id, True))
        elif isinstance(change, LinkDown):
            applied.append(net.set_link_up(change.link_id, False))
        else:
            applied.append(net.add_link(
                change.u, change.v, change.bandwidth_bps, change.latency_s,
            ))
    return applied


@dataclass
class RoutingState:
    """A live routing table plus the cost graph it was computed from.

    ``tables`` owns private ``dist`` / ``next_hop`` arrays (never the
    cache's copies — the artifact cache's memory tier hands out shared
    objects, and the delta engine splices in place).  ``generation``
    counts the updates applied so far.  ``unique_tree[s]`` memoises
    whether row ``s``'s shortest-path tree is unique (1), was found tied
    (0) or has not been checked yet (-1); the repair checks a row only
    when a change first affects it, and keeps recomputing a tied row
    whole without checking it again.
    """

    tables: RoutingTables
    graph: sp.csr_matrix
    generation: int = 0
    unique_tree: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.unique_tree is None:
            self.unique_tree = np.full(len(self.tables.dist), -1, np.int8)


def routing_state(tables: RoutingTables) -> RoutingState:
    """Wrap computed tables for incremental maintenance.

    Copies the matrices (the input may be a cache-shared object that must
    stay pristine) and rebuilds the cost CSR the tables correspond to.
    """
    return RoutingState(
        tables=RoutingTables(
            net=tables.net, metric=tables.metric,
            dist=np.array(tables.dist, dtype=np.float64),
            next_hop=np.array(tables.next_hop, dtype=np.int32),
        ),
        graph=_cost_graph(tables.net, tables.metric),
    )


def _canonical_changes(old_graph, new_graph):
    """Diff two cost CSRs into ``(a, b, old_cost, new_cost)`` arrays.

    One upper-triangle entry per undirected edge whose effective cost
    changed; a stored zero means the edge is absent on that side
    (all link costs are strictly positive), reported as ``inf``.  Two
    change batches with the same net effect canonicalize identically,
    which is what makes the delta cache hit on replayed streams.
    """
    diff = sp.triu(old_graph != new_graph).tocoo()
    a = diff.row.astype(np.int64)
    b = diff.col.astype(np.int64)
    if len(a) == 0:
        empty = np.zeros(0, dtype=np.float64)
        return a, b, empty, empty
    old_c = np.asarray(old_graph[a, b]).ravel()
    new_c = np.asarray(new_graph[a, b]).ravel()
    old_c = np.where(old_c == 0.0, np.inf, old_c)
    new_c = np.where(new_c == 0.0, np.inf, new_c)
    return a, b, old_c, new_c


def _affected_sources(dist: np.ndarray, a, b, old_c, new_c) -> np.ndarray:
    """Sources whose routes may cross any changed edge (sorted ids).

    Uses the pre-change distance matrix; ``min(old, new)`` covers both
    directions of change (a cheaper edge attracts paths, a pricier one
    released them).  Disconnected endpoints (``inf`` distance) never
    flag a source — except through the other, finite endpoint, which is
    exactly the component-joining ``AddLink`` case.
    """
    cmin = np.minimum(old_c, new_c)
    da = dist[:, a]
    db = dist[:, b]
    hit = (((da + cmin) <= db) & np.isfinite(da)) \
        | (((db + cmin) <= da) & np.isfinite(db))
    return np.flatnonzero(hit.any(axis=1)).astype(np.int64)


def _recompute_rows(dist, next_hop, rows, graph, *, block_size, stats):
    """Recompute whole ``rows`` in place, ``block_size`` rows per call.

    scipy's per-source Dijkstra is independent across sources, so rows
    computed with ``indices=block`` are bit-identical to the same rows of
    a whole-matrix call — the property the splice relies on.
    """
    from scipy.sparse.csgraph import shortest_path

    for start in range(0, len(rows), block_size):
        block = rows[start:start + block_size]
        dist[block], pred = shortest_path(
            graph, method="D", directed=True, return_predecessors=True,
            indices=block,
        )
        next_hop[block] = _next_hop_block(pred, block)
        if stats is not None:
            stats.dijkstra_calls += 1


def _chunks(rows: np.ndarray, width: int) -> list[np.ndarray]:
    """Split ``rows`` so each chunk's ``rows × width`` scratch stays within
    :data:`_SCRATCH_ELEMS` elements."""
    step = max(1, _SCRATCH_ELEMS // max(int(width), 1))
    return [rows[i:i + step] for i in range(0, len(rows), step)]


def _expand(indptr: np.ndarray, nodes: np.ndarray):
    """All CSR entries of the rows ``nodes``, as ``(owner, entry)``
    arrays; ``owner`` indexes ``nodes``."""
    start = indptr[nodes]
    deg = indptr[nodes + 1] - start
    owner = np.repeat(np.arange(len(nodes)), deg)
    entry = np.arange(len(owner)) + np.repeat(start - np.cumsum(deg) + deg,
                                              deg)
    return owner, entry


def _unique_trees(dist: np.ndarray, rows: np.ndarray, graph) -> np.ndarray:
    """Whether each row's shortest-path tree is unique.

    Every reachable destination has at least one *tight* in-edge
    (``dist[s, x] + w == dist[s, t]`` exactly — its Dijkstra
    predecessor), so the tree is unique iff the row has exactly one tight
    in-edge per reachable destination other than ``s``.
    """
    deg = np.diff(graph.indptr)
    out = [np.zeros(0, dtype=bool)]
    for chunk in _chunks(rows, graph.nnz):
        d = dist[chunk]
        reach = np.isfinite(d)
        d[~reach] = np.nan  # never equal: unreachable cells have no tight edge
        via = np.take(d, graph.indices, axis=1)
        via += graph.data
        tight = via == np.repeat(d, deg, axis=1)
        out.append(np.count_nonzero(tight, axis=1)
                   == np.count_nonzero(reach, axis=1) - 1)
    return np.concatenate(out)


def _region(dist: np.ndarray, rows: np.ndarray, diff, old_graph):
    """Sorted flat keys ``s * n + t`` of the cells a change can move.

    A pricier edge moves the subtree below it in ``s``'s old tree, found
    level by level down tight edges for all rows at once; a cheaper edge
    ``x -> y`` can move every ``t`` with ``dist[s, x] + c_new +
    dist[y, t] <= dist[s, t]``.
    """
    a, b, old_c, new_c = diff
    n = len(dist)
    x, y = np.concatenate([a, b]), np.concatenate([b, a])
    old2, new2 = np.tile(old_c, 2), np.tile(new_c, 2)
    keys = [np.zeros(0, dtype=np.int64)]
    up = new2 > old2
    dx = dist[rows[:, None], x[up]]
    hs, he = np.nonzero(
        np.isfinite(dx) & (dx + old2[up] == dist[rows[:, None], y[up]]))
    fs, ft = rows[hs], y[up][he]
    while len(fs):
        keys.append(fs * n + ft)
        owner, entry = _expand(old_graph.indptr, ft)
        s2, t2 = fs[owner], old_graph.indices[entry]
        tight = dist[s2, ft[owner]] + old_graph.data[entry] == dist[s2, t2]
        fs, ft = s2[tight], t2[tight]
    down = new2 < old2
    for xi, yi, c in zip(x[down], y[down], new2[down]):
        for chunk in _chunks(rows, n):
            via = (dist[chunk, xi] + c)[:, None] + dist[yi]
            hs, ht = np.nonzero(np.isfinite(via) & (via <= dist[chunk]))
            keys.append(chunk[hs] * n + ht)
    return np.unique(np.concatenate(keys))


def _resettle(dist, next_hop, rows, keys, graph, stats):
    """Re-settle the region cells ``keys`` of ``rows`` on the new cost
    ``graph`` and splice every row whose certificate holds.

    Returns ``(spliced, cells)``: the mask of ``rows`` written and the
    number of cells re-settled in them.  A row passes when (its old tree
    was unique, which the caller checked, and) every reachable region cell
    has exactly one tight in-edge, and no region cell gives an outside
    cell a value tied with or better than its own.  A changed edge into an
    outside cell needs no test of its own: from a region cell it is such
    an edge, and from an outside cell its sum is the cheaper-edge test of
    :func:`_region` (or a tight old edge), which put its target in the
    region.  The new tree is then unique, so a full build's distances and
    predecessors do not depend on its heap order and equal the splice bit
    for bit.
    """
    from scipy.sparse.csgraph import dijkstra

    n, m = len(dist), len(keys)
    cs, ct = np.divmod(keys, n)
    owner, entry = _expand(graph.indptr, ct)
    x, w = graph.indices[entry], graph.data[entry]
    nbr = cs[owner] * n + x
    pos = np.minimum(np.searchsorted(keys, nbr), max(m - 1, 0))
    inside = keys[pos] == nbr
    out = ~inside
    o_cell, o_x, o_w = owner[out], x[out], w[out]
    o_dist = dist[cs[o_cell], o_x]
    via = o_dist + o_w
    seed = np.full(m, np.inf)
    np.minimum.at(seed, o_cell, via)
    # The outside predecessor behind each seed (unique on spliced rows).
    seed_from = np.full(m, -1, dtype=np.int64)
    best = via == seed[o_cell]
    seed_from[o_cell[best]] = o_x[best]
    # Product graph: region cells 0..m-1 plus the virtual root m.
    fin = np.flatnonzero(np.isfinite(seed))
    prod = sp.csr_matrix(
        (np.concatenate([w[inside], seed[fin]]),
         (np.concatenate([pos[inside], np.full(len(fin), m)]),
          np.concatenate([owner[inside], fin]))),
        shape=(m + 1, m + 1),
    )
    d, pred = (a[:m] for a in dijkstra(
        prod, directed=True, indices=m, return_predecessors=True))
    if stats is not None:
        stats.dijkstra_calls += 1

    d_nbr = np.empty(len(x))
    d_nbr[inside], d_nbr[out] = d[pos[inside]], o_dist
    tight = (d_nbr + w == d[owner]) & np.isfinite(d[owner])
    failed = np.isfinite(d) & (np.bincount(owner[tight], minlength=m) != 1)
    leak = d[o_cell] + o_w
    failed[o_cell[np.isfinite(leak) & (leak <= o_dist)]] = True
    bad = np.zeros(len(rows), dtype=bool)
    bad[np.searchsorted(rows, cs[failed])] = True

    nh = np.full(m, -1, dtype=np.int64)
    root = pred == m
    u = seed_from[root]
    nh[root] = np.where(u == cs[root], ct[root], next_hop[cs[root], u])
    chain = (pred >= 0) & (pred < m)
    anc = np.where(chain, pred, np.arange(m))
    for _ in range(2 * max(m, 1).bit_length() + 4):
        todo = chain & (nh < 0)
        if not todo.any():
            break
        nh = np.where(todo, nh[anc], nh)
        anc = anc[anc]
    ok = ~bad[np.searchsorted(rows, cs)]
    dist[cs[ok], ct[ok]] = d[ok]
    next_hop[cs[ok], ct[ok]] = nh[ok]
    return ~bad, int(ok.sum())


def _repair(dist, next_hop, unique, diff, old_graph, new_graph, *,
            fp_before, metric, block_size, cache, stats):
    """Repair, in place, the source rows a canonical ``diff`` affects.

    ``dist`` / ``next_hop`` hold the tables valid on ``old_graph`` and are
    repaired in place (the caller decides whether they are the live arrays
    or copies), ``unique`` is their :attr:`RoutingState.unique_tree`;
    ``diff`` is :func:`_canonical_changes` of ``old_graph`` against
    ``new_graph``.  Returns the sorted touched source ids — empty when the
    cost graphs are equal (a bandwidth move under the latency metric, a
    dominated parallel link) — with the re-settled cell and fallback row
    counts.  The touched rows go through ``cache`` under the
    ``routing-delta`` kind.
    """
    a, b, old_c, new_c = diff
    if len(a) == 0:
        touched = np.zeros(0, dtype=np.int64)
    else:
        touched = _affected_sources(dist, a, b, old_c, new_c)
    if stats is not None:
        stats.delta_updates += 1
        stats.affected_sources += len(touched)
    if len(touched) == 0:
        return touched, 0, 0
    canon = tuple(
        (int(ai), int(bi), float(oc), float(nc))
        for ai, bi, oc, nc in zip(a, b, old_c, new_c)
    )

    if block_size is None:
        block_size = _DELTA_BLOCK_SIZE
    block_size = max(1, int(block_size))

    def repair() -> tuple[int, int]:
        # Rows whose tree is not unique, or whose re-settle fails its
        # certificate, are recomputed whole.
        unknown = touched[unique[touched] < 0]
        unique[unknown] = _unique_trees(dist, unknown, old_graph)
        rows = touched[unique[touched] == 1]
        spliced, cells = np.zeros(0, dtype=bool), 0
        if len(rows):
            spliced, cells = _resettle(
                dist, next_hop, rows, _region(dist, rows, diff, old_graph),
                new_graph, stats,
            )
        fallback = np.setdiff1d(touched, rows[spliced])
        _recompute_rows(dist, next_hop, fallback, new_graph,
                        block_size=block_size, stats=stats)
        # A row found tied stays tied (no re-check); a certificate failure
        # on a unique row leaves its new tree unknown.
        unique[fallback[unique[fallback] == 1]] = -1
        return cells, len(fallback)

    if cache is None:
        cells, fallback = repair()
    else:
        counts = []

        def compute():
            counts.extend(repair())
            return dist[touched], next_hop[touched]

        rows = cache.get_or_compute(
            "routing-delta",
            (fp_before, metric, ROUTING_TABLE_VERSION, canon),
            compute,
        )
        if not counts:  # a hit: splice the stored rows
            dist[touched], next_hop[touched] = rows
            unique[touched] = -1
        cells, fallback = counts or (0, 0)
    if stats is not None:
        stats.touched_sources += len(touched)
        stats.resettled_cells += cells
        stats.fallback_rows += fallback
    return touched, cells, fallback


def update_routing(
    state: RoutingState,
    changes,
    *,
    block_size: int | None = None,
    cache=None,
    telemetry=None,
    stats=None,
) -> np.ndarray:
    """Apply a change batch and incrementally repair the routing tables.

    Returns the sorted array of touched source ids.  After the call,
    ``state.tables`` is bit-identical to
    :func:`repro.routing.spf.build_routing` run from scratch on the
    changed network — distance matrix, next hops, and the link lookup
    behind :meth:`~repro.routing.tables.RoutingTables.link_between`.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.runtime.cache.ArtifactCache`; repaired
        rows are stored under the ``routing-delta`` kind keyed on
        (fingerprint-before, metric, table version, canonical change
        set), so a replayed stream never reaches scipy.
    block_size:
        Rows per scipy call for the rows that are recomputed whole (the
        certificate's fallback); re-settled rows never use it.
    stats:
        Optional :class:`~repro.routing.perf.RoutingStats`; fills
        ``delta_updates``, ``affected_sources``, ``touched_sources`` (the
        perf guard pins those two equal), ``resettled_cells`` and
        ``fallback_rows``.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    tables = state.tables
    net = tables.net
    changes = list(changes)
    if not changes:
        return np.zeros(0, dtype=np.int64)
    # The fingerprint is only a cache-key part: skip the hash without one.
    fp_before = net.fingerprint() if cache is not None else None
    applied = apply_changes(net, changes)

    with tel.span("routing/delta"):
        new_graph = _cost_graph(net, tables.metric)
        touched, cells, fallback = _repair(
            tables.dist, tables.next_hop, state.unique_tree,
            _canonical_changes(state.graph, new_graph), state.graph,
            new_graph, fp_before=fp_before, metric=tables.metric,
            block_size=block_size, cache=cache, stats=stats,
        )
        # Link records changed even when no row did — refresh their
        # pairs in the (u, v) -> Link lookup.
        tables.refresh_pairs(applied)
        state.graph = new_graph
        state.generation += 1
    tel.count("routing.delta_updates")
    tel.count("routing.touched_sources", len(touched))
    tel.count("routing.delta_resettled_cells", cells)
    tel.count("routing.delta_fallback_rows", fallback)
    return touched


def derive_routing(
    base: RoutingState,
    net: Network,
    *,
    max_changes: int | None = None,
    block_size: int | None = None,
    cache=None,
    telemetry=None,
    stats=None,
) -> tuple[RoutingState, np.ndarray] | None:
    """Derive a fresh :class:`RoutingState` for ``net`` from ``base``.

    The cross-request sibling of :func:`update_routing`: neither ``base``
    nor its network is mutated.  ``net`` must share ``base``'s node-id
    universe (same node count); its cost graph is diffed against
    ``base.graph``, only the affected source rows are repaired, and the
    unchanged rows are copied verbatim — the returned tables are
    bit-identical to :func:`repro.routing.spf.build_routing` run from
    scratch on ``net`` (each repaired row is per-source independent, and
    an unaffected row cannot differ: the predicate keeps every edge on or
    tied with a shortest-path cone inside the repair set).

    Returns ``(state, touched)``, or ``None`` when the derivation is not
    applicable: different node universe, different metric-graph shape, or
    more than ``max_changes`` canonically-changed edges (the caller
    should fall back to a full build).  ``len(touched) == 0`` means the
    cost graphs were identical and the base tables were copied whole.

    This is the warm-cache primitive behind the mapping service: a
    request whose topology differs from a cached entry by a small change
    set is served through the incremental engine instead of a full
    all-pairs rebuild.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    tables = base.tables
    if net.n_nodes != tables.net.n_nodes:
        return None
    with tel.span("routing/derive"):
        new_graph = _cost_graph(net, tables.metric)
        if new_graph.shape != base.graph.shape:
            return None
        diff = _canonical_changes(base.graph, new_graph)
        if max_changes is not None and len(diff[0]) > int(max_changes):
            return None
        dist = np.array(tables.dist, dtype=np.float64)
        next_hop = np.array(tables.next_hop, dtype=np.int32)
        fp_before = tables.net.fingerprint() if cache is not None else None
        unique = base.unique_tree.copy()
        touched, cells, fallback = _repair(
            dist, next_hop, unique, diff, base.graph, new_graph,
            fp_before=fp_before, metric=tables.metric,
            block_size=block_size, cache=cache, stats=stats,
        )
        derived = RoutingState(
            tables=RoutingTables(
                net=net, metric=tables.metric, dist=dist, next_hop=next_hop,
            ),
            graph=new_graph, unique_tree=unique,
        )
    tel.count("routing.derive_updates")
    tel.count("routing.touched_sources", len(touched))
    tel.count("routing.delta_resettled_cells", cells)
    tel.count("routing.delta_fallback_rows", fallback)
    return derived, touched
