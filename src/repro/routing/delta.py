"""Incremental shortest-path maintenance under topology change streams.

MaSSF emulates long-running networks whose link weights drift (diurnal
traffic engineering, failures, capacity upgrades); rebuilding the full
all-pairs table on every change costs O(n · Dijkstra) even when one edge
moved.  This module maintains a :class:`RoutingState` under a batch of
link changes by recomputing only the *affected* source rows:

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
4. recompute exactly those source rows (in blocks) and splice them in
   place.

A ``cache`` keys the recomputed rows on (fingerprint-before, metric,
table version, canonical change set), so replaying a change stream — in
particular a change-then-revert pair — skips the Dijkstra work entirely;
and because the network fingerprint is content-based, a reverted network
hits the original full-table ``routing`` artifact again.
"""

from __future__ import annotations

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

#: Default number of source rows per Dijkstra call — bounds the
#: ``block × n`` predecessor matrix scipy materialises for each call.
_DELTA_BLOCK_SIZE = 1024


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


def apply_changes(net: Network, changes) -> list[Link]:
    """Apply a change batch to the network; returns the new link records.

    Mutation-only — routing tables are *not* updated; that is
    :func:`update_routing`'s job (which calls this itself).
    """
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
        elif isinstance(change, AddLink):
            applied.append(net.add_link(
                change.u, change.v, change.bandwidth_bps, change.latency_s,
            ))
        else:
            raise TypeError(f"unknown change {change!r}")
    return applied


@dataclass
class RoutingState:
    """A live routing table plus the cost graph it was computed from.

    ``tables`` owns private ``dist`` / ``next_hop`` arrays (never the
    cache's copies — the artifact cache's memory tier hands out shared
    objects, and the delta engine splices in place).  ``generation``
    counts the updates applied so far.
    """

    tables: RoutingTables
    graph: sp.csr_matrix
    generation: int = 0


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


def _spf_block(srcs: np.ndarray, graph) -> tuple[np.ndarray, np.ndarray]:
    """Recompute one block of source rows.

    scipy's per-source Dijkstra is independent across sources, so rows
    computed with ``indices=srcs`` are bit-identical to the same rows of
    a whole-matrix call — the property the splice relies on.
    """
    from scipy.sparse.csgraph import shortest_path

    d, p = shortest_path(
        graph, method="D", directed=False, return_predecessors=True,
        indices=srcs,
    )
    return d, _next_hop_block(p, srcs)


def _recompute_rows(touched, graph, *, block_size, stats):
    blocks = [
        touched[start:start + block_size]
        for start in range(0, len(touched), block_size)
    ]
    if stats is not None:
        stats.dijkstra_calls += len(blocks)
    outs = [_spf_block(block, graph) for block in blocks]
    d_rows = np.concatenate([d for d, _ in outs])
    nh_rows = np.concatenate([nh for _, nh in outs])
    return d_rows, nh_rows


def _repair(
    dist: np.ndarray,
    next_hop: np.ndarray,
    diff,
    new_graph,
    *,
    fp_before: str | None,
    metric: str,
    block_size: int | None,
    cache,
    stats,
) -> np.ndarray:
    """Recompute and splice the source rows a canonical ``diff`` affects.

    ``dist`` / ``next_hop`` hold the tables valid before the change and
    are repaired in place (the caller decides whether they are the live
    arrays or copies); ``diff`` is :func:`_canonical_changes` of the old
    cost graph against ``new_graph``.  Returns the sorted touched source
    ids — empty when the cost graphs are equal (a bandwidth move under
    the latency metric, a dominated parallel link).  Recomputed rows go
    through ``cache`` under the ``routing-delta`` kind.
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
        return touched
    canon = tuple(
        (int(ai), int(bi), float(oc), float(nc))
        for ai, bi, oc, nc in zip(a, b, old_c, new_c)
    )

    if block_size is None:
        block_size = _DELTA_BLOCK_SIZE
    block_size = max(1, int(block_size))

    def compute():
        return _recompute_rows(
            touched, new_graph, block_size=block_size, stats=stats,
        )

    if cache is not None:
        d_rows, nh_rows = cache.get_or_compute(
            "routing-delta",
            (fp_before, metric, ROUTING_TABLE_VERSION, canon),
            compute,
        )
    else:
        d_rows, nh_rows = compute()
    dist[touched] = d_rows
    next_hop[touched] = nh_rows
    if stats is not None:
        stats.touched_sources += len(touched)
    return touched


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
        Optional :class:`~repro.runtime.cache.ArtifactCache`; recomputed
        rows are stored under the ``routing-delta`` kind keyed on
        (fingerprint-before, metric, table version, canonical change
        set), so a replayed stream never reaches scipy.
    stats:
        Optional :class:`~repro.routing.perf.RoutingStats`; fills
        ``delta_updates``, ``affected_sources`` and ``touched_sources``
        (the perf guard pins the last two equal).
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
    apply_changes(net, changes)

    with tel.span("routing/delta"):
        new_graph = _cost_graph(net, tables.metric)
        touched = _repair(
            tables.dist, tables.next_hop,
            _canonical_changes(state.graph, new_graph), new_graph,
            fp_before=fp_before, metric=tables.metric,
            block_size=block_size, cache=cache, stats=stats,
        )
        # Link records changed even when no row did — refresh the
        # (u, v) -> Link lookup and the pair-id tables.
        tables.__post_init__()
        state.graph = new_graph
        state.generation += 1
    tel.count("routing.delta_updates")
    tel.count("routing.touched_sources", len(touched))
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
    ``base.graph``, only the affected source rows are recomputed, and the
    unchanged rows are copied verbatim — the returned tables are
    bit-identical to :func:`repro.routing.spf.build_routing` run from
    scratch on ``net`` (each recomputed row is per-source independent,
    and an unaffected row cannot differ: the predicate keeps every edge
    on or tied with a shortest-path cone inside the recompute set).

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
        touched = _repair(
            dist, next_hop, diff, new_graph,
            fp_before=fp_before, metric=tables.metric,
            block_size=block_size, cache=cache, stats=stats,
        )
        derived = RoutingState(
            tables=RoutingTables(
                net=net, metric=tables.metric, dist=dist, next_hop=next_hop,
            ),
            graph=new_graph,
        )
    tel.count("routing.derive_updates")
    tel.count("routing.touched_sources", len(touched))
    return derived, touched
