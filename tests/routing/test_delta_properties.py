"""Property battery for the region re-settle behind incremental routing.

:func:`repro.routing.delta.update_routing` and
:func:`~repro.routing.delta.derive_routing` splice a re-settled region of
each affected row only when a certificate says a full build could not
have produced anything else, and recompute the row whole otherwise.  This
battery drives both paths on small synthetic graphs — disconnected ones,
parallel links, generic float latencies (unique shortest-path trees) and
small-integer latencies (ties everywhere), under every metric — with
mixed batches of cost increases and decreases, bridge cuts, restores and
component-joining links.  After every batch:

- both engines equal :func:`~repro.routing.spf.build_routing` bit for bit;
- the touched rows equal the scalar oracle's
  (:func:`~repro.routing._reference.update_routing_reference`);
- the link lookup equals a freshly constructed table's;
- on generic float latencies, a batch with at most one cheaper edge is
  re-settled without a single fallback row, so the property cannot pass
  on whole-row recomputes alone.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing._reference import update_routing_reference
from repro.routing.delta import (
    AddLink,
    LinkDown,
    LinkUp,
    SetLinkCost,
    apply_changes,
    derive_routing,
    routing_state,
    update_routing,
)
from repro.routing.perf import RoutingStats
from repro.routing.spf import build_routing
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

METRIC_NAMES = ("latency", "hops", "inv-bandwidth")
_BANDWIDTHS = (1e8, 1e9, 1e10)


def _graph(rng, n, components, extra, parallel, integer):
    """A random router graph: a spanning tree per component plus
    ``extra`` chords and ``parallel`` duplicated links."""
    net = Network("prop")
    for i in range(n):
        net.add_router(f"r{i}")
    comp = np.arange(n) % components

    def lat():
        return float(rng.integers(1, 4)) if integer \
            else float(rng.uniform(1e-4, 1e-2))

    def link(u, v):
        net.add_link(u, v, float(rng.choice(_BANDWIDTHS)), lat())

    for c in range(components):
        members = np.flatnonzero(comp == c)
        for i in range(1, len(members)):
            link(int(members[i]), int(members[rng.integers(0, i)]))
    for _ in range(extra):
        u, v = (int(x) for x in rng.integers(0, n, 2))
        if u != v and comp[u] == comp[v]:
            link(u, v)
    for _ in range(parallel if net.n_links else 0):
        ref = net.links[int(rng.integers(0, net.n_links))]
        link(ref.u, ref.v)
    return net


def _components(net):
    """Component label per node over the up links."""
    label = np.arange(net.n_nodes)

    def root(x):
        while label[x] != x:
            x = label[x]
        return x

    for link in net.links:
        if link.up:
            label[root(link.u)] = root(link.v)
    return np.array([root(x) for x in range(net.n_nodes)])


def _bridges(net):
    """Up links whose removal disconnects their endpoints."""
    out = []
    for link in net.links:
        if not link.up:
            continue
        trial = copy.deepcopy(net)
        trial.set_link_up(link.link_id, False)
        comp = _components(trial)
        if comp[link.u] != comp[link.v]:
            out.append(link.link_id)
    return out


def _change(net, rng, kind):
    """One concrete change of ``kind``; returns ``(change, cheaper)``."""
    up = [link for link in net.links if link.up]
    if not up:  # every node is its own component: join two
        kind = "join"
    if kind == "cut":
        bridges = _bridges(net)
        if bridges:
            return LinkDown(int(rng.choice(bridges))), False
        kind = "pricier"
    if kind == "restore":
        down = [link.link_id for link in net.links if not link.up]
        if down:
            return LinkUp(int(rng.choice(down))), True
        kind = "cheaper"
    if kind == "join":
        comp = _components(net)
        pairs = np.argwhere(comp[:, None] != comp[None, :])
        if len(pairs):
            u, v = (int(x) for x in pairs[rng.integers(0, len(pairs))])
            return AddLink(u, v, float(rng.choice(_BANDWIDTHS)),
                           float(rng.uniform(1e-4, 1e-2))), True
        kind = "cheaper"
    link = up[int(rng.integers(0, len(up)))]
    grow = kind == "pricier"
    factor = float(rng.uniform(1.5, 4.0))
    factor = factor if grow else 1.0 / factor
    if rng.random() < 0.25:
        return SetLinkCost(link.link_id,
                           bandwidth_bps=link.bandwidth_bps / factor), \
            not grow
    return SetLinkCost(link.link_id, latency_s=link.latency_s * factor), \
        not grow


def _assert_same_tables(tables, oracle, context):
    assert np.array_equal(tables.dist, oracle.dist), context
    assert np.array_equal(tables.next_hop, oracle.next_hop), context


def _assert_same_lookup(tables, context):
    fresh = RoutingTables(net=tables.net, metric=tables.metric,
                          dist=tables.dist, next_hop=tables.next_hop)
    assert tables._link_of == fresh._link_of, context
    pairs = np.array(sorted(fresh._link_of), dtype=np.int64).reshape(-1, 2)
    assert np.array_equal(tables.link_ids_of(pairs[:, 0], pairs[:, 1]),
                          fresh.link_ids_of(pairs[:, 0], pairs[:, 1])), context


_kinds = st.sampled_from(("pricier", "cheaper", "cut", "restore", "join"))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 14),
    components=st.integers(1, 3),
    extra=st.integers(0, 12),
    parallel=st.integers(0, 3),
    integer=st.booleans(),
    metric=st.sampled_from(METRIC_NAMES),
    batches=st.lists(st.lists(_kinds, min_size=1, max_size=4),
                     min_size=1, max_size=4),
)
def test_repair_matches_fresh_build(seed, n, components, extra, parallel,
                                    integer, metric, batches):
    rng = np.random.default_rng(seed)
    net = _graph(rng, n, min(components, n), extra, parallel, integer)
    ref_net = copy.deepcopy(net)
    state = routing_state(build_routing(net, metric))
    ref_state = routing_state(build_routing(ref_net, metric))
    base = routing_state(build_routing(copy.deepcopy(net), metric))
    for i, kinds in enumerate(batches):
        drawn = [_change(net, rng, kind) for kind in kinds]
        batch = [change for change, _ in drawn]
        context = f"batch {i}: {batch!r}"
        stats = RoutingStats()
        touched = update_routing(state, batch, stats=stats)
        oracle = build_routing(net, metric)
        _assert_same_tables(state.tables, oracle, context)
        _assert_same_lookup(state.tables, context)
        assert np.array_equal(
            touched, update_routing_reference(ref_state, batch)), context
        assert stats.touched_sources == stats.affected_sources == len(touched)
        assert stats.fallback_rows <= len(touched)
        if not integer and metric == "latency" and len(touched) \
                and sum(cheaper for _, cheaper in drawn) <= 1:
            assert stats.fallback_rows == 0 < stats.resettled_cells, context

        target = copy.deepcopy(base.tables.net)
        apply_changes(target, batch)
        dist_before = base.tables.dist.copy()
        derived, derived_touched = derive_routing(base, target)
        assert np.array_equal(base.tables.dist, dist_before), context
        assert np.array_equal(derived_touched, touched), context
        _assert_same_tables(derived.tables, oracle, context)
        base = derived


def test_region_path_runs_on_a_single_increase():
    """A deterministic anchor beside the property: a pricier link on a
    generic-float graph re-settles cells and falls back on no row."""
    rng = np.random.default_rng(7)
    net = _graph(rng, 12, 1, 10, 2, integer=False)
    state = routing_state(build_routing(net))
    link = net.links[0]
    stats = RoutingStats()
    touched = update_routing(
        state, [SetLinkCost(0, latency_s=link.latency_s * 3)], stats=stats)
    assert len(touched) > 0
    assert stats.fallback_rows == 0 < stats.resettled_cells
    _assert_same_tables(state.tables, build_routing(net), "single increase")


def test_lookup_refresh_matches_fresh_tables():
    """Parallel links, a cut, a restore and a new link: the refreshed
    pair lookup equals a freshly constructed table's after each batch."""
    rng = np.random.default_rng(3)
    net = _graph(rng, 8, 1, 6, 3, integer=True)
    dup = next(link for link in net.links
               if sum(o.u == link.u and o.v == link.v
                      for o in net.links) > 1)
    state = routing_state(build_routing(net))
    for batch in (
        [SetLinkCost(dup.link_id, latency_s=0.5)],
        [LinkDown(dup.link_id)],
        [LinkUp(dup.link_id), SetLinkCost(dup.link_id, latency_s=9.0)],
        [AddLink(dup.u, dup.v, 1e9, 0.25), AddLink(0, 7, 1e8, 1.0)],
    ):
        update_routing(state, batch)
        _assert_same_lookup(state.tables, repr(batch))
        _assert_same_tables(state.tables, build_routing(net), repr(batch))


def test_value_leaking_out_of_the_region_forces_a_fallback():
    """Two cheaper links whose gains only add up together: from router 0,
    router 4's new route (0-1-2-3-4, cost 4) passes both, yet neither
    link alone makes 4 a candidate (1 + 8 > 8), so 4 stays outside the
    region while region cell 3 offers it a better value.  The certificate
    must refuse that row, and the fallback must match a fresh build."""
    net = Network("leak")
    for i in range(5):
        net.add_router(f"r{i}")
    for u, v, lat in ((0, 1, 10.0), (1, 3, 7.0), (1, 2, 10.0), (2, 3, 1.0),
                      (3, 4, 1.0), (0, 4, 8.0), (0, 3, 9.0)):
        net.add_link(u, v, 1e9, lat)
    state = routing_state(build_routing(net))
    stats = RoutingStats()
    update_routing(state, [SetLinkCost(0, latency_s=1.0),
                           SetLinkCost(2, latency_s=1.0)], stats=stats)
    assert stats.fallback_rows >= 1
    _assert_same_tables(state.tables, build_routing(net), "leak")
