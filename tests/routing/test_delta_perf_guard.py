"""Perf-contract guards for the incremental routing engine.

Three promises beyond bit-identity:

- **Touched == affected, exactly.** The delta engine recomputes the
  affected-source set and nothing else.  Fewer would break correctness
  (caught by the parity battery); *more* silently erodes the speedup this
  engine exists for, so the counters must agree to the row.
- **Change-then-revert hits the cache.** Delta results are cached under
  (pre-change fingerprint, canonical change set); replaying a change is a
  cache hit, and a full revert restores the original fingerprint so even
  a from-scratch ``build_routing`` is served from cache.
- **Work proportional to the change.** Inside a touched row only the
  cells a change can move are re-settled, in one scipy call per change;
  a row whose shortest-path tree is tied is recomputed whole instead.
"""

from __future__ import annotations

import numpy as np

from repro.routing.delta import (
    LinkDown,
    SetLinkCost,
    routing_state,
    update_routing,
)
from repro.routing.perf import RoutingStats
from repro.routing.spf import build_routing
from repro.runtime.cache import ArtifactCache
from repro.topology import campus_network, synth_network


def _affected_oracle(before, after):
    """Sources whose rows changed at all — from the two full builds."""
    row_changed = (
        (before.dist != after.dist) | (before.next_hop != after.next_hop)
    ).any(axis=1)
    return np.flatnonzero(row_changed)


def test_touched_equals_affected_exactly():
    net = campus_network()
    links = net.links
    stream = [
        [SetLinkCost(5, latency_s=links[5].latency_s * 4)],
        [SetLinkCost(2, latency_s=links[2].latency_s * 0.5),
         SetLinkCost(9, latency_s=links[9].latency_s * 2)],
        [SetLinkCost(5, latency_s=links[5].latency_s)],
    ]
    state = routing_state(build_routing(net))
    for changes in stream:
        stats = RoutingStats()
        before = build_routing(net, cache=None)
        touched = update_routing(state, changes, stats=stats)
        after = build_routing(net, cache=None)
        assert stats.touched_sources == stats.affected_sources
        assert stats.touched_sources == len(touched)
        # The recompute set may exceed the rows that *ended up* differing
        # (ties can resolve identically) but never misses one.
        must_touch = _affected_oracle(before, after)
        assert np.isin(must_touch, touched).all()


def test_touched_is_a_strict_subset_at_scale():
    """A single-link change on a big synth net touches a minority of
    sources — the speedup the engine exists for."""
    net = synth_network(n_routers=400, hosts_per_router=0.2, seed=3)
    link = net.links[10]
    state = routing_state(build_routing(net))
    stats = RoutingStats()
    touched = update_routing(
        state, [SetLinkCost(10, latency_s=link.latency_s * 10)],
        stats=stats,
    )
    assert 0 < len(touched) < net.n_nodes
    assert stats.touched_sources == stats.affected_sources == len(touched)


# --------------------------------------------------------------------- #
# Delta caching
# --------------------------------------------------------------------- #
def test_change_then_revert_hits_cache(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    net = campus_network()
    link = net.links[5]
    fp0 = net.fingerprint()
    forward = [SetLinkCost(5, latency_s=link.latency_s * 2)]
    backward = [SetLinkCost(5, latency_s=link.latency_s)]

    state = routing_state(build_routing(net, cache=cache))
    update_routing(state, list(forward), cache=cache)
    update_routing(state, list(backward), cache=cache)
    misses_after_first_cycle = cache.stats.misses
    assert net.fingerprint() == fp0

    # Same cycle again: both delta computations are cache hits.
    hits_before = cache.stats.hits
    update_routing(state, list(forward), cache=cache)
    update_routing(state, list(backward), cache=cache)
    assert cache.stats.misses == misses_after_first_cycle
    assert cache.stats.hits >= hits_before + 2
    oracle = build_routing(net, cache=None)
    assert np.array_equal(state.tables.dist, oracle.dist)
    assert np.array_equal(state.tables.next_hop, oracle.next_hop)

    # Full revert restored the content fingerprint: a from-scratch build
    # on the reverted net is itself a cache hit.
    hits_before = cache.stats.hits
    build_routing(net, cache=cache)
    assert cache.stats.hits == hits_before + 1
    assert cache.stats.misses == misses_after_first_cycle


def test_cached_delta_result_is_spliced_not_aliased(tmp_path):
    """The cached row block must not be mutated by later splices (the
    memory tier returns the same object)."""
    cache = ArtifactCache(tmp_path / "c")
    net = campus_network()
    link = net.links[5]
    forward = [SetLinkCost(5, latency_s=link.latency_s * 2)]
    backward = [SetLinkCost(5, latency_s=link.latency_s)]
    state = routing_state(build_routing(net, cache=cache))
    for _ in range(3):
        update_routing(state, list(forward), cache=cache)
        update_routing(state, list(backward), cache=cache)
    oracle = build_routing(net, cache=None)
    assert np.array_equal(state.tables.dist, oracle.dist)
    assert np.array_equal(state.tables.next_hop, oracle.next_hop)


# --------------------------------------------------------------------- #
# Region re-settle
# --------------------------------------------------------------------- #
def test_single_increase_resettles_exactly_the_changed_cells():
    """One pricier link on a 400-router net under ``latency``: no row
    falls back, the re-settled cells are exactly the cells whose distance
    changed, and the whole repair costs at most one scipy call."""
    net = synth_network(n_routers=400, hosts_per_router=0.2, seed=3)
    link = net.links[10]
    state = routing_state(build_routing(net))
    before = state.tables.dist.copy()
    stats = RoutingStats()
    touched = update_routing(
        state, [SetLinkCost(10, latency_s=link.latency_s * 10)],
        stats=stats,
    )
    assert len(touched) > 0
    assert stats.fallback_rows == 0
    assert stats.resettled_cells == int((state.tables.dist != before).sum())
    assert stats.dijkstra_calls <= 1
    oracle = build_routing(net, cache=None)
    assert np.array_equal(state.tables.dist, oracle.dist)
    assert np.array_equal(state.tables.next_hop, oracle.next_hop)


def test_hops_change_falls_back_on_every_touched_row():
    """Hop counts tie everywhere, so no row's tree is unique: every
    touched row is recomputed whole, and the result still matches."""
    net = synth_network(n_routers=60, hosts_per_router=0.5, seed=2)
    state = routing_state(build_routing(net, "hops"))
    stats = RoutingStats()
    touched = update_routing(state, [LinkDown(4)], stats=stats)
    assert len(touched) > 0
    assert stats.fallback_rows == len(touched)
    assert stats.resettled_cells == 0
    oracle = build_routing(net, "hops", cache=None)
    assert np.array_equal(state.tables.dist, oracle.dist)
    assert np.array_equal(state.tables.next_hop, oracle.next_hop)
