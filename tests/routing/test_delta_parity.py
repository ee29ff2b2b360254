"""Differential parity for incremental SPF maintenance.

:func:`repro.routing.delta.update_routing` promises *bit-identical*
tables to a from-scratch :func:`~repro.routing.spf.build_routing` on the
mutated network — after every step of any change stream, under every
metric, with the recompute blocked across a process pool or spliced into
shared memory.  Hypothesis drives randomized change-replay streams (cost
shifts up and down, link removal and restoration, link addition, full
reverts); every comparison is exact (``array_equal``), no tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.routing._reference import update_routing_reference
from repro.routing.delta import (
    AddLink,
    LinkDown,
    LinkUp,
    SetLinkCost,
    apply_changes,
    routing_state,
    update_routing,
)
from repro.routing.perf import RoutingStats
from repro.routing.spf import build_routing
from repro.topology import campus_network, synth_network, teragrid_network

METRIC_NAMES = ("latency", "hops", "inv-bandwidth")


def _assert_matches_fresh(state, context=""):
    """The incremental tables must equal a from-scratch build, bitwise."""
    net = state.tables.net
    oracle = build_routing(net, state.tables.metric)
    assert np.array_equal(state.tables.dist, oracle.dist), context
    assert np.array_equal(state.tables.next_hop, oracle.next_hop), context


def _replay(net, metric, steps, **kwargs):
    """Apply each change batch incrementally, checking parity per step."""
    state = routing_state(build_routing(net, metric))
    for i, changes in enumerate(steps):
        update_routing(state, changes, **kwargs)
        _assert_matches_fresh(state, f"step {i}: {changes!r}")
    return state


# --------------------------------------------------------------------- #
# Fixed streams across topologies and metrics
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_campus_cost_shift_stream(metric):
    net = campus_network()
    link = net.links[5]
    _replay(net, metric, [
        [SetLinkCost(5, latency_s=link.latency_s * 4)],
        [SetLinkCost(5, bandwidth_bps=link.bandwidth_bps / 8)],
        [SetLinkCost(5, latency_s=link.latency_s,
                     bandwidth_bps=link.bandwidth_bps)],
    ])


def test_teragrid_down_up_add():
    net = teragrid_network()
    n = net.n_nodes
    _replay(net, "latency", [
        [LinkDown(0)],
        [LinkDown(7), SetLinkCost(3, latency_s=0.05)],
        [LinkUp(0), LinkUp(7)],
        [AddLink(0, n - 1, bandwidth_bps=1e9, latency_s=0.001)],
    ])


def test_synth_batched_stream():
    net = synth_network(n_routers=200, hosts_per_router=0.5, seed=11)
    links = net.links
    _replay(net, "latency", [
        [SetLinkCost(i, latency_s=links[i].latency_s * 3)
         for i in (2, 9, 40)],
        [LinkDown(2), SetLinkCost(9, latency_s=links[9].latency_s)],
        [LinkUp(2), SetLinkCost(40, latency_s=links[40].latency_s),
         SetLinkCost(2, latency_s=links[2].latency_s)],
    ])


def test_empty_and_noop_batches():
    net = campus_network()
    state = routing_state(build_routing(net))
    before = state.tables.dist.copy()
    touched = update_routing(state, [])
    assert len(touched) == 0
    # Re-setting the current cost is a structural no-op.
    link = net.links[0]
    touched = update_routing(
        state, [SetLinkCost(0, latency_s=link.latency_s)]
    )
    assert len(touched) == 0
    assert np.array_equal(state.tables.dist, before)
    _assert_matches_fresh(state)


def test_revert_restores_fingerprint():
    net = campus_network()
    fp0 = net.fingerprint()
    link = net.links[4]
    state = routing_state(build_routing(net))
    update_routing(state, [SetLinkCost(4, latency_s=link.latency_s * 2)])
    assert net.fingerprint() != fp0
    update_routing(state, [SetLinkCost(4, latency_s=link.latency_s)])
    assert net.fingerprint() == fp0
    _assert_matches_fresh(state)


# --------------------------------------------------------------------- #
# Hypothesis change-replay battery
# --------------------------------------------------------------------- #
_ops = st.lists(
    st.tuples(
        st.sampled_from(("cost", "down", "up", "add", "revert")),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.25, max_value=8.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=6,
)


def _interpret(net, originals, op):
    """Turn one drawn (kind, index, factor) into a concrete change.

    ``lid`` is drawn from the *live* link-id universe, so an ``add`` files
    the new link's cost under the id it is about to get: later ``cost`` /
    ``revert`` ops land on added links too (and are checked against
    ``build_routing`` like any other).
    """
    kind, index, factor = op
    lid = index % net.n_links
    if kind == "cost":
        return SetLinkCost(lid, latency_s=originals[lid][1] * factor)
    if kind == "down":
        return LinkDown(lid)
    if kind == "up":
        return LinkUp(lid)
    if kind == "add":
        u = index % net.n_nodes
        v = (index * 7 + 1) % net.n_nodes
        if u == v:
            v = (v + 1) % net.n_nodes
        originals[net.n_links] = (1e8 * factor, 0.001 * factor)
        return AddLink(u, v, *originals[net.n_links])
    bw, lat = originals[lid]
    return SetLinkCost(lid, bandwidth_bps=bw, latency_s=lat)


@settings(max_examples=15, deadline=None)
@given(ops=_ops, metric=st.sampled_from(("latency", "inv-bandwidth")))
@example(ops=[("add", 0, 1.0), ("add", 0, 1.0), ("revert", 187, 1.0)],
         metric="latency")
def test_random_change_replay(ops, metric):
    net = campus_network()
    originals = {
        lid: (link.bandwidth_bps, link.latency_s)
        for lid, link in enumerate(net.links)
    }
    state = routing_state(build_routing(net, metric))
    for op in ops:
        change = _interpret(net, originals, op)
        update_routing(state, [change])
        _assert_matches_fresh(state, f"{metric}: {change!r}")


@settings(max_examples=10, deadline=None)
@given(ops=_ops)
def test_random_batches_then_full_revert(ops):
    """A batch per step, then one revert batch back to the original net."""
    net = campus_network()
    fp0 = net.fingerprint()
    originals = {
        lid: (link.bandwidth_bps, link.latency_s)
        for lid, link in enumerate(net.links)
    }
    n_links0 = net.n_links
    state = routing_state(build_routing(net))
    batch = [
        _interpret(net, originals, op)
        for op in ops
        if op[0] in ("cost", "down")  # keep the link-id universe fixed
    ]
    if batch:
        update_routing(state, batch)
        _assert_matches_fresh(state, f"batch {batch!r}")
    revert = [LinkUp(lid) for lid in range(n_links0)] + [
        SetLinkCost(lid, bandwidth_bps=bw, latency_s=lat)
        for lid, (bw, lat) in originals.items()
    ]
    update_routing(state, revert)
    assert net.fingerprint() == fp0
    _assert_matches_fresh(state, "after full revert")


# --------------------------------------------------------------------- #
# Multi-block and shared-memory recompute paths
# --------------------------------------------------------------------- #
def test_blocked_recompute_matches_fresh():
    net = synth_network(n_routers=300, hosts_per_router=0.2, seed=5)
    links = net.links
    state = _replay(net, "latency", [
        [SetLinkCost(3, latency_s=links[3].latency_s * 5)],
        [LinkDown(8)],
        [LinkUp(8), SetLinkCost(3, latency_s=links[3].latency_s)],
    ], block_size=32)
    assert state.generation == 3


def test_stats_accumulate_across_stream():
    net = campus_network()
    link = net.links[5]
    stats = RoutingStats()
    state = routing_state(build_routing(net))
    update_routing(state, [SetLinkCost(5, latency_s=link.latency_s * 2)],
                   stats=stats)
    update_routing(state, [SetLinkCost(5, latency_s=link.latency_s)],
                   stats=stats)
    assert stats.delta_updates == 2
    assert stats.touched_sources == stats.affected_sources > 0


def test_generator_of_changes_applies_like_a_list():
    """A one-shot iterable of changes is applied, not consumed by the
    emptiness check: same touched ids and tables as the list."""
    def stream(net):
        return [SetLinkCost(3, latency_s=net.links[3].latency_s * 50)]

    net_gen, net_list = campus_network(), campus_network()
    state_gen = routing_state(build_routing(net_gen))
    state_list = routing_state(build_routing(net_list))
    touched_gen = update_routing(state_gen, (c for c in stream(net_gen)))
    touched_list = update_routing(state_list, stream(net_list))
    assert len(touched_list) > 0
    assert np.array_equal(touched_gen, touched_list)
    assert np.array_equal(state_gen.tables.dist, state_list.tables.dist)
    assert np.array_equal(
        state_gen.tables.next_hop, state_list.tables.next_hop
    )
    assert net_gen.fingerprint() == net_list.fingerprint()
    _assert_matches_fresh(state_gen)


# --------------------------------------------------------------------- #
# Vectorized engine vs the scalar reference oracle
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", ("latency", "inv-bandwidth"))
def test_matches_scalar_reference_oracle(metric):
    """Same change stream through :func:`update_routing` and the
    per-source Python oracle: identical touched sets, identical tables,
    identical stats — at every step."""
    net_fast = campus_network()
    net_ref = campus_network()
    links = net_fast.links
    n = net_fast.n_nodes
    steps = [
        [SetLinkCost(4, latency_s=links[4].latency_s * 6)],
        [LinkDown(1), SetLinkCost(9, bandwidth_bps=links[9].bandwidth_bps / 4)],
        [AddLink(0, n - 1, bandwidth_bps=2e8, latency_s=0.002)],
        [LinkUp(1), SetLinkCost(4, latency_s=links[4].latency_s),
         SetLinkCost(9, bandwidth_bps=links[9].bandwidth_bps)],
    ]
    state_fast = routing_state(build_routing(net_fast, metric))
    state_ref = routing_state(build_routing(net_ref, metric))
    stats_fast = RoutingStats()
    stats_ref = RoutingStats()
    for i, changes in enumerate(steps):
        touched_fast = update_routing(state_fast, changes, stats=stats_fast)
        touched_ref = update_routing_reference(
            state_ref, changes, stats=stats_ref
        )
        assert np.array_equal(touched_fast, touched_ref), f"step {i}"
        assert np.array_equal(
            state_fast.tables.dist, state_ref.tables.dist
        ), f"step {i}"
        assert np.array_equal(
            state_fast.tables.next_hop, state_ref.tables.next_hop
        ), f"step {i}"
    assert stats_fast.affected_sources == stats_ref.affected_sources > 0
    assert stats_fast.touched_sources == stats_ref.touched_sources
    assert state_fast.generation == state_ref.generation == len(steps)
    _assert_matches_fresh(state_fast, "fast vs oracle stream end")
    _assert_matches_fresh(state_ref, "oracle stream end")


def test_apply_changes_rejects_unknown():
    net = campus_network()
    with pytest.raises(TypeError, match="unknown change"):
        apply_changes(net, [object()])
