"""Mid-run link-cost changes: engine parity and validation.

A ``link_changes`` schedule must leave both engines (sequential, and the
parallel engine's partition view over it) producing *identical* traces —
every change is applied at a window barrier, the same point in both — and
the repaired tables must equal a fresh
:func:`~repro.routing.spf.build_routing` on the mutated network.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.changes import install_link_changes, normalize_link_changes
from repro.engine.kernel import EmulationKernel, run_kernel
from repro.experiments.workloads import build_workload
from repro.routing.delta import LinkDown, SetLinkCost, routing_state
from repro.routing.spf import build_routing
from repro.topology import campus_network


def _scenario():
    net = campus_network()
    tables = build_routing(net)
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    return net, tables, workload


def _schedule(net):
    link = net.links[5]
    return [
        (0.3, SetLinkCost(5, latency_s=link.latency_s * 4)),
        (0.6, [SetLinkCost(5, latency_s=link.latency_s)]),
    ]


def _traces_equal(a, b):
    return (
        a.n_events == b.n_events
        and np.array_equal(a.time, b.time)
        and np.array_equal(a.node, b.node)
        and np.array_equal(a.next_node, b.next_node)
        and np.array_equal(a.packets, b.packets)
        and np.array_equal(a.span, b.span)
    )


@pytest.fixture(scope="module")
def sequential_run():
    net, tables, workload = _scenario()
    trace, kernel = run_kernel(
        net, tables, workload, seed=3, link_changes=_schedule(net)
    )
    return trace, kernel


def test_changes_actually_applied(sequential_run):
    trace, kernel = sequential_run
    log = kernel.link_change_log
    assert [entry[0] for entry in log] == [0.3, 0.6]
    assert all(entry[2] > 0 for entry in log)
    assert kernel.routing_stats.delta_updates == 2
    assert (
        kernel.routing_stats.touched_sources
        == kernel.routing_stats.affected_sources
    )


def test_changes_change_the_outcome(sequential_run):
    """The schedule is not a no-op: the same run without changes differs
    (otherwise the parity tests below prove nothing)."""
    trace, _ = sequential_run
    net, tables, workload = _scenario()
    plain, _ = run_kernel(net, tables, workload, seed=3)
    assert not _traces_equal(trace, plain)


def test_final_tables_match_fresh_build(sequential_run):
    _, kernel = sequential_run
    oracle = build_routing(kernel.net, cache=None)
    assert np.array_equal(kernel.tables.dist, oracle.dist)
    assert np.array_equal(kernel.tables.next_hop, oracle.next_hop)


def test_caller_tables_never_mutated():
    net, tables, workload = _scenario()
    dist0 = tables.dist.copy()
    nh0 = tables.next_hop.copy()
    run_kernel(net, tables, workload, seed=3, link_changes=_schedule(net))
    assert np.array_equal(tables.dist, dist0)
    assert np.array_equal(tables.next_hop, nh0)


@pytest.mark.parametrize("processes", (False, True))
def test_parallel_engines_trace_identical(sequential_run, processes):
    """Either value of the deprecated ``processes=`` keyword runs the same
    partition view, so both must match the sequential trace."""
    seq_trace, seq_kernel = sequential_run
    net, tables, workload = _scenario()
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3
    with pytest.warns(DeprecationWarning, match="processes"):
        trace, kernel = run_kernel(
            net, tables, workload, seed=3, engine="parallel", parts=parts,
            processes=processes, link_changes=_schedule(net),
        )
    assert _traces_equal(trace, seq_trace)
    assert kernel.link_change_log == seq_kernel.link_change_log
    oracle = build_routing(kernel.net, cache=None)
    assert np.array_equal(kernel.tables.dist, oracle.dist)
    assert np.array_equal(kernel.tables.next_hop, oracle.next_hop)


def test_forked_run_tables_and_context_match_fresh_build_after_close():
    """The state both drains read live after a parallel ``run_kernel`` —
    the tables' next hops and pair lookup and the network's link arrays —
    equals a fresh build on the mutated network.  (The name dates from
    forked LP workers.)"""
    net, tables, workload = _scenario()
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3
    schedule = _schedule(net)[:1]  # end the run on the changed latency
    _, kernel = run_kernel(
        net, tables, workload, seed=3, engine="parallel", parts=parts,
        link_changes=schedule,
    )
    fresh_tables = build_routing(kernel.net, cache=None)
    assert np.array_equal(kernel.tables.dist, fresh_tables.dist)
    assert np.array_equal(kernel.tables.next_hop, fresh_tables.next_hop)
    links = kernel.net.links
    u = np.array([link.u for link in links])
    v = np.array([link.v for link in links])
    us, vs = np.concatenate([u, v]), np.concatenate([v, u])
    assert np.array_equal(kernel.tables.link_ids_of(us, vs),
                          fresh_tables.link_ids_of(us, vs))
    fresh_arrays = (
        u, v, np.array([link.latency_s for link in links]),
        np.array([link.bandwidth_bps for link in links]),
    )
    for live, fresh in zip(kernel.net.link_endpoint_arrays(), fresh_arrays):
        assert np.array_equal(live, fresh)
    assert kernel.net.link_endpoint_arrays()[2][5] == schedule[0][1].latency_s


def test_forked_bandwidth_only_change_reaches_workers():
    """A bandwidth move under the latency metric touches zero source rows
    — the link arrays must reach the parallel engine's shard all the same
    (the serialization spans, hence the trace, depend on them).  The name
    dates from forked LP workers."""
    def scenario():
        # Fresh per run: applying the schedule mutates the network.
        net, tables, workload = _scenario()
        batch = [
            SetLinkCost(lid, bandwidth_bps=link.bandwidth_bps / 8)
            for lid, link in enumerate(net.links)
        ]
        return net, tables, workload, [(0.3, batch)]

    net, tables, workload, schedule = scenario()
    seq_trace, seq_kernel = run_kernel(
        net, tables, workload, seed=3, link_changes=schedule
    )
    assert seq_kernel.link_change_log == [(0.3, net.n_links, 0)]
    net, tables, workload, _ = scenario()
    plain, _ = run_kernel(net, tables, workload, seed=3)
    assert not _traces_equal(seq_trace, plain)
    net, tables, workload, schedule = scenario()
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3
    trace, kernel = run_kernel(
        net, tables, workload, seed=3, engine="parallel", parts=parts,
        link_changes=schedule,
    )
    assert _traces_equal(trace, seq_trace)
    assert kernel.link_change_log == seq_kernel.link_change_log


def test_bandwidth_change_repaces_later_injections():
    """Source pacing reads a per-rate chain cached on the kernel;
    ``sync_context`` after a bandwidth change must rebuild it, so a
    transfer submitted afterwards is paced at the new access rate: its
    train times equal a fresh kernel's on the changed network."""
    from repro.engine.packet import Transfer, reset_flow_ids
    from repro.routing.delta import update_routing

    def times_of(kernel):
        return sorted(t for b in kernel.calendar.pop_all()
                      for t in b.time.tolist())

    net = campus_network()
    state = routing_state(build_routing(net))
    src, dst = (h.node_id for h in net.hosts()[:2])
    reset_flow_ids()
    kernel = EmulationKernel(net, state.tables)
    kernel.submit_transfer(Transfer(src=src, dst=dst, nbytes=90_000.0), 0.0)
    update_routing(state, [
        SetLinkCost(lid, bandwidth_bps=link.bandwidth_bps / 8)
        for lid, link in enumerate(net.links)
    ])
    kernel.sync_context()
    kernel.calendar.pop_all()
    kernel.submit_transfer(Transfer(src=src, dst=dst, nbytes=90_000.0), 5.0)
    fresh = EmulationKernel(net, state.tables)
    fresh.submit_transfer(Transfer(src=src, dst=dst, nbytes=90_000.0), 5.0)
    expected = times_of(fresh)
    assert len(expected) == 2
    assert times_of(kernel) == expected


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #
def test_normalize_sorts_and_wraps():
    c1, c2 = SetLinkCost(1, latency_s=0.5), SetLinkCost(2, latency_s=0.5)
    schedule = normalize_link_changes([(2.0, c2), (1.0, c1)])
    assert schedule == [(1.0, [c1]), (2.0, [c2])]


def test_normalize_rejects_structural_changes():
    with pytest.raises(TypeError, match="SetLinkCost only"):
        normalize_link_changes([(1.0, LinkDown(0))])


def test_normalize_rejects_negative_time():
    with pytest.raises(ValueError, match="before time 0"):
        normalize_link_changes([(-1.0, SetLinkCost(0, latency_s=0.5))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_normalize_rejects_non_finite_time(bad):
    """A NaN entry would sort first and block every batch behind it; an
    inf one would never fire.  Both are refused up front."""
    with pytest.raises(ValueError, match=f"change time {bad!r} must be finite"):
        normalize_link_changes([
            (bad, SetLinkCost(0, latency_s=0.5)),
            (1.0, SetLinkCost(0, latency_s=0.5)),
        ])


def test_install_rejects_sub_window_latency():
    net, tables, workload = _scenario()
    kernel = EmulationKernel(net, tables)
    state = routing_state(tables)
    # run_kernel would rebind to state.tables; mimic that coupling here.
    kernel.tables = state.tables
    too_fast = kernel.window_s / 2
    with pytest.raises(ValueError, match="conservative window"):
        install_link_changes(
            kernel, state, [(1.0, SetLinkCost(0, latency_s=too_fast))]
        )


def test_install_rejects_foreign_state():
    net, tables, workload = _scenario()
    kernel = EmulationKernel(net, tables)
    state = routing_state(tables)  # copies: NOT the kernel's tables
    with pytest.raises(ValueError, match="kernel's own tables"):
        install_link_changes(
            kernel, state, [(1.0, SetLinkCost(0, latency_s=0.5))]
        )
