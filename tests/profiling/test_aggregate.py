"""Tests for profile aggregation."""

import numpy as np
import pytest

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.engine.trace import INJECTED
from repro.profiling.aggregate import ProfileData
from repro.profiling.netflow import FlowRecord, NetFlowCollector


def run(tiny_routed, n=12):
    net, tables = tiny_routed
    collector = NetFlowCollector()
    kern = EmulationKernel(net, tables, collector=collector)
    hosts = [h.node_id for h in net.hosts()]
    for i in range(n):
        kern.submit_transfer(
            Transfer(src=hosts[0], dst=hosts[2], nbytes=30e3), float(i)
        )
    trace = kern.run(until=30.0)
    return net, collector, trace


def test_router_loads_match_trace(tiny_routed):
    """NetFlow aggregation reproduces the emulator's own router counters."""
    net, collector, trace = run(tiny_routed)
    profile = ProfileData.from_run(collector, trace, net, interval=5.0)
    true_loads = trace.node_loads()
    for router in net.routers():
        assert profile.node_packets[router.node_id] == pytest.approx(
            true_loads[router.node_id]
        )


def test_host_loads_reconstructed(tiny_routed):
    """Host send/receive work + injections ≈ the trace's host loads."""
    net, collector, trace = run(tiny_routed)
    profile = ProfileData.from_run(collector, trace, net, interval=5.0)
    true_loads = trace.node_loads()
    for host in net.hosts():
        got = profile.node_packets[host.node_id]
        want = true_loads[host.node_id]
        # Injection bookkeeping differs by the per-transfer request event;
        # tolerance of a few packets.
        assert got == pytest.approx(want, rel=0.2, abs=15)


def test_link_packets_positive_on_path(tiny_routed):
    net, collector, trace = run(tiny_routed)
    profile = ProfileData.from_run(collector, trace, net)
    # The h0->h2 route crosses the r0-r1-r2-r3 spine.
    tables_path_links = [0, 1, 2]  # r0-r1, r1-r2, r2-r3 are links 0..2
    for link_id in tables_path_links:
        assert profile.link_packets[link_id] > 0


def test_series_conserves_packets(tiny_routed):
    net, collector, trace = run(tiny_routed)
    profile = ProfileData.from_run(collector, trace, net, interval=2.0)
    assert profile.node_series.sum() == pytest.approx(
        profile.node_packets.sum()
    )


def test_lp_series_aggregates_by_mapping(tiny_routed):
    net, collector, trace = run(tiny_routed)
    profile = ProfileData.from_run(collector, trace, net, interval=5.0)
    parts = (np.arange(net.n_nodes) % 2).astype(np.int64)
    lp = profile.lp_series(parts)
    assert lp.shape == (2, profile.n_bins)
    assert lp.sum() == pytest.approx(profile.node_series.sum())


def test_from_records_validation(tiny_routed):
    net, _, _ = run(tiny_routed)
    with pytest.raises(ValueError):
        ProfileData.from_records([], net, duration=0.0)


def test_no_records_is_an_all_zero_profile(tiny_routed):
    net, _ = tiny_routed
    empty = ProfileData.from_records([], net, duration=10.0)
    assert empty.node_packets.sum() == 0.0
    assert empty.link_packets.sum() == 0.0
    assert empty.node_series.shape == (net.n_nodes, 2)
    assert not empty.node_series.any()


def test_single_record_loads_router_link_and_source_host(tiny_routed):
    """One record at the source's access router: the router, its out
    link and the sending host each get the packets, spread over the
    record's active bins; nothing else is touched."""
    net, _ = tiny_routed
    src = net.hosts()[0].node_id
    router, link = next(iter(net.neighbors(src)))
    out_link = next(
        lk.link_id for _, lk in net.neighbors(router)
        if lk.link_id != link.link_id
    )
    record = FlowRecord(
        router=router, src=src, dst=net.hosts()[2].node_id, flow_id=0,
        out_link=out_link, packets=6, nbytes=6e3, first=0.0, last=12.0,
    )
    profile = ProfileData.from_records(
        [record], net, duration=15.0, interval=5.0
    )
    want_nodes = np.zeros(net.n_nodes)
    want_nodes[[router, src]] = 6.0
    want_links = np.zeros(net.n_links)
    want_links[out_link] = 6.0
    assert np.array_equal(profile.node_packets, want_nodes)
    assert np.array_equal(profile.link_packets, want_links)
    assert np.array_equal(profile.node_series[router], [2.0, 2.0, 2.0])
    assert np.array_equal(profile.node_series[src], [2.0, 2.0, 2.0])


def test_injections_counted(tiny_routed):
    net, collector, trace = run(tiny_routed, n=7)
    profile = ProfileData.from_run(collector, trace, net)
    mask = trace.next_node == INJECTED
    assert mask.sum() == 7
    src = trace.node[mask][0]
    # The source host's load includes its 7 injections.
    assert profile.node_packets[src] >= 7
