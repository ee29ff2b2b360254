"""Tests for the TCP-like flow model."""

import numpy as np
import pytest

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import MTU_BYTES
from repro.routing.spf import build_routing
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network
from repro.traffic.tcp import TcpFlow, TcpTraffic


def line_net(bottleneck_mbps=10.0):
    net = Network("tcpline")
    a = net.add_host("a")
    r1 = net.add_router("r1")
    r2 = net.add_router("r2")
    b = net.add_host("b")
    net.add_link(a, r1, Mbps(100), ms(1))
    net.add_link(r1, r2, Mbps(bottleneck_mbps), ms(5))
    net.add_link(r2, b, Mbps(100), ms(1))
    return net, build_routing(net)


def test_flow_completes_and_delivers_all_bytes():
    net, tables = line_net()
    kern = EmulationKernel(net, tables, train_packets=4)
    done = []
    flow = TcpFlow(kern, net.node("a").node_id, net.node("b").node_id,
                   nbytes=200e3, on_complete=lambda k, t, f: done.append(t))
    flow.start(0.0)
    kern.run(until=120.0)
    assert flow.completed
    assert not flow.failed
    assert flow.bytes_acked == pytest.approx(200e3)
    assert len(done) == 1


def test_slow_start_grows_window():
    net, tables = line_net()
    kern = EmulationKernel(net, tables, train_packets=4)
    flow = TcpFlow(kern, net.node("a").node_id, net.node("b").node_id,
                   nbytes=500e3, init_cwnd=2, ssthresh=16, max_cwnd=32)
    flow.start(0.0)
    kern.run(until=120.0)
    assert flow.completed
    assert flow.cwnd > 2  # grew past the initial window
    # Round count is far below per-segment count (windowing works).
    assert flow.rounds < 500e3 / MTU_BYTES


def test_rtt_paces_rounds():
    """Rounds are spaced by at least the path round-trip time."""
    net, tables = line_net()
    kern = EmulationKernel(net, tables, train_packets=64)
    times = []
    orig = TcpFlow._send_window

    class Probe(TcpFlow):
        def _send_window(self, time):
            times.append(time)
            orig(self, time)

    flow = Probe(kern, net.node("a").node_id, net.node("b").node_id,
                 nbytes=100e3, init_cwnd=1, max_cwnd=2)
    flow.start(0.0)
    kern.run(until=120.0)
    gaps = np.diff(times)
    one_way = 7e-3  # 1 + 5 + 1 ms propagation
    assert (gaps >= one_way).all()


def test_timeout_halves_and_recovers():
    """A 64-segment window takes ~0.77 s to serialise at 1 Mbps, longer
    than the 0.5 s rto: the flow times out, backs off, and still
    completes."""
    net, tables = line_net(bottleneck_mbps=1.0)
    kern = EmulationKernel(net, tables, train_packets=2)
    flow = TcpFlow(kern, net.node("a").node_id, net.node("b").node_id,
                   nbytes=300e3, init_cwnd=4, ssthresh=64, max_cwnd=64,
                   rto=0.5)
    flow.start(0.0)
    kern.run(until=600.0)
    assert flow.timeouts > 0
    assert flow.completed


def test_flow_gives_up_after_max_retries():
    """An rto below the 7 ms one-way delay times out every window: the
    flow fails rather than retrying forever."""
    net, tables = line_net()
    kern = EmulationKernel(net, tables, train_packets=1)
    flow = TcpFlow(kern, net.node("a").node_id, net.node("b").node_id,
                   nbytes=100e3, rto=0.005, max_retries=3)
    flow.start(0.0)
    kern.run(until=600.0)
    assert flow.failed
    assert not flow.completed


def test_flow_validation():
    net, tables = line_net()
    kern = EmulationKernel(net, tables)
    with pytest.raises(ValueError):
        TcpFlow(kern, 0, 3, nbytes=0)
    with pytest.raises(ValueError):
        TcpFlow(kern, 0, 3, nbytes=10, init_cwnd=0)


def test_tcp_traffic_generator(tiny_routed, rng):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=4)
    hosts = [h.node_id for h in net.hosts()]
    gen = TcpTraffic(pairs=[(hosts[0], hosts[2])], nbytes=100e3,
                     period=10.0, duration=35.0)
    gen.install(kern, rng)
    kern.run(until=120.0)
    assert len(gen.flows) >= 3
    assert all(f.completed for f in gen.flows)


def test_tcp_traffic_prediction(tiny_routed):
    net, tables = tiny_routed
    gen = TcpTraffic(pairs=[(4, 6)], nbytes=100e3, period=10.0)
    flows = gen.predicted_flows(net, tables)
    assert flows[0].bytes_per_s == pytest.approx(10e3)
