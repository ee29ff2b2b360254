"""Tests for the sequential emulation kernel."""

import numpy as np
import pytest

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import MTU_BYTES, Transfer
from repro.engine.trace import DELIVERED, INJECTED
from repro.routing.spf import build_routing
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network


def h(net, name):
    return net.node(name).node_id


def test_single_transfer_delivery(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=8)
    kern.submit_transfer(
        Transfer(src=h(net, "h0"), dst=h(net, "h2"), nbytes=30_000), 0.0
    )
    trace = kern.run(until=10.0)
    assert kern.stats.transfers_delivered == 1
    assert kern.stats.packets_delivered == 20
    # Delivery event recorded at the destination.
    delivered = trace.next_node == DELIVERED
    assert trace.node[delivered][-1] == h(net, "h2")


def test_injection_recorded(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    kern.submit_transfer(
        Transfer(src=h(net, "h0"), dst=h(net, "h2"), nbytes=1000), 1.0
    )
    trace = kern.run(until=10.0)
    injected = trace.next_node == INJECTED
    assert injected.sum() == 1
    assert trace.time[injected][0] == pytest.approx(1.0)


def test_every_hop_recorded(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables, train_packets=64)
    src, dst = h(net, "h0"), h(net, "h2")
    kern.submit_transfer(Transfer(src=src, dst=dst, nbytes=1000), 0.0)
    trace = kern.run(until=10.0)
    hops = trace.node[trace.next_node >= 0]
    assert list(hops) == tables.path(src, dst)[:-1]


def test_latency_and_transmission_accounting():
    """End-to-end delay on a two-link path matches store-and-forward math."""
    net = Network()
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    net.add_link(a, r, Mbps(12), ms(1))  # tx(1500B) = 1 ms
    net.add_link(r, b, Mbps(12), ms(2))
    tables = build_routing(net)
    kern = EmulationKernel(net, tables, train_packets=1)
    kern.submit_transfer(
        Transfer(src=a.node_id, dst=b.node_id, nbytes=MTU_BYTES), 0.0
    )
    trace = kern.run(until=1.0)
    delivered = trace.next_node == DELIVERED
    arrival = trace.time[delivered][0]
    # 1 ms tx + 1 ms prop + 1 ms tx + 2 ms prop = 5 ms.
    assert arrival == pytest.approx(5e-3, rel=1e-6)


def test_fifo_queueing_serializes_trains():
    """Two simultaneous transfers on one link serialize at its rate."""
    net = Network()
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    c = net.add_host("c")
    net.add_link(a, r, Mbps(12), ms(1))
    net.add_link(r, b, Mbps(12), ms(1))
    net.add_link(r, c, Mbps(12), ms(1))
    tables = build_routing(net)
    kern = EmulationKernel(net, tables, train_packets=1)
    kern.submit_transfer(
        Transfer(src=a.node_id, dst=b.node_id, nbytes=2 * MTU_BYTES), 0.0
    )
    trace = kern.run(until=1.0)
    deliveries = trace.time[trace.next_node == DELIVERED]
    # Packets arrive 1 tx-time (1 ms) apart: the link is FIFO.
    assert np.diff(deliveries)[0] == pytest.approx(1e-3, rel=1e-6)


def test_on_delivery_callback_fires(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    fired = []

    def hook(k, t, transfer):
        fired.append((t, transfer.flow_id))

    tr = Transfer(
        src=h(net, "h0"), dst=h(net, "h3"), nbytes=50_000, on_delivery=hook
    )
    kern.submit_transfer(tr, 0.0)
    kern.run(until=60.0)
    assert len(fired) == 1
    assert fired[0][1] == tr.flow_id


def test_callback_chains_build_closed_loops(tiny_routed):
    """A delivery hook submitting a response models request/response."""
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    src, dst = h(net, "h0"), h(net, "h2")

    def respond(k, t, transfer):
        k.submit_transfer(Transfer(src=dst, dst=src, nbytes=5000), t)

    kern.submit_transfer(
        Transfer(src=src, dst=dst, nbytes=1000, on_delivery=respond), 0.0
    )
    kern.run(until=60.0)
    assert kern.stats.transfers_delivered == 2


def test_horizon_discards_late_events(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    kern.submit_transfer(
        Transfer(src=h(net, "h0"), dst=h(net, "h2"), nbytes=1e6), 0.0
    )
    trace = kern.run(until=0.005)
    assert trace.duration == pytest.approx(0.005)
    assert trace.time.max() <= 0.005


def test_transfer_in_past_rejected(tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    kern.submit_transfer(
        Transfer(src=h(net, "h0"), dst=h(net, "h2"), nbytes=1000), 1.0
    )
    kern.run(until=5.0)
    with pytest.raises(ValueError, match="past"):
        kern.submit_transfer(
            Transfer(src=h(net, "h0"), dst=h(net, "h2"), nbytes=1000), 1.0
        )


def test_determinism_same_seed(tiny_routed):
    net, tables = tiny_routed
    traces = []
    for _ in range(2):
        kern = EmulationKernel(net, tables, train_packets=4)
        rng = np.random.default_rng(7)
        for _ in range(20):
            src, dst = rng.choice(
                [h(net, f"h{i}") for i in range(4)], size=2, replace=False
            )
            kern.submit_transfer(
                Transfer(src=int(src), dst=int(dst),
                         nbytes=float(rng.uniform(1e3, 1e5))),
                float(rng.uniform(0, 5)),
            )
        traces.append(kern.run(until=30.0))
    a, b = traces
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.node, b.node)
    assert np.array_equal(a.packets, b.packets)


def test_tables_network_mismatch_rejected(tiny_routed, campus_routed):
    net, _ = tiny_routed
    _, wrong_tables = campus_routed
    with pytest.raises(ValueError, match="another network"):
        EmulationKernel(net, wrong_tables)
