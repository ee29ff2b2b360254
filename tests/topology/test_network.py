"""Tests for the Network container and elements."""

import pytest

from repro.topology.elements import Gbps, Link, Mbps, ms, us
from repro.topology.network import Network


def test_unit_helpers():
    assert Mbps(100) == 100e6
    assert Gbps(1) == 1e9
    assert ms(2) == pytest.approx(0.002)
    assert us(50) == pytest.approx(50e-6)


def test_add_nodes_and_links():
    net = Network("t")
    r = net.add_router("r0")
    h = net.add_host("h0")
    link = net.add_link(r, h, Mbps(100), ms(1))
    assert net.n_nodes == 2
    assert net.n_links == 1
    assert link.other(r.node_id) == h.node_id
    assert net.node("r0").is_router
    assert net.node("h0").is_host


def test_duplicate_name_rejected():
    net = Network()
    net.add_router("x")
    with pytest.raises(ValueError, match="duplicate"):
        net.add_host("x")


def test_self_link_rejected():
    net = Network()
    r = net.add_router("r")
    with pytest.raises(ValueError):
        net.add_link(r, r, Mbps(10), ms(1))


def test_bad_link_params_rejected():
    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    with pytest.raises(ValueError):
        net.add_link(a, b, 0.0, ms(1))
    with pytest.raises(ValueError):
        net.add_link(a, b, Mbps(1), 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_link_params_rejected(bad):
    """NaN slips past a ``<= 0`` test; both setters name the bad value."""
    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    with pytest.raises(ValueError, match=f"bandwidth_bps={bad!r}"):
        net.add_link(a, b, bad, ms(1))
    with pytest.raises(ValueError, match=f"latency_s={bad!r}"):
        net.add_link(a, b, Mbps(1), bad)
    link = net.add_link(a, b, Mbps(1), ms(1))
    with pytest.raises(ValueError, match=f"bandwidth .* got {bad!r}"):
        net.set_link(link.link_id, bandwidth_bps=bad)
    with pytest.raises(ValueError, match=f"latency .* got {bad!r}"):
        net.set_link(link.link_id, latency_s=bad)
    assert net.link(link.link_id) == link


def test_resolve_by_name_and_id():
    net = Network()
    net.add_router("a")
    b = net.add_router("b")
    net.add_link("a", b.node_id, Mbps(10), ms(1))
    assert net.find_link("a", "b") is not None
    with pytest.raises(KeyError):
        net.node("missing")
    with pytest.raises(IndexError):
        net.node(17)


def test_node_total_bandwidth(tiny_network):
    # r0 carries one router link (100M) and two host links (10M each).
    assert tiny_network.node_total_bandwidth("r0") == pytest.approx(120e6)


def test_link_tx_time():
    link = Link(0, 0, 1, bandwidth_bps=1e6, latency_s=0.001)
    assert link.tx_time(125_000) == pytest.approx(1.0)  # 1 Mbit link, 1 Mbit


def test_validate_detects_disconnection():
    net = Network()
    net.add_router("a")
    net.add_router("b")
    with pytest.raises(ValueError, match="not connected"):
        net.validate()


def test_validate_detects_isolated_host():
    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    net.add_link(a, b, Mbps(10), ms(1))
    net.add_host("h")
    with pytest.raises(ValueError, match="disconnected"):
        net.validate()


def test_as_sizes(tiny_network):
    assert tiny_network.as_sizes() == {0: 4}

