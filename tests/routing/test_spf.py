"""Tests for shortest-path routing and the memory model."""

import numpy as np
import pytest

from repro.routing.spf import _cost_graph, build_routing
from repro.routing.tables import HOST_MEMORY_WEIGHT, memory_weights
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network
from tests.routing.test_routing_parity import TOPOLOGIES


def test_next_hop_on_line(tiny_routed):
    net, tables = tiny_routed
    # r0=0, r1=1, r2=2, r3=3 in a line.
    assert tables.hop(0, 3) == 1
    assert tables.hop(1, 3) == 2
    assert tables.hop(3, 0) == 2


def test_path_reconstruction(tiny_routed):
    net, tables = tiny_routed
    h0 = net.node("h0").node_id
    h2 = net.node("h2").node_id
    path = tables.path(h0, h2)
    assert path[0] == h0 and path[-1] == h2
    names = [net.node(v).name for v in path]
    assert names == ["h0", "r0", "r1", "r2", "r3", "h2"]


def test_path_self():
    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    net.add_link(a, b, Mbps(10), ms(1))
    tables = build_routing(net)
    assert tables.path(0, 0) == [0]


def test_latency_metric_prefers_fast_path():
    """Triangle with a slow direct link: route via the fast detour."""
    net = Network()
    a, b, c = (net.add_router(x) for x in "abc")
    net.add_link(a, b, Mbps(10), ms(10))  # slow direct
    net.add_link(a, c, Mbps(10), ms(1))
    net.add_link(c, b, Mbps(10), ms(1))
    tables = build_routing(net, metric="latency")
    assert tables.path(0, 1) == [0, 2, 1]


def test_hops_metric_prefers_direct():
    net = Network()
    a, b, c = (net.add_router(x) for x in "abc")
    net.add_link(a, b, Mbps(10), ms(10))
    net.add_link(a, c, Mbps(10), ms(1))
    net.add_link(c, b, Mbps(10), ms(1))
    tables = build_routing(net, metric="hops")
    assert tables.path(0, 1) == [0, 1]


def test_inv_bandwidth_metric_prefers_fat_path():
    net = Network()
    a, b, c = (net.add_router(x) for x in "abc")
    net.add_link(a, b, Mbps(1), ms(1))       # thin direct
    net.add_link(a, c, Mbps(1000), ms(1))
    net.add_link(c, b, Mbps(1000), ms(1))
    tables = build_routing(net, metric="inv-bandwidth")
    assert tables.path(0, 1) == [0, 2, 1]


def test_unknown_metric_rejected(tiny_network):
    with pytest.raises(ValueError, match="unknown metric"):
        build_routing(tiny_network, metric="zorp")


def _parallel_link_net():
    """a=b double link (1ms fast + 5ms slow) then b-c; no validate() —
    it rejects parallel links, but add_link permits them and routing must
    cope."""
    net = Network()
    a, b, c = (net.add_router(x) for x in "abc")
    fast = net.add_link(a, b, Mbps(100), ms(1))
    slow = net.add_link(a, b, Mbps(100), ms(5))
    net.add_link(b, c, Mbps(100), ms(1))
    return net, fast, slow


def test_parallel_links_route_min_cost():
    """Regression: scipy's COO→CSR conversion *sums* duplicate entries, so
    two parallel links used to route at the sum of their costs (6 ms here)
    instead of the cheaper link's 1 ms."""
    net, fast, slow = _parallel_link_net()
    tables = build_routing(net, metric="latency")
    assert tables.dist[0, 1] == pytest.approx(1e-3)   # not 6e-3
    assert tables.dist[0, 2] == pytest.approx(2e-3)
    assert tables.hop(0, 2) == 1


def test_parallel_links_forward_over_cheap_link():
    net, fast, slow = _parallel_link_net()
    tables = build_routing(net, metric="latency")
    assert tables.link_between(0, 1).link_id == fast.link_id
    assert tables.link_between(1, 0).link_id == fast.link_id
    ids = tables.link_ids_of(np.array([0, 1]), np.array([1, 0]))
    assert list(ids) == [fast.link_id, fast.link_id]


def test_pair_channels_name_link_and_sending_end():
    """``pair_channels`` gives ``2 * link_id + direction`` (0 when the
    sender is the link's ``u`` end) of the link ``link_between`` picks,
    and ``link_ids_of`` is that shifted, with its error unchanged."""
    net, fast, _ = _parallel_link_net()
    tables = build_routing(net, metric="latency")
    n = net.n_nodes
    pairs = np.array([0 * n + 1, 1 * n + 0, 1 * n + 2, 2 * n + 1])
    assert tables.pair_channels(pairs).tolist() == [
        2 * fast.link_id, 2 * fast.link_id + 1, 4, 5]
    with pytest.raises(ValueError, match="nodes 0 and 2 are not adjacent"):
        tables.link_ids_of(np.array([0]), np.array([2]))


def test_parallel_links_parity_with_reference():
    from repro.routing._reference import compute_routing_reference

    net, _, _ = _parallel_link_net()
    for metric in ("latency", "hops", "inv-bandwidth"):
        new = build_routing(net, metric)
        ref = compute_routing_reference(net, metric)
        assert np.array_equal(new.dist, ref.dist), metric
        assert np.array_equal(new.next_hop, ref.next_hop), metric


def test_table_size_counts_destinations(tiny_routed):
    net, tables = tiny_routed
    assert tables.table_size(0) == net.n_nodes - 1


def test_routes_consistent_with_distances(campus_routed):
    """Walking next hops accumulates exactly the reported distance."""
    net, tables = campus_routed
    rng = np.random.default_rng(0)
    nodes = rng.choice(net.n_nodes, size=10, replace=False)
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            walked = sum(
                link.latency_s
                for link in tables.path_links(int(src), int(dst))
            )
            assert walked == pytest.approx(tables.dist[src, dst])


def test_memory_weights_formula(tiny_network):
    mw = memory_weights(tiny_network)
    # 4 routers in AS 0: router weight = 10 + 16 = 26.
    for r in tiny_network.routers():
        assert mw[r.node_id] == pytest.approx(26.0)
    for h in tiny_network.hosts():
        assert mw[h.node_id] == pytest.approx(HOST_MEMORY_WEIGHT)


def test_memory_weights_per_as():
    net = Network()
    a = net.add_router("a", as_id=1)
    b = net.add_router("b", as_id=2)
    c = net.add_router("c", as_id=2)
    net.add_link(a, b, Mbps(10), ms(1))
    net.add_link(b, c, Mbps(10), ms(1))
    mw = memory_weights(net)
    assert mw[a.node_id] == pytest.approx(11.0)   # AS of 1 router
    assert mw[b.node_id] == pytest.approx(14.0)   # AS of 2 routers


def _down_and_parallel_net():
    """A 5-router ring with a chord: r1–r2 is down, r0–r1 has a down
    parallel link, r2–r3 has an up one."""
    net = Network()
    r = [net.add_router(f"r{i}") for i in range(5)]
    for u, v, lat in ((0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3), (4, 0, 2),
                      (1, 3, 5), (0, 1, 4), (2, 3, 1)):
        net.add_link(r[u], r[v], Mbps(10 * lat), ms(lat))
    net.set_link_up(1, False)
    net.set_link_up(6, False)
    return net


@pytest.mark.parametrize("metric", ("latency", "hops", "inv-bandwidth"))
@pytest.mark.parametrize("topo", ("campus", "teragrid", "brite", "synth",
                                  "down+parallel"))
def test_cost_graph_is_symmetric(topo, metric):
    """The precondition of Dijkstra's ``directed=True``: on a symmetric
    cost graph it relaxes exactly what the undirected mode does."""
    net = _down_and_parallel_net() if topo == "down+parallel" \
        else TOPOLOGIES[topo]()
    g = _cost_graph(net, metric)
    assert g.nnz > 0
    assert (g != g.T).nnz == 0
