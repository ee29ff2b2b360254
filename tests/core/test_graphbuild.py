"""Tests for network → partition-graph conversion and weight recipes."""

import numpy as np
import pytest

from repro.core.graphbuild import (
    bandwidth_vertex_weights,
    combine_compute_memory,
    latency_objective_weights,
    link_weights_to_adjwgt,
    network_csr,
)
from repro.routing.tables import memory_weights
from repro.topology.elements import Mbps, ms


def test_network_csr_structure(tiny_network):
    graph, link_index = network_csr(tiny_network)
    graph.validate()
    assert graph.n == tiny_network.n_nodes
    assert graph.m == tiny_network.n_links
    assert link_index.shape == graph.adjncy.shape


def test_link_index_maps_correct_links(tiny_network):
    graph, link_index = network_csr(tiny_network)
    for v in range(graph.n):
        lo, hi = graph.xadj[v], graph.xadj[v + 1]
        for slot in range(lo, hi):
            link = tiny_network.link(int(link_index[slot]))
            assert v in (link.u, link.v)
            assert int(graph.adjncy[slot]) == link.other(v)


def _neighbor_walk(net):
    """``(xadj, adjncy, link_index)`` read off ``net.neighbors``, node by
    node: the order the CSR skeleton must keep."""
    xadj, adjncy, link_index = [0], [], []
    for v in range(net.n_nodes):
        for nbr, link in net.neighbors(v):
            adjncy.append(nbr)
            link_index.append(link.link_id)
        xadj.append(len(adjncy))
    return xadj, adjncy, link_index


def _assert_csr_matches_walk(net):
    graph, link_index = network_csr(net)
    xadj, adjncy, links = _neighbor_walk(net)
    assert graph.xadj.tolist() == xadj
    assert graph.adjncy.tolist() == adjncy
    assert link_index.tolist() == links


def test_network_csr_matches_neighbor_walk(tiny_network, campus):
    """The CSR skeleton built from the link arrays lists every node's
    links in :meth:`Network.neighbors` order, through parallel links, a
    link swapped in place, a down link and a link added afterwards."""
    net = tiny_network
    _assert_csr_matches_walk(net)
    net.add_link("r1", "r2", Mbps(100), ms(2.0))  # parallel to link 1
    net.add_link("r2", "r1", Mbps(40), ms(3.0))  # parallel, reversed ends
    _assert_csr_matches_walk(net)
    net.set_link(1, bandwidth_bps=Mbps(50))  # swapped in place
    net.set_link_up(4, False)  # down links stay in the adjacency
    _assert_csr_matches_walk(net)
    net.add_link("h0", "r3", Mbps(10), ms(0.5))
    net.add_link("r3", "r0", Mbps(100), ms(4.0))
    _assert_csr_matches_walk(net)
    _assert_csr_matches_walk(campus)


def test_link_weights_expansion(tiny_network):
    graph, link_index = network_csr(tiny_network)
    weights = np.arange(tiny_network.n_links, dtype=np.float64)
    adjwgt = link_weights_to_adjwgt(weights, link_index)
    g2 = graph.with_adjwgt(adjwgt)
    g2.validate()  # symmetric by construction
    # Each undirected edge's weight equals its link's weight.
    for u, v, w in g2.edge_list():
        link = tiny_network.find_link(u, v)
        assert w == pytest.approx(weights[link.link_id])


def test_latency_objective_inverts(tiny_network):
    w = latency_objective_weights(tiny_network)
    lats = np.array([l.latency_s for l in tiny_network.links])
    # Lowest-latency link gets weight 1 (most expensive to cut).
    assert w[np.argmin(lats)] == pytest.approx(1.0)
    # Higher latency -> lower weight, monotonically.
    order = np.argsort(lats)
    assert all(np.diff(w[order]) <= 1e-12)


def test_bandwidth_vertex_weights(tiny_network):
    w = bandwidth_vertex_weights(tiny_network)
    assert w[0] == pytest.approx(0.12)  # r0: 100M + 2x10M in Gbps
    hosts = [h.node_id for h in tiny_network.hosts()]
    assert all(w[h] == pytest.approx(0.01) for h in hosts)


def test_combine_sum_mode(tiny_network):
    compute = np.arange(tiny_network.n_nodes, dtype=np.float64)
    vwgt = combine_compute_memory(compute, tiny_network, memory_weight=0.5,
                                  mode="sum")
    assert vwgt.shape == (tiny_network.n_nodes, 1)
    # Normalized columns: total = n * (1 + 0.5).
    assert vwgt.sum() == pytest.approx(tiny_network.n_nodes * 1.5)


def test_combine_constraint_mode(tiny_network):
    compute = np.ones(tiny_network.n_nodes)
    vwgt = combine_compute_memory(compute, tiny_network, memory_weight=0.3,
                                  mode="constraint")
    assert vwgt.shape == (tiny_network.n_nodes, 2)
    mem = memory_weights(tiny_network)
    assert np.allclose(vwgt[:, 1], 0.3 * mem / mem.mean())


def test_combine_bad_mode(tiny_network):
    with pytest.raises(ValueError):
        combine_compute_memory(np.ones(8), tiny_network, mode="wat")
