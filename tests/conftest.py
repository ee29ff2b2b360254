"""Shared fixtures: small deterministic graphs, networks, and workloads."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.engine.kernel import EmulationKernel
from repro.partition.csr import CSRGraph
from repro.routing.spf import build_routing
from repro.topology.campus import campus_network
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network

# Tier-1 must execute the same examples on every run ("a number counts
# only if it is repeatable" applies to the verify command first); CI
# explores with fresh seeds separately and prints how to replay a failure.
# Per-test max_examples / deadline settings are untouched by either.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_graph():
    """8x8 grid graph with unit weights — a structured partitioning case."""
    import networkx as nx

    g = nx.convert_node_labels_to_integers(nx.grid_2d_graph(8, 8))
    edges = [(u, v, 1.0) for u, v in g.edges()]
    return CSRGraph.from_edges(g.number_of_nodes(), edges)


@pytest.fixture
def weighted_graph(rng):
    """Random connected graph with weighted vertices and edges."""
    import networkx as nx

    g = nx.connected_watts_strogatz_graph(40, 4, 0.3, seed=7)
    edges = [(u, v, float(rng.uniform(0.5, 3.0))) for u, v in g.edges()]
    vwgt = rng.uniform(1.0, 4.0, size=40)
    return CSRGraph.from_edges(40, edges, vwgt=vwgt)


@pytest.fixture
def tiny_network():
    """4 routers in a line + 2 hosts per edge router: smallest useful net."""
    net = Network("tiny")
    routers = [net.add_router(f"r{i}") for i in range(4)]
    for a, b in zip(routers, routers[1:]):
        net.add_link(a, b, Mbps(100), ms(1.0))
    for i, r in enumerate((routers[0], routers[0], routers[3], routers[3])):
        host = net.add_host(f"h{i}")
        net.add_link(host, r, Mbps(10), ms(0.1))
    net.validate()
    return net


@pytest.fixture
def tiny_routed(tiny_network):
    return tiny_network, build_routing(tiny_network)


@pytest.fixture
def campus():
    return campus_network()


@pytest.fixture
def campus_routed(campus):
    return campus, build_routing(campus)


@pytest.fixture
def tiny_kernel(tiny_routed):
    net, tables = tiny_routed
    return EmulationKernel(net, tables, train_packets=8)
