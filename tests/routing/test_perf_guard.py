"""Perf guards: the batched kernels must stay batched.

Operation counters (:class:`repro.routing.perf.RoutingStats`) betray a
regression to scalar Python work: the vectorized next-hop fill performs
zero per-destination Python assignments, certifies tie-free rows in one
gather and spends O(log diameter) doubling rounds on tied rows only;
route discovery steps all pairs at once; traffic estimation walks one
route per *distinct* endpoint pair no matter how many flows share it.
These tests fail the build if someone reintroduces a per-pair loop.
"""

import numpy as np
import pytest

from repro.core.place import estimate_traffic
from repro.routing._reference import (
    compute_routing_reference,
    discover_routes_reference,
)
from repro.routing.icmp import discover_routes
from repro.routing.perf import RoutingStats
from repro.routing.spf import build_routing
from repro.topology import synth_network
from repro.traffic.flows import PredictedFlow


@pytest.fixture(scope="module")
def net():
    return synth_network(n_routers=150, hosts_per_router=1.0, seed=11)


@pytest.fixture(scope="module")
def tables(net):
    return build_routing(net, "latency")


def test_next_hop_fill_is_vectorized(net):
    """Tie-free latencies: the transposed predecessor matrix passes the
    one-gather certificate on every row, so no doubling round runs."""
    stats = RoutingStats()
    build_routing(net, "latency", stats=stats)
    assert stats.python_dest_fills == 0
    assert stats.dijkstra_calls == 1
    assert stats.fallback_rows == 0
    assert stats.nexthop_rounds == 0


def test_tied_rows_fall_back_to_log_bounded_doubling(net):
    """Under ``hops`` shortest paths tie, some rows fail the certificate
    and only those go through pointer doubling: rounds logarithmic in
    the diameter, nowhere near one round per destination."""
    stats = RoutingStats()
    build_routing(net, "hops", stats=stats)
    assert stats.python_dest_fills == 0
    assert 0 < stats.fallback_rows < net.n_nodes
    assert 0 < stats.nexthop_rounds <= 2 * net.n_nodes.bit_length() + 4


def test_blocked_mode_counts_blocks(net):
    stats = RoutingStats()
    build_routing(net, "latency", block_size=64, stats=stats)
    assert stats.dijkstra_calls == -(-net.n_nodes // 64)
    assert stats.python_dest_fills == 0


def test_reference_fill_is_scalar(net):
    """The oracle really is the scalar kernel the guard protects against."""
    stats = RoutingStats()
    compute_routing_reference(net, "latency", stats=stats)
    assert stats.python_dest_fills > 0


def test_walks_are_batched(tables):
    net = tables.net
    hosts = [h.node_id for h in net.hosts()][:14]
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    stats = RoutingStats()
    routes, _ = discover_routes(tables, pairs, stats=stats)
    assert stats.python_walk_steps == 0
    assert stats.walks == len(pairs)
    # Stepping rounds are bounded by the longest route, not by the sum of
    # path lengths (which is what a per-pair walker would cost).
    longest = max(len(p) for p in routes.values()) - 1
    total_steps = sum(len(p) - 1 for p in routes.values())
    assert stats.walk_rounds <= longest
    assert stats.walk_rounds < total_steps


def test_reference_walker_is_scalar(tables):
    hosts = [h.node_id for h in tables.net.hosts()][:6]
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    stats = RoutingStats()
    discover_routes_reference(tables, pairs, stats=stats)
    assert stats.python_walk_steps > 0


def test_estimate_walks_scale_with_distinct_pairs(tables):
    """5× duplicated flows cost exactly one walk per distinct pair."""
    net = tables.net
    hosts = [h.node_id for h in net.hosts()][:10]
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    flows = [
        PredictedFlow(s, d, 1e5) for s, d in pairs for _ in range(5)
    ]
    stats = RoutingStats()
    est = estimate_traffic(
        net, tables, flows, use_representatives=False, stats=stats
    )
    assert stats.routed_pairs == len(pairs)
    assert stats.walks == len(pairs)  # not len(flows) == 5 * len(pairs)
    assert est.n_routes == len(pairs)
    assert stats.python_walk_steps == 0


def test_representatives_splice_instead_of_walk(tables):
    net = tables.net
    hosts = [h.node_id for h in net.hosts()][:12]
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    flows = [PredictedFlow(s, d, 1e5) for s, d in pairs]
    stats = RoutingStats()
    est = estimate_traffic(
        net, tables, flows, use_representatives=True, stats=stats
    )
    assert stats.spliced_pairs > 0
    assert stats.walks + stats.spliced_pairs == len(pairs)
    assert est.n_routes == stats.walks


def test_telemetry_counters_emitted(net):
    from repro.obs.telemetry import Telemetry

    tel = Telemetry()
    build_routing(net, "latency", telemetry=tel)
    snapshot = tel.to_dict()
    counters = snapshot["counters"]
    assert counters["routing.builds"] == 1
    assert counters["routing.nodes"] == net.n_nodes
    assert counters["routing.dijkstra_calls"] >= 1
    # Every row of the tie-free net is certified: no fallback rounds.
    assert counters["routing.nexthop_rounds"] == 0


def test_uncached_delta_never_hashes_the_network(monkeypatch):
    """The network fingerprint is only a cache-key part: without a cache,
    neither update_routing nor derive_routing computes it."""
    from repro.routing.delta import (
        SetLinkCost,
        derive_routing,
        routing_state,
        update_routing,
    )
    from repro.topology import campus_network
    from repro.topology.network import Network

    base = routing_state(build_routing(campus_network()))
    state = routing_state(build_routing(campus_network()))
    calls = []
    real = Network.fingerprint
    monkeypatch.setattr(
        Network, "fingerprint", lambda self: calls.append(1) or real(self)
    )
    net = state.tables.net
    update_routing(
        state, [SetLinkCost(3, latency_s=net.links[3].latency_s * 50)]
    )
    assert derive_routing(base, net) is not None
    assert calls == []
