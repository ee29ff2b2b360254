"""Differential parity: vectorized kernels vs. the preserved references.

The optimized routing / route-discovery / traffic-estimation kernels
promise *bit-identical* outputs to the original scalar implementations
(kept in :mod:`repro.routing._reference`).  Every comparison here is exact
(``array_equal`` / ``==``) — no tolerances.
"""

import numpy as np
import pytest

from repro.core.place import estimate_traffic
from repro.routing._reference import (
    compute_routing_reference,
    discover_routes_reference,
    estimate_traffic_reference,
)
from repro.routing.icmp import discover_routes
from repro.routing.spf import build_routing
from repro.runtime.cache import ArtifactCache
from repro.topology import (
    brite_network,
    campus_network,
    synth_network,
    teragrid_network,
)
from repro.traffic.flows import PredictedFlow

TOPOLOGIES = {
    "campus": campus_network,
    "teragrid": teragrid_network,
    "brite": brite_network,
    "synth": lambda: synth_network(
        n_routers=120, hosts_per_router=1.0, seed=7
    ),
}
METRIC_NAMES = ("latency", "hops", "inv-bandwidth")


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def topo(request):
    return request.param, TOPOLOGIES[request.param]()


@pytest.fixture(scope="module")
def routed(topo):
    _, net = topo
    return net, build_routing(net, "latency")


def _endpoint_pairs(net, k=12):
    hosts = [h.node_id for h in net.hosts()][:k]
    assert len(hosts) >= 2, "parity topologies must have hosts"
    return [(s, d) for s in hosts for d in hosts if s != d]


def _flows(net, rng):
    pairs = _endpoint_pairs(net)
    return [
        PredictedFlow(s, d, float(rng.integers(1, 100)) * 1e4)
        for s, d in pairs
        for _ in range(2)  # duplicates exercise the dedupe path
    ]


# --------------------------------------------------------------------- #
# Routing tables
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_tables_bit_identical(topo, metric):
    name, net = topo
    new = build_routing(net, metric)
    ref = compute_routing_reference(net, metric)
    assert np.array_equal(new.dist, ref.dist), (name, metric)
    assert np.array_equal(new.next_hop, ref.next_hop), (name, metric)


@pytest.mark.parametrize("metric", METRIC_NAMES)
def test_blocked_equals_full(topo, metric):
    _, net = topo
    full = build_routing(net, metric)
    blocked = build_routing(net, metric, block_size=17)
    assert np.array_equal(blocked.dist, full.dist)
    assert np.array_equal(blocked.next_hop, full.next_hop)


def test_cache_round_trip_bit_identical(topo, tmp_path):
    _, net = topo
    cache = ArtifactCache(tmp_path / "cache", memory=False)
    cold = build_routing(net, "latency", cache=cache)
    warm = build_routing(net, "latency", cache=cache)
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert np.array_equal(cold.dist, warm.dist)
    assert np.array_equal(cold.next_hop, warm.next_hop)
    assert warm.net is net  # rebound to the caller's instance


# --------------------------------------------------------------------- #
# Route discovery
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("reps", (False, True))
def test_discover_routes_parity(routed, reps):
    net, tables = routed
    pairs = _endpoint_pairs(net)
    new_routes, new_walks = discover_routes(
        tables, pairs, use_representatives=reps
    )
    ref_routes, ref_walks = discover_routes_reference(
        tables, pairs, use_representatives=reps
    )
    assert new_routes == ref_routes
    assert new_walks == ref_walks


def test_representatives_cut_walks(routed):
    net, tables = routed
    pairs = _endpoint_pairs(net)
    _, with_reps = discover_routes(tables, pairs, use_representatives=True)
    _, without = discover_routes(tables, pairs, use_representatives=False)
    assert with_reps <= without


# --------------------------------------------------------------------- #
# Traffic estimation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("reps", (False, True))
def test_estimate_traffic_parity(routed, reps):
    net, tables = routed
    flows = _flows(net, np.random.default_rng(0))
    new = estimate_traffic(net, tables, flows, use_representatives=reps)
    ref = estimate_traffic_reference(
        net, tables, flows, use_representatives=reps
    )
    assert np.array_equal(new.link_rate, ref.link_rate)
    assert np.array_equal(new.node_rate, ref.node_rate)
    assert new.n_routes == ref.n_routes


def test_estimate_traffic_empty_flows(routed):
    net, tables = routed
    est = estimate_traffic(net, tables, [])
    assert est.n_routes == 0
    assert not est.link_rate.any() and not est.node_rate.any()
