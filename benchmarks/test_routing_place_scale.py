"""Routing + PLACE pipeline scale study (§3.2 hot paths).

The paper's route instantiation and traffic estimation must scale to the
10k-node topologies the partitioner already handles (ROADMAP: "scale").
These benchmarks hold the vectorized kernels to explicit wall-time
budgets — the acceptance bar of the batched-kernel PR — and check the
outputs stay structurally sane at scale.  Reference-kernel timings for the
same cases are recorded in EXPERIMENTS.md; the references themselves only
run in the (small-topology) parity suite, not here.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once

#: (n_routers, wall-time budget in seconds) for one all-pairs routing
#: build at hosts_per_router=0.04.  Local measurements: 0.23 s at 1k,
#: 8.5 s at 5k (the scipy Dijkstra dominates; the next-hop fill is
#: O(log diameter) gather rounds).  Budgets leave ~5x headroom for CI.
_ROUTING_CASES = [(1000, 5.0), (5000, 45.0)]

#: The PR's acceptance case: build_place_inputs end-to-end on a 5k-router
#: synthetic network, all-to-all foreground over 200 hosts,
#: representatives on.  Locally 0.35 s; budget with CI headroom.
_PLACE_CASE = (5000, 200, 20.0)


def _routed_synth(n_routers: int):
    from repro.routing.perf import RoutingStats
    from repro.routing.spf import build_routing
    from repro.topology.synth import synth_network

    net = synth_network(n_routers=n_routers, hosts_per_router=0.04, seed=0)
    stats = RoutingStats()
    start = time.perf_counter()
    tables = build_routing(net, "latency", stats=stats)
    wall = time.perf_counter() - start
    return net, tables, stats, wall


@pytest.mark.parametrize("n_routers,budget", _ROUTING_CASES)
def test_routing_build_within_budget(benchmark, n_routers, budget):
    """All-pairs routing stays inside the wall-time budget at scale and
    never falls back to per-destination Python fills."""
    net, tables, stats, wall = run_once(benchmark, _routed_synth, n_routers)
    print(f"\nrouting n_routers={n_routers} nodes={net.n_nodes}: "
          f"{wall:.2f}s (budget {budget:.0f}s), "
          f"{stats.dijkstra_calls} dijkstra / "
          f"{stats.fallback_rows} fallback rows / "
          f"{stats.nexthop_rounds} doubling rounds")
    assert wall < budget, (
        f"routing build on {n_routers} routers took {wall:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    assert stats.python_dest_fills == 0
    # Every off-diagonal entry routes (synth networks are connected).
    n = net.n_nodes
    assert int((tables.next_hop >= 0).sum()) == n * n - n


def test_place_inputs_within_budget(benchmark):
    """The acceptance case: PLACE inputs end-to-end on 5k routers."""
    from repro.core.place import build_place_inputs

    n_routers, n_hosts, budget = _PLACE_CASE
    net, tables, _, _ = _routed_synth(n_routers)
    hosts = [h.node_id for h in net.hosts()][:n_hosts]
    assert len(hosts) >= n_hosts

    class AllToAll:
        name = "bench-all-to-all"
        endpoints = hosts
        duration = 0.0

        def offered_bytes(self):
            return None

    def build():
        start = time.perf_counter()
        inputs = build_place_inputs(
            net, tables, background=[], apps=[AllToAll()],
            use_representatives=True,
        )
        return inputs, time.perf_counter() - start

    inputs, wall = run_once(benchmark, build)
    est = inputs.estimate
    n_pairs = len(hosts) * (len(hosts) - 1)
    print(f"\nplace n_routers={n_routers} hosts={len(hosts)} "
          f"pairs={n_pairs}: {wall:.2f}s (budget {budget:.0f}s), "
          f"{est.n_routes} traceroutes")
    assert wall < budget, (
        f"build_place_inputs on {n_routers} routers took {wall:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    # Representatives must cut the traceroute budget below all-pairs.
    assert est.n_routes < n_pairs
    # The estimate actually landed: every foreground endpoint carries
    # traffic and the vertex weights are finite and positive somewhere.
    assert est.node_rate[hosts].all()
    assert est.link_rate.sum() > 0
    assert np.isfinite(inputs.vwgt).all()
