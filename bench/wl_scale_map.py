"""``scale-map``: mapping at scale, no emulation at all.

One pass: cold ``build_routing`` -> TOP -> PLACE on a synthetic
AS-of-routers network, then a cumulative stream of single-link latency
changes repaired through ``update_routing``.  The routing layer does most
of the work in two different ways -- a full all-pairs build beside the
incremental repair -- so a gain for one that costs the other shows.

The graph and PLACE's traffic are the same for every seed; the seed draws
the changed links, one from each twelfth of the links ranked by blast
radius (``gen.ladder_links``).
"""

from __future__ import annotations

import time

import numpy as np

NAME = "scale-map"
MIN_PASSES = 3

SIZES = {
    "full": dict(n_routers=1200, hosts_per_router=0.04, k=16, n_changes=12,
                 duration=30.0),
    "toy": dict(n_routers=120, hosts_per_router=0.1, k=4, n_changes=3,
                duration=5.0),
}

_LATENCY_FACTOR = 3.0
#: The graph is the same for every --seed (see README, "What the seed
#: draws"): the partitioner's time on one random graph differs by 12-36 %
#: between graphs, more than any bound could absorb.
TOPOLOGY_SEED = 0
#: Likewise PLACE's predicted traffic: it sets the partitioner's weights,
#: and the partitioner's time moves 20-50 % from one weight set to the next.
TRAFFIC_SEED = 0


def _network(size: dict):
    import repro.topology.synth as synth

    return synth.synth_network(
        n_routers=size["n_routers"],
        hosts_per_router=size["hosts_per_router"], seed=TOPOLOGY_SEED,
    )


def setup(seed: int, size: dict, rec) -> dict:
    import repro.routing.spf as spf
    from gen import ladder_links

    net = _network(size)
    links = ladder_links(net, spf.build_routing(net), size["n_changes"],
                         np.random.default_rng(seed))
    return {"seed": seed, "size": size, "links": links, "last": None}


def run_pass(inputs: dict, rec) -> dict:
    import repro.routing.delta as delta
    import repro.routing.spf as spf
    from repro.api import build_mapping
    from repro.experiments.workloads import build_workload
    from repro.routing.perf import RoutingStats

    size = inputs["size"]
    # update_routing mutates the network, so every pass regenerates it
    # (untimed: generation is set-up work, repeated here only to reset).
    net = _network(size)
    workload = build_workload(
        net, "scalapack", "moderate", seed=TRAFFIC_SEED,
        duration=size["duration"])
    failures = []

    build_stats = RoutingStats()
    t0 = time.perf_counter()
    tables = spf.build_routing(net, stats=build_stats)
    t1 = time.perf_counter()
    build_mapping(net, size["k"], "top", tables=tables)
    build_mapping(net, size["k"], "place", workload=workload, tables=tables,
                  seed=TRAFFIC_SEED)
    t2 = time.perf_counter()
    state = delta.routing_state(tables)
    repair_s = []
    for lid in inputs["links"]:
        stats = RoutingStats()
        change = delta.SetLinkCost(
            lid, latency_s=net.links[lid].latency_s * _LATENCY_FACTOR)
        start = time.perf_counter()
        delta.update_routing(state, [change], stats=stats)
        repair_s.append(time.perf_counter() - start)
        if stats.touched_sources != stats.affected_sources:
            failures.append(
                f"scale-map: link {lid} touched {stats.touched_sources} "
                f"sources but {stats.affected_sources} were affected")
        rec.count("routing.delta_touched_sources", stats.touched_sources)
        rec.count("routing.delta_affected_sources", stats.affected_sources)
    t3 = time.perf_counter()

    rec.count("routing.dijkstra_calls", build_stats.dijkstra_calls)
    rec.count("routing.nexthop_rounds", build_stats.nexthop_rounds)
    inputs["last"] = (net, state)
    return {
        "values": {
            "pass_s": t3 - t0, "part1_s": t1 - t0,
            "part2_s": t2 - t1, "part3_s": t3 - t2,
        },
        "ops": 3 + len(inputs["links"]),
        "failures": failures,
        "named": {},
        "layer": {
            "routing.delta_p50_s": float(np.median(repair_s)),
            "routing.delta_max_s": float(max(repair_s)),
        },
    }


def finish(inputs: dict, passes) -> list[str]:
    """Repaired tables must equal a from-scratch build, bit for bit."""
    import repro.routing.spf as spf

    net, state = inputs["last"]
    fresh = spf.build_routing(net)
    if (np.array_equal(state.tables.dist, fresh.dist)
            and np.array_equal(state.tables.next_hop, fresh.next_hop)):
        return []
    return ["scale-map: repaired routing tables differ from a fresh build"]


def named(metrics: dict, passes) -> dict:
    return {
        "map_cold_s": metrics["part1_s"] + metrics["part2_s"],
        "repair_stream_s": metrics["part3_s"],
    }


def trace_extras(inputs: dict, rec, base, passes) -> dict:
    from harness import cache_round_trip

    return cache_round_trip(inputs["last"][1].tables)
