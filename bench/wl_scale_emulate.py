"""``scale-emulate``: the engine is everything, routing is set-up.

One pass runs the same engine three ways on inputs built during set-up:
the vectorised sequential kernel on a synthetic transfer soup (part 1)
and the window-bound in-process LP engine on the diurnal scenario, once
static (part 2) and once migrating routers under the hysteresis policy
(part 3).  Then, outside ``pass_s``, two forked logical processes over
pipes replay the soup; their trace must equal part 1's byte for byte.

The forked run is timed (``lp_events_per_s``, ``engine.lp_*``) but not
bounded: two processes meeting at 1500 barriers on a 2-vCPU VM lose 40 %
in a slow phase that costs the sequential kernel 12 %, and over ten seeds
their time spread by 23 % -- at the limit of what a bound may be.
"""

from __future__ import annotations

import time

import numpy as np

NAME = "scale-emulate"
MIN_PASSES = 3

SIZES = {
    "full": dict(n_routers=1000, n_flows=3000, duration=2.0,
                 train_packets=32, regions=4, diurnal_flows=1200,
                 diurnal_duration=6.0),
    "toy": dict(n_routers=60, n_flows=200, duration=1.0, train_packets=32,
                regions=3, diurnal_flows=60, diurnal_duration=2.0),
}

#: One graph for every --seed; the seed draws the transfers.
TOPOLOGY_SEED = 0
_TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")


def _same_trace(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in _TRACE_FIELDS)


def setup(seed: int, size: dict, rec) -> dict:
    import repro.routing.spf as spf
    import repro.topology.synth as synth
    from repro.api import build_mapping
    from repro.experiments.setups import diurnal_scenario
    from repro.experiments.workloads import SyntheticTransfers

    net = synth.synth_network(
        n_routers=size["n_routers"], seed=TOPOLOGY_SEED)
    tables = spf.build_routing(net)
    parts = build_mapping(net, 2, "top", tables=tables).parts
    soup = SyntheticTransfers(
        n_flows=size["n_flows"], duration=size["duration"])
    soup.prepare(net, np.random.default_rng(seed))
    scenario = diurnal_scenario(
        n_regions=size["regions"], n_flows=size["diurnal_flows"],
        duration=size["diurnal_duration"], seed=seed)
    return {
        "seed": seed, "size": size, "net": net, "tables": tables,
        "parts": parts, "soup": soup, "scenario": scenario,
        "scenario_tables": spf.build_routing(scenario.net),
    }


def run_pass(inputs: dict, rec) -> dict:
    from repro.api import emulate
    from repro.engine.kernel import run_kernel
    from repro.rebalance import RebalanceConfig

    seed, size = inputs["seed"], inputs["size"]
    common = dict(train_packets=size["train_packets"], seed=seed)
    failures = []

    t0 = time.perf_counter()
    with rec.span("engine.seq_run"):
        seq = emulate(inputs["net"], inputs["tables"], inputs["soup"],
                      engine="sequential", **common)
    marks = [time.perf_counter()]
    scenario = inputs["scenario"]
    logs, traces = {}, {}
    for policy in ("static", "hysteresis"):
        with rec.span(f"rebalance.{policy}_run"):
            traces[policy], kernel = run_kernel(
                scenario.net, inputs["scenario_tables"], scenario.workload,
                engine="parallel", parts=scenario.parts, processes=False,
                rebalance=RebalanceConfig(policy=policy), **common)
        logs[policy] = kernel.rebalancer.log
        marks.append(time.perf_counter())
    t1, t2, t3 = marks
    with rec.span("engine.lp_run"):  # fork and teardown included
        lp = emulate(inputs["net"], inputs["tables"], inputs["soup"],
                     engine="parallel", parts=inputs["parts"],
                     processes=True, **common)
    lp_s = time.perf_counter() - t3

    if not _same_trace(seq.trace, lp.trace):
        failures.append("scale-emulate: forked-LP trace differs from the "
                        "sequential trace")
    if not _same_trace(traces["static"], traces["hysteresis"]):
        failures.append("scale-emulate: migration changed the event trace")
    events = int(seq.trace.n_events)
    moved = logs["hysteresis"]
    auc_ratio = moved.auc() / logs["static"].auc()
    return {
        "values": {
            "pass_s": t3 - t0, "part1_s": t1 - t0,
            "part2_s": t2 - t1, "part3_s": t3 - t2,
        },
        "ops": 4,
        "failures": failures,
        "events": events,
        "lp_s": lp_s,
        "named": {"rebalance_auc_over_static": auc_ratio},
        "layer": {
            "engine.lp_event_imbalance": lp.lp_imbalance,
            "engine.lp_over_seq": lp_s / (t1 - t0),
            "rebalance.migrations": moved.migration_count,
            "rebalance.routers_moved": moved.routers_moved,
            "rebalance.bytes_moved": moved.bytes_moved,
            "rebalance.auc": moved.auc(),
            "rebalance.auc_over_static": auc_ratio,
        },
    }


def finish(inputs: dict, passes) -> list[str]:
    ratios = {p["named"]["rebalance_auc_over_static"] for p in passes}
    if len(ratios) > 1:
        return ["scale-emulate: the AUC ratio changed between passes"]
    return []


def named(metrics: dict, passes) -> dict:
    events = passes[-1]["events"]  # same trace every pass
    return {
        "seq_events_per_s": events / metrics["part1_s"],
        "lp_events_per_s": events / min(p["lp_s"] for p in passes),
    }
