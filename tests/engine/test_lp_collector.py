"""The partition view takes a NetFlow collector.

A collector couples the run to event order, so it always drains per
event; that drain fires the same barriers as the window drain and LP
loads are folded from the trace recorder, so the view needs nothing
else.  Its trace and flow records are the sequential collector run's, and
its LP accounting (and rebalancing) the collector-free view's.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine.kernel import run_kernel
from repro.experiments.setups import diurnal_scenario
from repro.experiments.workloads import build_workload
from repro.profiling.netflow import NetFlowCollector
from repro.rebalance import RebalanceConfig
from repro.routing.spf import build_routing
from repro.topology.campus import campus_network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")


def _campus():
    net = campus_network()
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3
    return net, workload, parts, None


def _diurnal():
    scenario = diurnal_scenario(n_flows=300, duration=3.0, seed=1)
    return (scenario.net, scenario.workload, scenario.parts,
            RebalanceConfig(policy="hysteresis", seed=1))


@pytest.mark.parametrize("setup", (_campus, _diurnal),
                         ids=("campus", "diurnal-hysteresis"))
def test_view_with_a_collector(setup):
    runs = {}
    for engine, collector in (("sequential", NetFlowCollector("flow")),
                              ("parallel", NetFlowCollector("flow")),
                              ("parallel", None)):
        net, workload, parts, rebalance = setup()  # fresh workload state
        tables = build_routing(net)
        options = dict(engine=engine, collector=collector, seed=3)
        if engine == "parallel":
            options.update(parts=parts, rebalance=rebalance)
        runs[engine, collector is not None] = run_kernel(
            net, tables, workload, **options)
    (seq, seq_k), (view, view_k), (plain, plain_k) = (
        runs["sequential", True], runs["parallel", True],
        runs["parallel", False])
    for field in TRACE_FIELDS:
        assert getattr(view, field).tobytes() == \
            getattr(seq, field).tobytes(), field
    assert view_k.collector.records() == seq_k.collector.records()
    assert view_k.collector.n_records > 0
    assert view_k.stats.windows == 0  # collection drains per event
    assert view_k.lp_events.tolist() == plain_k.lp_events.tolist()
    assert view_k.lp_events.sum() > 0
    if rebalance is not None:
        logs = [json.dumps(k.rebalancer.log.to_dict(), sort_keys=True)
                for k in (view_k, plain_k)]
        assert logs[0] == logs[1]
        assert view_k.migrations_applied > 0
