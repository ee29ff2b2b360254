"""Application-level parity: batched injection vs the reference kernel.

Every install-time generator (ScaLapack, the GridNPB workflow, CBR,
Poisson) hands its transfers to ``submit_transfers`` in one batch; on
:class:`~repro.engine._reference.ReferenceKernel` that method *is* the
``submit_transfer`` loop, so ``run_kernel`` vs ``run_kernel_reference``
proves "bulk == loop" for real applications — under both kernel drains
(the ``drains`` fixture pins the selection), and on the per-event drain the
NetFlow profile run always takes (where the collector must see the
same fields, in the same order, as the per-train objects of the reference
would have shown it).  The gridnpb cells carry hooked HTTP traffic.

Horizons are short on purpose: injection covers the whole application,
execution only its first seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine._reference import run_kernel_reference
from repro.engine.kernel import run_kernel
from repro.experiments.workloads import Workload, build_workload
from repro.profiling.netflow import NetFlowCollector
from repro.routing.spf import build_routing
from repro.topology.brite import brite_network
from repro.topology.campus import campus_network
from repro.topology.teragrid import teragrid_network
from repro.traffic.cbr import CbrTraffic
from repro.traffic.poisson import PoissonTraffic

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")
LINK_ARRAYS = ("link_packets", "link_bytes", "link_busy_s",
               "link_max_backlog_s")

_FACTORIES = {
    "campus": campus_network,
    "teragrid": teragrid_network,
    "brite": lambda: brite_network(n_routers=40, n_hosts=40, seed=3),
}


def _background(net):
    hosts = [h.node_id for h in net.hosts()]
    rng = np.random.default_rng(5)
    pairs = [
        tuple(int(h) for h in rng.choice(hosts, size=2, replace=False))
        for _ in range(12)
    ]
    return Workload(
        background=[
            # A fractional size on purpose (see test_bulk_submit).
            CbrTraffic(pairs=pairs[:6], nbytes=100e3 + 0.5, period=1.0,
                       duration=20.0),
            PoissonTraffic(pairs=pairs[6:], rate=2.0, duration=20.0),
        ],
        app=None, duration=20.0, name="cbr+poisson",
    )


# name -> (workload factory, run horizon in virtual seconds)
_WORKLOADS = {
    "scalapack": (lambda net: build_workload(net, "scalapack", "moderate",
                                             seed=1), 7.5),
    # The workflow's first edges ship at 85 s and 145 s: a thin HTTP
    # background keeps the long horizon affordable.
    "gridnpb": (lambda net: build_workload(net, "gridnpb", "light", seed=1,
                                           http_servers=2,
                                           clients_per_server=3), 150.0),
    "cbr+poisson": (_background, 8.0),
}

# Stateful (collector records): one fresh instance per run, never shared
# across the pair.
_MODES = {
    "plain": lambda: {},
    "netflow-flow": lambda: {"collector": NetFlowCollector("flow")},
    "netflow-pair": lambda: {"collector": NetFlowCollector("pair")},
}


@pytest.fixture(scope="module", params=sorted(_FACTORIES))
def routed(request):
    net = _FACTORIES[request.param]()
    return net, build_routing(net)


@pytest.mark.parametrize("mode", sorted(_MODES))
@pytest.mark.parametrize("workload", sorted(_WORKLOADS))
def test_applications_match_reference(routed, workload, mode, drains):
    net, tables = routed
    factory, until = _WORKLOADS[workload]
    wl = factory(net)
    wl.prepare(net, np.random.default_rng(1))
    trace_ref, k_ref = run_kernel_reference(
        net, tables, wl, seed=1, until=until, **_MODES[mode]()
    )
    for drain in drains:
        trace_new, k_new = run_kernel(
            net, tables, wl, seed=1, until=until, **_MODES[mode]()
        )
        drains.check(k_new, drain)
        _assert_matches(workload, mode, until, trace_new, k_new, trace_ref,
                        k_ref)


def _assert_matches(workload, mode, until, trace_new, k_new, trace_ref,
                    k_ref):
    for field in TRACE_FIELDS:
        a, b = getattr(trace_new, field), getattr(trace_ref, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field
    assert k_new.transfer_log == k_ref.transfer_log
    assert k_new.stats.semantic() == k_ref.stats.semantic()
    for name in LINK_ARRAYS:
        assert np.array_equal(getattr(k_new, name), getattr(k_ref, name)), name

    # The cell exercised what it claims: install-time (hook-free) transfers
    # ran inside the horizon, and they created no per-train object — every
    # Transfer the batched kernel holds belongs to a hooked HTTP flow.
    assert any(
        t < until and not tag.startswith("http")
        for t, _, _, _, _, tag in k_new.transfer_log
    )
    assert all(
        transfer.on_delivery is not None for transfer in k_new._hooked
    )
    if workload == "gridnpb":
        assert k_new.stats.hook_cuts > 0
    if mode.startswith("netflow"):
        assert k_new.stats.vector_events == 0
        assert k_new.collector.n_records > 0
        assert k_new.collector.events_seen == k_ref.collector.events_seen
        # Dataclass equality, record for record: keys, packet counts, the
        # float byte sums (same addition order) and first/last stamps.
        assert k_new.collector.records() == k_ref.collector.records()
