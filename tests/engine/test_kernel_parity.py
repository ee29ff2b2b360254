"""Differential parity: batched kernel vs the reference heap kernel.

The grid is topology × train size over unbounded FIFO links.  Every cell
runs the same prepared workload through
:func:`repro.engine.kernel.run_kernel` and
:func:`repro.engine._reference.run_kernel_reference` and compares the
results bit-exactly: trace arrays byte for byte, semantic stats, per-link
accounting — once per kernel drain (the ``drains`` fixture pins the
selection).  On the window drain multi-packet trains exercise the python
FIFO loop and ``train_packets=1`` the vector path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine._reference import run_kernel_reference
from repro.engine.kernel import run_kernel
from repro.experiments.workloads import SyntheticTransfers
from repro.routing.spf import build_routing
from repro.topology.brite import brite_network
from repro.topology.campus import campus_network
from repro.topology.synth import synth_network
from repro.topology.teragrid import teragrid_network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")

_FACTORIES = {
    "campus": campus_network,
    "teragrid": teragrid_network,
    "brite": lambda: brite_network(n_routers=40, n_hosts=40, seed=3),
    "synth": lambda: synth_network(n_routers=60, seed=3),
}

# Links are unbounded FIFOs: the one queue cell, named "none".
_QUEUES = ("none",)


@pytest.fixture(scope="module", params=sorted(_FACTORIES))
def routed(request):
    net = _FACTORIES[request.param]()
    return net, build_routing(net)


def _workload(net):
    wl = SyntheticTransfers(
        n_flows=60, duration=1.0, min_bytes=2_000, max_bytes=60_000,
    )
    wl.prepare(net, np.random.default_rng(11))
    return wl


@pytest.mark.parametrize("queue_name", _QUEUES)
@pytest.mark.parametrize("train_packets", [1, 32])
def test_batched_matches_reference(routed, queue_name, train_packets,
                                   drains):
    net, tables = routed
    wl = _workload(net)
    trace_ref, kernel_ref = run_kernel_reference(
        net, tables, wl, seed=11, train_packets=train_packets,
    )
    for drain in drains:
        trace_new, kernel_new = run_kernel(
            net, tables, wl, seed=11, train_packets=train_packets,
        )
        drains.check(kernel_new, drain)

        for field in TRACE_FIELDS:
            a, b = getattr(trace_new, field), getattr(trace_ref, field)
            assert a.dtype == b.dtype, (drain, field)
            assert np.array_equal(a, b), (drain, field)
        assert trace_new.duration == trace_ref.duration
        assert trace_new.n_events > 0

        assert kernel_new.stats.semantic() == kernel_ref.stats.semantic()
        assert kernel_new.transfer_log == kernel_ref.transfer_log

        for name in ("link_packets", "link_bytes", "link_busy_s",
                     "link_max_backlog_s"):
            np.testing.assert_array_equal(
                getattr(kernel_new, name), getattr(kernel_ref, name),
                err_msg=f"{drain}: {name}",
            )

