"""Cross-engine determinism: one (seed, workload) → one byte trace.

Every engine — the reference heap kernel, the batched sequential kernel
under each of its drains, and the parallel engine's partition view over
it — must produce byte-identical :class:`EventTrace` arrays for the same
seed and workload.  Tie-breaks are the hard part: two trains arriving
at the same virtual time must execute in submission (sequence) order on
every engine, so a symmetric topology that manufactures exact virtual-time
ties is part of the grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine._reference import run_kernel_reference
from repro.engine.kernel import run_kernel
from repro.engine.packet import Transfer
from repro.experiments.workloads import SyntheticTransfers
from repro.routing.spf import build_routing
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")


def _symmetric_network():
    """Two hosts with identical paths into one sink: exact-tie factory.

    ``h0 → r0 → r2 → sink`` and ``h1 → r1 → r2 → sink`` have identical
    bandwidths and latencies, so two equal transfers submitted at the same
    instant collide at ``r2`` (and again at the sink) at *exactly* the
    same float timestamps — only the sequence tie-break orders them.
    """
    net = Network("tie")
    r0, r1, r2 = (net.add_router(f"r{i}") for i in range(3))
    sink_r = net.add_router("r3")
    net.add_link(r0, r2, Mbps(100), ms(1.0))
    net.add_link(r1, r2, Mbps(100), ms(1.0))
    net.add_link(r2, sink_r, Mbps(100), ms(1.0))
    h0, h1 = net.add_host("h0"), net.add_host("h1")
    sink = net.add_host("sink")
    net.add_link(h0, r0, Mbps(10), ms(0.1))
    net.add_link(h1, r1, Mbps(10), ms(0.1))
    net.add_link(sink, sink_r, Mbps(10), ms(0.1))
    net.validate()
    return net


class _TieWorkload:
    """Equal twin transfers at identical times (plus a same-time pair in
    the reverse direction so the sink's access link also ties)."""

    duration = 2.0

    def install(self, kernel, rng) -> None:
        ids = {n.name: n.node_id for n in kernel.net.nodes}
        for t in (0.25, 0.5, 0.75):
            kernel.submit_transfer(
                Transfer(src=ids["h0"], dst=ids["sink"], nbytes=90_000.0), t
            )
            kernel.submit_transfer(
                Transfer(src=ids["h1"], dst=ids["sink"], nbytes=90_000.0), t
            )


def _sequential_runs(net, tables, workload, seed, drains):
    """(label, trace) of the sequential kernel under each drain."""
    runs = []
    for drain in drains:
        trace, kernel = run_kernel(
            net, tables, workload, seed=seed, train_packets=4)
        drains.check(kernel, drain)
        runs.append((f"sequential-{drain}", trace))
    return runs


def _engine_runs(net, tables, workload, seed, drains):
    """(label, trace) for every engine over the same inputs."""
    parts = np.zeros(net.n_nodes, dtype=np.int64)
    parts[net.n_nodes // 2:] = 1
    runs = [
        ("reference", run_kernel_reference(
            net, tables, workload, seed=seed, train_packets=4)[0]),
        *_sequential_runs(net, tables, workload, seed, drains),
        ("parallel", run_kernel(
            net, tables, workload, seed=seed, train_packets=4,
            engine="parallel", parts=parts)[0]),
    ]
    return runs


def _assert_all_identical(runs):
    label0, trace0 = runs[0]
    assert trace0.n_events > 0
    for label, trace in runs[1:]:
        for field in TRACE_FIELDS:
            a, b = getattr(trace0, field), getattr(trace, field)
            assert np.array_equal(a, b), f"{label0} vs {label}: {field}"


def test_tie_breaks_identical_across_engines(drains):
    net = _symmetric_network()
    tables = build_routing(net)
    runs = _assert_ties_present_and_compare(net, tables, drains)
    _assert_all_identical(runs)


def _assert_ties_present_and_compare(net, tables, drains):
    runs = _engine_runs(net, tables, _TieWorkload(), seed=0, drains=drains)
    # The topology must actually manufacture virtual-time ties, or this
    # test exercises nothing.
    time = runs[0][1].time
    assert (np.diff(time) == 0).any(), "no equal-time events produced"
    return runs


def test_random_soup_identical_across_engines(drains):
    from repro.topology.synth import synth_network

    net = synth_network(n_routers=60, seed=9)
    tables = build_routing(net)
    wl = SyntheticTransfers(
        n_flows=120, duration=1.5, min_bytes=2_000, max_bytes=80_000,
    )
    wl.prepare(net, np.random.default_rng(21))
    _assert_all_identical(_engine_runs(net, tables, wl, seed=21,
                                       drains=drains))


def test_repeat_runs_byte_identical(tiny_routed, drains):
    """Same seed twice → byte-identical arrays (regression guard for any
    hidden global state in the batched queue / staging layers / heap)."""
    net, tables = tiny_routed
    wl = SyntheticTransfers(
        n_flows=40, duration=1.0, min_bytes=2_000, max_bytes=40_000,
    )
    wl.prepare(net, np.random.default_rng(5))
    for drain in drains:
        t1, k1 = run_kernel(net, tables, wl, seed=5)
        t2, _ = run_kernel(net, tables, wl, seed=5)
        drains.check(k1, drain)
        for field in TRACE_FIELDS:
            assert (getattr(t1, field).tobytes()
                    == getattr(t2, field).tobytes())
