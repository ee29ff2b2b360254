"""The sequential kernel's two drains: selection and equivalence.

:meth:`~repro.engine.kernel.EmulationKernel.run` drains a run either
window by window (numpy) or event by event (one ``(time, seq)`` heap).
Which one runs is a speed decision only: over random closed-loop soups the
two give byte-identical traces, equal per-link accounting and equal
semantic stats.  Order-coupled kernels (a NetFlow collector) always
drain per event, and still take mid-run link changes: both drains fire
the same barriers (``test_barrier_parity.py``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.kernel import EmulationKernel, run_kernel
from repro.engine.lp import ParallelEmulationKernel
from repro.engine.packet import Transfer, reset_flow_ids
from repro.experiments.workloads import build_workload
from repro.obs.telemetry import Telemetry
from repro.profiling.netflow import NetFlowCollector
from repro.routing.delta import SetLinkCost
from repro.routing.spf import build_routing
from repro.topology.campus import campus_network
from repro.topology.synth import synth_network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")
LINK_ARRAYS = ("link_packets", "link_bytes", "link_busy_s",
               "link_max_backlog_s")


class _ClosedLoopSoup:
    """Random transfers; every ``hook_every``-th one is hooked and, on
    delivery, answers with a reply and schedules a follow-up transfer —
    so both drains see mid-run submissions from hooks and from control
    callbacks, not only install-time traffic."""

    def __init__(self, n_flows, hook_every, duration):
        self.n_flows = n_flows
        self.hook_every = hook_every
        self.duration = duration

    def install(self, kernel, rng):
        hosts = [h.node_id for h in kernel.net.hosts()]

        def pair():
            src, dst = rng.choice(hosts, size=2, replace=False)
            return int(src), int(dst)

        def follow_up(k, t):
            src, dst = pair()
            k.submit_transfer(Transfer(src=src, dst=dst, nbytes=3_000.0), t)

        def answer(k, t, tr):
            k.submit_transfer(
                Transfer(src=tr.dst, dst=tr.src, nbytes=1_500.0), t)
            k.schedule(t + float(rng.uniform(0.0, 0.01)), follow_up)

        transfers = []
        for i in range(self.n_flows):
            src, dst = pair()
            hooked = self.hook_every and i % self.hook_every == 0
            transfers.append(Transfer(
                src=src, dst=dst, nbytes=float(rng.integers(500, 60_000)),
                on_delivery=answer if hooked else None,
            ))
        times = np.sort(rng.uniform(0.0, self.duration / 2, self.n_flows))
        kernel.submit_transfers(transfers, times)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_routers=st.integers(6, 30),
    topo_seed=st.integers(0, 3),
    n_flows=st.integers(1, 60),
    hook_every=st.sampled_from((0, 1, 3)),
    train_packets=st.sampled_from((1, 4, 32)),
    duration=st.floats(0.05, 1.0),
)
def test_drains_are_trace_identical(drains, n_routers, topo_seed, n_flows,
                                    hook_every, train_packets, duration):
    net = synth_network(n_routers=n_routers, seed=topo_seed)
    tables = build_routing(net)
    wl = _ClosedLoopSoup(n_flows, hook_every, duration)
    runs = []
    for drain in drains:
        trace, kernel = run_kernel(
            net, tables, wl, seed=topo_seed, train_packets=train_packets,
        )
        drains.check(kernel, drain)
        runs.append((trace, kernel))
    (t_win, k_win), (t_evt, k_evt) = runs
    for field in TRACE_FIELDS:
        assert getattr(t_win, field).tobytes() == \
            getattr(t_evt, field).tobytes(), field
    for name in LINK_ARRAYS:
        assert np.array_equal(getattr(k_win, name), getattr(k_evt, name)), name
    assert k_win.stats.semantic() == k_evt.stats.semantic()
    assert k_win.transfer_log == k_evt.transfer_log


def _routed():
    net = synth_network(n_routers=20, seed=1)
    return net, build_routing(net)


def _install_one(kernel, at=0.01):
    hosts = [h.node_id for h in kernel.net.hosts()]
    kernel.submit_transfer(
        Transfer(src=hosts[0], dst=hosts[1], nbytes=20_000.0), at)


def _campus_change():
    """Campus under ScaLapack, link 5 slowed fourfold at 0.3 s (fresh per
    run: applying the change mutates the network)."""
    net = campus_network()
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    change = (0.3, SetLinkCost(5, latency_s=net.links[5].latency_s * 4))
    return net, build_routing(net), workload, [change]


def test_collector_run_takes_link_changes(drains):
    """A NetFlow collector run (always per event) takes a mid-run
    ``SetLinkCost``: its trace and change log equal the collector-free
    run's under either drain, and every record first seen after the
    change left on the repaired route."""
    net, tables, wl, changes = _campus_change()
    nows: list[float] = []
    install = wl.install

    def recording_install(kernel, rng):
        kernel.barrier_hooks.append(nows.append)
        install(kernel, rng)

    wl.install = recording_install
    collector = NetFlowCollector("flow")
    trace, kernel = run_kernel(net, tables, wl, seed=3,
                               link_changes=changes, collector=collector)
    assert kernel.link_change_log == [(0.3, 1, kernel.link_change_log[0][2])]
    for drain in drains:
        plain_net, plain_tables, plain_wl, plain_changes = _campus_change()
        plain, k = run_kernel(plain_net, plain_tables, plain_wl, seed=3,
                              link_changes=plain_changes)
        drains.check(k, drain)
        for field in TRACE_FIELDS:
            assert getattr(plain, field).tobytes() == \
                getattr(trace, field).tobytes(), (drain, field)
        assert k.link_change_log == kernel.link_change_log

    applied = min(now for now in nows if now >= 0.3)
    new, old = kernel.tables, build_routing(campus_network())

    def out_link(tables, record):
        nxt = tables.hop(record.router, record.dst)
        return tables.link_between(record.router, nxt).link_id

    after = [r for r in collector.records() if r.first > applied]
    assert after and all(out_link(new, r) == r.out_link for r in after)
    assert any(out_link(old, r) != r.out_link for r in after)
    before = [r for r in collector.records() if r.last <= applied]
    assert all(out_link(old, r) == r.out_link for r in before)


def test_selection_rule():
    """The drain is chosen by density alone: sparse runs drain per event,
    with barrier hooks attached and as the partition view too (dense runs
    take windows: ``test_perf_guard.py``); order-coupled runs drain per
    event whatever the density."""
    net, tables = _routed()

    def drain_of(kernel, until=1.0):
        reset_flow_ids()
        tel = Telemetry()
        kernel.telemetry = tel
        _install_one(kernel)
        kernel.run(until=until)
        (row,) = tel.series["kernel/run"]
        assert (row["drain"] == "windows") == (kernel.stats.windows > 0)
        assert row["barriers"] == kernel.stats.barriers
        return row["drain"], row["density"]

    # One train due over 1 s: density = window_s / 1 s.
    kernel = EmulationKernel(net, tables)
    assert drain_of(kernel) == ("per_event", kernel.window_s)
    collected = EmulationKernel(net, tables,
                                collector=NetFlowCollector("flow"))
    assert drain_of(collected)[0] == "per_event"

    hooked = EmulationKernel(net, tables)
    hooked.barrier_hooks.append(lambda now: None)
    assert drain_of(hooked)[0] == "per_event"
    assert hooked.stats.barriers > 0
    parts = np.arange(net.n_nodes, dtype=np.int64) % 2
    lp = ParallelEmulationKernel(net, tables, parts=parts)
    assert drain_of(lp)[0] == "per_event"
