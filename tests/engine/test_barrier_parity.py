"""Barrier parity: both drains fire the same barriers.

The window drain meets a barrier between windows; the per-event drain
fires one where a window would have ended.  Every mid-run mechanism —
the online rebalancer, forced migration schedules, mid-run link changes
— acts only at barriers, so if the barrier sequences agree, so does
everything those mechanisms decide.  Each run here is pinned to each
drain in turn (the ``drains`` fixture) and must give equal trace bytes,
equal barrier ``now`` lists, equal migration logs, ``lp_events``,
migration counters and link-change logs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine._reference import run_kernel_reference
from repro.engine.kernel import run_kernel
from repro.engine.lp import ParallelEmulationKernel
from repro.engine.packet import Transfer, reset_flow_ids
from repro.experiments.setups import diurnal_scenario
from repro.experiments.workloads import SyntheticTransfers, build_workload
from repro.rebalance import POLICIES, ForcedMigrationSchedule, RebalanceConfig
from repro.routing.delta import SetLinkCost, routing_state, update_routing
from repro.routing.spf import build_routing
from repro.topology.campus import campus_network
from repro.topology.elements import Mbps, ms
from repro.topology.network import Network
from repro.topology.synth import synth_network
from repro.topology.teragrid import teragrid_network
from tests.engine.test_drains import _ClosedLoopSoup
from tests.experiments.test_policy_audit import SEEDS, _scenario

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")
COUNTERS = ("migrations_applied", "routers_migrated", "channels_migrated",
            "migration_bytes", "migration_noops")


class _Recorded:
    """A workload that also appends every barrier's ``now`` to ``nows``
    (its hook goes in after the kernel's own, at install)."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.duration = workload.duration
        self.nows: list[float] = []

    def install(self, kernel, rng) -> None:
        kernel.barrier_hooks.append(self.nows.append)
        self.workload.install(kernel, rng)


def _outcome(trace, kernel, nows) -> dict:
    """Everything a barrier can decide, in comparable form."""
    out = {
        "trace": b"".join(getattr(trace, f).tobytes() for f in TRACE_FIELDS),
        "nows": list(nows),
        "barriers": kernel.stats.barriers,
        "link_change_log": getattr(kernel, "link_change_log", None),
    }
    assert kernel.stats.barriers == len(nows)
    if isinstance(kernel, ParallelEmulationKernel):
        out["lp_events"] = kernel.lp_events.tolist()
        out["counters"] = [getattr(kernel, name) for name in COUNTERS]
    if getattr(kernel, "rebalancer", None) is not None:
        out["log"] = json.dumps(kernel.rebalancer.log.to_dict(),
                                sort_keys=True)
    return out


def _both_drains(drains, run) -> list[dict]:
    """``run()`` -> (trace, kernel, nows) once per drain, checked."""
    outcomes = []
    for name in drains:
        trace, kernel, nows = run()
        drains.check(kernel, name)
        outcomes.append(_outcome(trace, kernel, nows))
    return outcomes


def _run_kernel(net, tables, workload, **options):
    recorded = _Recorded(workload)
    trace, kernel = run_kernel(net, tables, recorded, **options)
    return trace, kernel, recorded.nows


@pytest.mark.parametrize("family", ("diurnal", "ring"))
@pytest.mark.parametrize("seed", SEEDS)
def test_policy_audit_runs(drains, family, seed):
    """The policy audit's six scenarios under every policy."""
    scenario = _scenario(family, seed)
    tables = build_routing(scenario.net)
    for policy in sorted(POLICIES):
        win, evt = _both_drains(drains, lambda: _run_kernel(
            scenario.net, tables, scenario.workload, seed=seed,
            engine="parallel", parts=scenario.parts,
            rebalance=RebalanceConfig(policy=policy, seed=seed),
        ))
        assert win == evt, policy
        assert win["barriers"] > 0
        if policy != "static":
            assert win["counters"][0] >= 1, policy


def _midrun_diurnal(policy):
    """The mid-run golden's run (a latency shift and its revert)."""
    scenario = diurnal_scenario(seed=0)  # fresh: changes mutate the net
    link = scenario.net.links[3]
    options = dict(seed=0, link_changes=[
        (2.0, SetLinkCost(3, latency_s=link.latency_s * 5.0)),
        (4.0, SetLinkCost(3, latency_s=link.latency_s)),
    ])
    if policy is not None:
        options.update(engine="parallel", parts=scenario.parts,
                       rebalance=RebalanceConfig(policy=policy, seed=0))
    return _run_kernel(scenario.net, build_routing(scenario.net),
                       scenario.workload, **options)


def _midrun_campus(engine):
    """test_link_changes.py's run: one campus link slowed, then restored."""
    net = campus_network()
    link = net.links[5]
    options = dict(seed=3, engine=engine, link_changes=[
        (0.3, SetLinkCost(5, latency_s=link.latency_s * 4)),
        (0.6, [SetLinkCost(5, latency_s=link.latency_s)]),
    ])
    if engine == "parallel":
        options["parts"] = np.arange(net.n_nodes, dtype=np.int64) % 3
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    return _run_kernel(net, build_routing(net), workload, **options)


@pytest.mark.parametrize("run", (
    lambda: _midrun_diurnal(None),
    lambda: _midrun_diurnal("hysteresis"),
    lambda: _midrun_campus("sequential"),
    lambda: _midrun_campus("parallel"),
), ids=("diurnal-sequential", "diurnal-hysteresis", "campus-sequential",
        "campus-view"))
def test_midrun_link_change_runs(drains, run):
    win, evt = _both_drains(drains, run)
    assert win == evt
    assert win["barriers"] > 0 and len(win["link_change_log"]) == 2


def _eighth_bandwidth_campus(changed: bool):
    """test_link_changes.py's bandwidth-only run: every campus link drops
    to an eighth of its bandwidth at 0.3 s, which moves no route under the
    latency metric — only serialization spans and source pacing."""
    net = campus_network()  # fresh: changes mutate the net
    options = dict(seed=3)
    if changed:
        options["link_changes"] = [(0.3, [
            SetLinkCost(lid, bandwidth_bps=link.bandwidth_bps / 8)
            for lid, link in enumerate(net.links)
        ])]
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    return _run_kernel(net, build_routing(net), workload, **options)


class _ChangedAt:
    """A workload plus one control callback that applies a link-change
    batch through the incremental engine at virtual time ``at``."""

    def __init__(self, workload, state, at, changes) -> None:
        self.workload, self.state = workload, state
        self.at, self.changes = at, changes
        self.duration = workload.duration

    def install(self, kernel, rng) -> None:
        self.workload.install(kernel, rng)
        kernel.schedule(self.at, lambda *_: update_routing(
            self.state, self.changes))


def test_bandwidth_only_change_under_each_drain(drains):
    """Both drains read the changed bandwidths live after the barrier that
    applies them; the trace differs from the unchanged run's and equals
    the reference kernel's with the change applied just past that
    barrier's ``now`` (after every event at or before it)."""
    win, evt = _both_drains(drains, lambda: _eighth_bandwidth_campus(True))
    assert win == evt
    net = campus_network()
    assert win["link_change_log"] == [(0.3, net.n_links, 0)]
    plain = _outcome(*_eighth_bandwidth_campus(False))
    assert plain["trace"] != win["trace"]

    at = np.nextafter(min(now for now in win["nows"] if now >= 0.3), 1.0)
    state = routing_state(build_routing(net))
    changes = [SetLinkCost(lid, bandwidth_bps=link.bandwidth_bps / 8)
               for lid, link in enumerate(net.links)]
    workload = build_workload(net, "scalapack", seed=3, duration=1.0)
    ref, _ = run_kernel_reference(
        net, state.tables, _ChangedAt(workload, state, at, changes), seed=3)
    assert b"".join(getattr(ref, f).tobytes() for f in TRACE_FIELDS) == (
        win["trace"])


def _parallel_flip_net():
    """Hosts h1 - a = b - h2 with a fast (1 ms) and a slow (5 ms) link
    between the routers; the slow one is added b -> a, so the channel a
    forward takes flips direction as well as link id."""
    net = Network()
    a, b = net.add_router("a"), net.add_router("b")
    h1, h2 = net.add_host("h1"), net.add_host("h2")
    fast = net.add_link(a, b, Mbps(100), ms(1))
    slow = net.add_link(b, a, Mbps(100), ms(5))
    net.add_link(h1, a, Mbps(1000), ms(0.5))
    net.add_link(h2, b, Mbps(1000), ms(0.5))
    return net, fast.link_id, slow.link_id


class _PingPong:
    """Transfers both ways between h1 and h2, one every 25 ms."""

    duration = 1.0

    def install(self, kernel, rng) -> None:
        h1, h2 = kernel.net.node("h1").node_id, kernel.net.node("h2").node_id
        transfers = [Transfer(src=h1, dst=h2, nbytes=60_000.0) if i % 2
                     else Transfer(src=h2, dst=h1, nbytes=45_000.5)
                     for i in range(40)]
        kernel.submit_transfers(transfers, np.arange(40) * 0.025)


def test_channel_lookup_follows_a_parallel_link_flip(drains):
    """A mid-run ``SetLinkCost`` makes the other of two parallel links the
    cheap one: under each drain the forwards after the barrier that
    applies it go out on the other link's channel (its id and direction),
    and the trace and ``link_packets`` equal the reference kernel's with
    the change applied just past that barrier's ``now``."""
    change = (0.3, SetLinkCost(0, latency_s=ms(10)))
    runs = []
    for name in drains:
        net, fast, slow = _parallel_flip_net()
        trace, kernel, nows = _run_kernel(
            net, build_routing(net), _PingPong(), link_changes=[change])
        drains.check(kernel, name)
        runs.append((trace, kernel.link_packets.copy(),
                     _outcome(trace, kernel, nows)))
    (trace, packets, win), (_, evt_packets, evt) = runs
    assert win == evt and np.array_equal(packets, evt_packets)

    at = np.nextafter(min(now for now in win["nows"] if now >= 0.3), 1.0)
    net, fast, slow = _parallel_flip_net()
    state = routing_state(build_routing(net))
    ref, ref_kernel = run_kernel_reference(net, state.tables, _ChangedAt(
        _PingPong(), state, at, [change[1]]))
    assert b"".join(getattr(ref, f).tobytes() for f in TRACE_FIELDS) == (
        win["trace"])
    assert np.array_equal(ref_kernel.link_packets, packets)
    # Every router-to-router forward before the change took the fast
    # link, every one after it the slow one.
    hop = np.isin(trace.node, (0, 1)) & np.isin(trace.next_node, (0, 1))
    after = trace.time > at
    assert packets[fast] == trace.packets[hop & ~after].sum() > 0
    assert packets[slow] == trace.packets[hop & after].sum() > 0


_FACTORIES = {
    "campus": campus_network,
    "teragrid": teragrid_network,
    "synth": lambda: synth_network(n_routers=60, seed=3),
}


@pytest.mark.parametrize("topology", sorted(_FACTORIES))
def test_forced_migration_cells(drains, topology):
    """test_migration_parity.py's cells: k = 3 round-robin parts, 80
    synthetic flows over 1 s, four moves at the first, a third, half and
    the last barrier."""
    net = _FACTORIES[topology]()
    tables = build_routing(net)
    wl = SyntheticTransfers(
        n_flows=80, duration=1.0, min_bytes=2_000, max_bytes=120_000)
    wl.prepare(net, np.random.default_rng(11))
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3

    def run(moves):
        reset_flow_ids()
        kernel = ParallelEmulationKernel(net, tables, parts=parts,
                                         train_packets=8)
        ForcedMigrationSchedule(moves).attach(kernel)
        recorded = _Recorded(wl)
        recorded.install(kernel, np.random.default_rng(11))
        return kernel.run(until=1.0), kernel, recorded.nows

    drains.pin("windows")
    trace, _, nows = run([])
    hot = np.argsort(np.bincount(trace.node))[::-1][:3].tolist()
    moves = [
        (nows[0], hot[0], int((parts[hot[0]] + 1) % 3)),
        (nows[len(nows) // 3], hot[1], int((parts[hot[1]] + 1) % 3)),
        (nows[len(nows) // 2], hot[0], int((parts[hot[0]] + 2) % 3)),
        (nows[-1], hot[2], int((parts[hot[2]] + 1) % 3)),
    ]
    win, evt = _both_drains(drains, lambda: run(moves))
    assert win == evt
    assert win["barriers"] > 0 and win["counters"][1] == len(moves)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_routers=st.integers(6, 30),
    topo_seed=st.integers(0, 3),
    n_flows=st.integers(1, 60),
    hook_every=st.sampled_from((0, 1, 3)),
    duration=st.floats(0.05, 1.0),
)
def test_closed_loop_soups(drains, n_routers, topo_seed, n_flows,
                           hook_every, duration):
    """Random soups whose delivery hooks and control callbacks submit
    mid-run, into the window being drained and into earlier ones, some
    past the horizon."""
    net = synth_network(n_routers=n_routers, seed=topo_seed)
    tables = build_routing(net)
    wl = _ClosedLoopSoup(n_flows, hook_every, duration)
    win, evt = _both_drains(drains, lambda: _run_kernel(
        net, tables, wl, seed=topo_seed, train_packets=4))
    assert win == evt


class _OneTransfer:
    """One long transfer: trains a fraction of a window apart."""

    duration = 1.0

    def install(self, kernel, rng):
        hosts = [h.node_id for h in kernel.net.hosts()]
        kernel.submit_transfer(
            Transfer(src=hosts[0], dst=hosts[-1], nbytes=400_000.0), 0.01)


def test_horizon_inside_a_window(drains):
    """A horizon inside the transfer's first window, between two of its
    source trains (no successor can land there yet): the installed rows
    past it still count as pending, so neither drain meets a barrier
    after the trains it runs."""
    net = synth_network(n_routers=12, seed=2)
    tables = build_routing(net)
    wl = _OneTransfer()
    full, kernel, _ = _run_kernel(net, tables, wl, train_packets=1)
    w = kernel.window_s
    src = net.hosts()[0].node_id
    times = full.time[(full.node == src) & (full.next_node >= 0)]
    assert times[1] // w == times[0] // w
    until = (times[0] + times[1]) / 2
    win, evt = _both_drains(drains, lambda: _run_kernel(
        net, tables, wl, until=until, train_packets=1))
    assert win == evt
    assert win["barriers"] == 0


def test_lp_events_charge_each_row_to_its_owner_at_execution(drains):
    """Rows executed before a migration count against the routers' old
    LPs and rows after it against the new ones, under either drain."""
    net = campus_network()
    tables = build_routing(net)
    wl = SyntheticTransfers(
        n_flows=80, duration=1.0, min_bytes=2_000, max_bytes=120_000)
    wl.prepare(net, np.random.default_rng(11))
    parts = np.arange(net.n_nodes, dtype=np.int64) % 3
    for _ in drains:
        reset_flow_ids()
        kernel = ParallelEmulationKernel(net, tables, parts=parts,
                                         train_packets=8)
        marks, owners = [0], [parts.copy()]
        migrate = kernel.migrate_routers

        def recording_migrate(routers, dests):
            marks.append(len(kernel.recorder))  # rows executed so far
            payload = migrate(routers, dests)
            owners.append(kernel._parts.copy())
            return payload

        kernel.migrate_routers = recording_migrate
        ForcedMigrationSchedule(  # every node moves, twice
            [(0.1, r, (parts[r] + 1) % 3) for r in range(net.n_nodes)]
            + [(0.2, r, (parts[r] + 2) % 3) for r in range(net.n_nodes)]
        ).attach(kernel)
        wl.install(kernel, np.random.default_rng(11))
        kernel.run(until=1.0)
        assert len(marks) == 3
        tails = [kernel.recorder.train_rows_since(m).node for m in marks]
        expected = sum(
            np.bincount(owner[tail[:len(tail) - len(after)]], minlength=3)
            for owner, tail, after in zip(owners, tails, tails[1:] + [[]]))
        assert kernel.lp_events.tolist() == expected.tolist()
