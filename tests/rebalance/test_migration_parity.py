"""Migration-correctness battery: the trace never notices a migration.

The parallel engine is the sequential kernel seen through a partition,
and a migration only rewrites that partition, which the run never reads.
So the :class:`~repro.engine.trace.EventTrace` (and every per-link
aggregate) is *byte-identical* across the reference heap kernel, the
batched sequential kernel, and the parallel engine under any forced
migration schedule — by construction now; these tests pin that the
construction stays that way, and that the migration accounting counts
what it should.  The grid covers three topologies over unbounded FIFO
links, and the schedules exercise every awkward moment: a router
migrated with a non-empty channel queue, mid-multi-train-transfer, at the
first and last window, and a no-op migration (destination = current
owner).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine._reference import run_kernel_reference
from repro.engine.kernel import run_kernel
from repro.engine.lp import ParallelEmulationKernel
from repro.engine.packet import reset_flow_ids
from repro.experiments.workloads import SyntheticTransfers
from repro.rebalance import ForcedMigrationSchedule
from repro.routing.spf import build_routing
from repro.topology.campus import campus_network
from repro.topology.synth import synth_network
from repro.topology.teragrid import teragrid_network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")

_FACTORIES = {
    "campus": campus_network,
    "teragrid": teragrid_network,
    "synth": lambda: synth_network(n_routers=60, seed=3),
}

# Links are unbounded FIFOs: the one queue cell, named "none".
_QUEUES = ("none",)

K = 3
SEED = 11
DURATION = 1.0


@pytest.fixture(scope="module", params=sorted(_FACTORIES))
def routed(request):
    net = _FACTORIES[request.param]()
    return net, build_routing(net)


def _workload(net):
    wl = SyntheticTransfers(
        n_flows=80, duration=DURATION, min_bytes=2_000, max_bytes=120_000,
    )
    wl.prepare(net, np.random.default_rng(SEED))
    return wl


def _parts(net):
    return np.arange(net.n_nodes, dtype=np.int64) % K


def _barrier_times(net, tables, wl):
    """Virtual times at which this cell's run actually reaches a barrier
    (migration points are *between* windows — the final window has none,
    so schedules must target real barriers, not arbitrary times)."""
    reset_flow_ids()
    kernel = ParallelEmulationKernel(
        net, tables, parts=_parts(net), train_packets=8,
    )
    times: list[float] = []
    kernel.barrier_hooks.append(times.append)
    wl.install(kernel, np.random.default_rng(SEED))
    kernel.run(until=DURATION)
    return times


def _busiest_nodes(trace, count=3):
    """Node ids by descending event count — migration targets that are
    guaranteed to carry channel state when moved mid-run."""
    loads = np.bincount(trace.node[trace.node >= 0])
    return np.argsort(loads)[::-1][:count].tolist()


def _run_with_schedule(net, tables, wl, moves):
    reset_flow_ids()
    kernel = ParallelEmulationKernel(
        net, tables, parts=_parts(net), train_packets=8,
    )
    schedule = ForcedMigrationSchedule(moves).attach(kernel)
    wl.install(kernel, np.random.default_rng(SEED))
    trace = kernel.run(until=DURATION)
    return trace, kernel, schedule


def _assert_traces_equal(a, b, context=""):
    for field in TRACE_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, f"{context}: {field} dtype"
        assert np.array_equal(x, y), f"{context}: {field}"


@pytest.mark.parametrize("queue_name", _QUEUES)
def test_forced_migrations_keep_trace_byte_identical(routed, queue_name):
    """Reference / batched / parallel agree under a busy-router schedule
    hitting the first window, mid-run (mid-train, non-empty queues), and
    the last window."""
    net, tables = routed
    wl = _workload(net)

    trace_ref, kernel_ref = run_kernel_reference(
        net, tables, wl, seed=SEED, train_packets=8,
    )
    trace_seq, kernel_seq = run_kernel(
        net, tables, wl, seed=SEED, train_packets=8,
    )
    _assert_traces_equal(trace_ref, trace_seq, "reference vs sequential")

    hot = _busiest_nodes(trace_ref)
    parts = _parts(net)
    barriers = _barrier_times(net, tables, wl)
    assert len(barriers) >= 4, "run too short to exercise migration points"
    moves = [
        # First barrier of the run.
        (barriers[0], hot[0], int((parts[hot[0]] + 1) % K)),
        # Mid-run, busiest routers: non-empty FIFO queues, mid-train.
        (barriers[len(barriers) // 3], hot[1], int((parts[hot[1]] + 1) % K)),
        (barriers[len(barriers) // 2], hot[0], int((parts[hot[0]] + 2) % K)),
        # Very last barrier before the run drains.
        (barriers[-1], hot[2], int((parts[hot[2]] + 1) % K)),
    ]
    trace_lp, kernel_lp, schedule = _run_with_schedule(
        net, tables, wl, moves,
    )
    _assert_traces_equal(trace_ref, trace_lp, "reference vs migrated-LP")
    assert schedule.pending == 0, "every scheduled migration must fire"
    assert kernel_lp.routers_migrated == len(moves)
    assert kernel_lp.migration_bytes > 0
    # Link accounting is the sequential kernel's, bit for bit.
    for field in ("link_packets", "link_bytes", "link_busy_s",
                  "link_max_backlog_s"):
        np.testing.assert_array_equal(
            getattr(kernel_seq, field), getattr(kernel_lp, field)
        )
    assert kernel_seq.stats.semantic() == kernel_lp.stats.semantic()


@pytest.mark.parametrize("queue_name", _QUEUES)
def test_noop_migration_changes_nothing(routed, queue_name):
    """A migration to the current owner is counted but moves no state."""
    net, tables = routed
    wl = _workload(net)
    trace_ref, _ = run_kernel_reference(
        net, tables, wl, seed=SEED, train_packets=8,
    )
    hot = _busiest_nodes(trace_ref)
    parts = _parts(net)
    barriers = _barrier_times(net, tables, wl)
    # dest == owner
    moves = [(barriers[len(barriers) // 2], hot[0], int(parts[hot[0]]))]
    trace_lp, kernel, schedule = _run_with_schedule(
        net, tables, wl, moves,
    )
    _assert_traces_equal(trace_ref, trace_lp, "no-op migration")
    assert schedule.pending == 0
    assert kernel.migration_noops == 1
    assert kernel.routers_migrated == 0
    assert kernel.migration_bytes == 0
    assert kernel.channels_migrated == 0


def test_forked_workers_match_reference():
    """A two-move schedule on campus stays byte-identical to the
    reference.  (The name dates from forked LP workers; the parallel
    engine no longer has any.)"""
    net = campus_network()
    tables = build_routing(net)
    wl = _workload(net)
    trace_ref, _ = run_kernel_reference(
        net, tables, wl, seed=SEED, train_packets=8,
    )
    hot = _busiest_nodes(trace_ref)
    parts = _parts(net)
    barriers = _barrier_times(net, tables, wl)
    moves = [
        (barriers[len(barriers) // 3], hot[0], int((parts[hot[0]] + 1) % K)),
        (barriers[2 * len(barriers) // 3], hot[1],
         int((parts[hot[1]] + 2) % K)),
    ]
    trace_lp, kernel, schedule = _run_with_schedule(
        net, tables, wl, moves,
    )
    _assert_traces_equal(trace_ref, trace_lp, "two moves")
    assert schedule.pending == 0
    assert kernel.routers_migrated == 2


def test_migration_batches_and_repeated_entries():
    """Entries sharing a barrier apply as one set; a later entry for the
    same router wins (the schedule's documented apply order)."""
    net = campus_network()
    tables = build_routing(net)
    wl = _workload(net)
    trace_ref, _ = run_kernel_reference(
        net, tables, wl, seed=SEED, train_packets=8,
    )
    hot = _busiest_nodes(trace_ref)
    barriers = _barrier_times(net, tables, wl)
    at = barriers[len(barriers) // 2]
    moves = [
        (at, hot[0], 1),
        (at, hot[1], 2),
        (at, hot[0], 2),  # same router again: final dest wins
    ]
    trace_lp, kernel, schedule = _run_with_schedule(
        net, tables, wl, moves,
    )
    _assert_traces_equal(trace_ref, trace_lp, "batched entries")
    assert kernel._parts[hot[0]] == 2
    assert kernel._parts[hot[1]] == 2
    # Only what reached migrate_routers is recorded: the overridden
    # (hot[0], 1) entry never ran.
    assert [(r, d) for _, r, d in schedule.executed] == [
        (hot[0], 2), (hot[1], 2),
    ]


def test_migrate_routers_validates_input(campus_routed):
    net, tables = campus_routed
    kernel = ParallelEmulationKernel(net, tables, parts=_parts(net))
    with pytest.raises(ValueError, match="pair up"):
        kernel.migrate_routers([1, 2], [0])
    with pytest.raises(ValueError, match="duplicate"):
        kernel.migrate_routers([1, 1], [0, 2])
    with pytest.raises(ValueError, match="out of range"):
        kernel.migrate_routers([net.n_nodes], [0])
    with pytest.raises(ValueError, match="destination"):
        kernel.migrate_routers([1], [K + 5])
    assert kernel.migrate_routers([], []) == 0
