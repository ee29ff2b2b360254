"""Perf guards: operation counters that fail if batching regresses.

These do not time anything (wall clocks are too noisy for CI); they assert
on :class:`~repro.engine.perf.KernelStats` operation counters, which are
deterministic.  A dense soup must take the window drain and stay there on
the numpy fast path — if someone quietly reroutes large segments through
per-event python dispatch, ``vector_events`` collapses and these fail.  A
sparse soup must take the per-event drain without touching the calendar's
window machinery at all.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.engine.eventq import BatchEventQueue, EventBatch
from repro.engine.kernel import EmulationKernel, run_kernel
from repro.engine.packet import reset_flow_ids
from repro.engine.trace import INJECTED
from repro.experiments.workloads import SyntheticTransfers
from repro.obs.telemetry import Telemetry
from repro.routing.spf import build_routing
from repro.topology.synth import synth_network


def _soup(n_routers, n_flows, duration):
    net = synth_network(n_routers=n_routers, seed=4)
    wl = SyntheticTransfers(
        n_flows=n_flows, duration=duration, min_bytes=5_000,
        max_bytes=120_000,
    )
    wl.prepare(net, np.random.default_rng(17))
    return net, build_routing(net), wl


@pytest.fixture(scope="module")
def soup_run():
    """A dense open-loop soup (≈ 15 train rows per conservative window)."""
    net, tables, wl = _soup(n_routers=200, n_flows=4000, duration=0.5)
    tel = Telemetry()
    trace, kernel = run_kernel(net, tables, wl, seed=17, train_packets=32,
                               telemetry=tel)
    return trace, kernel, tel


def test_vector_path_dominates(soup_run):
    """On a dense open-loop drop-free soup the window drain runs, and the
    overwhelming majority of train events ride the numpy fast path."""
    _, kernel, tel = soup_run
    (row,) = tel.series["kernel/run"]
    assert row["drain"] == "windows" and row["density"] > 10
    st = kernel.stats
    total = st.vector_events + st.python_loop_events
    assert total > 0
    # ~94% on this soup today; the floor leaves headroom for workload
    # drift but fails hard if the fast path is rerouted (→ near 0).
    assert st.vector_events / total > 0.85


def test_events_accounted_exactly(soup_run):
    """vector + python-loop events = every executed train event (each
    non-injection trace row is exactly one train event)."""
    trace, kernel, _ = soup_run
    st = kernel.stats
    n_train_events = int((trace.next_node != INJECTED).sum())
    assert st.vector_events + st.python_loop_events == n_train_events


def test_windows_bounded_by_horizon(soup_run):
    """The window drain advances whole conservative windows: the window
    count stays within the horizon / lookahead budget, i.e. no
    degeneration into per-event windows."""
    trace, kernel, _ = soup_run
    budget = int(np.ceil(trace.duration / kernel.window_s)) + 1
    assert 0 < kernel.stats.windows <= min(trace.n_events, budget)
    assert kernel.stats.segments >= kernel.stats.windows - 1


def test_open_loop_soup_needs_no_merges(soup_run):
    """Every transfer is known at install time, so nothing should inject
    into a window mid-flight: merges stay zero on this shape."""
    _, kernel, _ = soup_run
    assert kernel.stats.window_merges == 0
    assert kernel.stats.hook_cuts == 0


def test_sparse_soup_drains_per_event():
    """A sparse soup (≈ 0.4 rows per window) runs per event: the calendar
    is handed over whole — nothing enters the event pool and no window is
    read, popped or pushed inside ``run()`` — and every train event is one
    python-loop event."""
    net, tables, wl = _soup(n_routers=120, n_flows=400, duration=2.0)
    reset_flow_ids()
    tel = Telemetry()
    kernel = EmulationKernel(net, tables, train_packets=32, telemetry=tel)
    wl.install(kernel, np.random.default_rng(17))
    calls: list[str] = []

    def spy(name):
        method = getattr(kernel.calendar, name)

        def counted(*args):
            calls.append(name)
            return method(*args)
        setattr(kernel.calendar, name, counted)

    for name in ("_absorb", "min_bucket", "has_bucket", "pop_bucket",
                 "push_batch"):
        spy(name)
    trace = kernel.run(until=wl.duration)
    (row,) = tel.series["kernel/run"]
    assert row["drain"] == "per_event" and row["density"] < 1
    assert calls == []
    st = kernel.stats
    assert st.windows == st.segments == st.vector_events == 0
    assert st.python_loop_events == int((trace.next_node != INJECTED).sum())
    assert st.python_loop_events > 0


def test_install_injects_one_batch_per_generator(monkeypatch):
    """Injection is O(generators) calendar pushes, not O(transfers), and
    the batched kernel builds no PacketTrain at all: over a whole
    ScaLapack + HTTP run zero are constructed, and the kernel holds one
    ``Transfer`` per *hooked* (``http*``) transfer."""
    from repro.engine import kernel as kernel_mod
    from repro.engine import packet as packet_mod
    from repro.experiments.workloads import build_workload
    from repro.topology.campus import campus_network

    net = campus_network()
    tables = build_routing(net)
    wl = build_workload(net, "scalapack", "moderate", seed=1)
    wl.prepare(net, np.random.default_rng(1))
    reset_flow_ids()
    kernel = kernel_mod.EmulationKernel(net, tables)

    pushes, trains_built = [], []
    push_batch = kernel.calendar.push_batch
    train_init = packet_mod.PacketTrain.__init__

    def counting_push(batch):
        pushes.append(len(batch))
        push_batch(batch)

    def counting_init(self, *args, **kwargs):
        trains_built.append(self)
        train_init(self, *args, **kwargs)

    monkeypatch.setattr(kernel.calendar, "push_batch", counting_push)
    monkeypatch.setattr(packet_mod.PacketTrain, "__init__", counting_init)

    wl.install(kernel, np.random.default_rng(1))
    assert kernel.stats.transfers_submitted > 2_000  # the whole ScaLapack run
    assert len(pushes) <= len(wl.background) + len(wl.apps)
    assert sum(pushes) > 10_000  # ...whose trains all sit in the calendar
    assert trains_built == []

    kernel.run(until=20.0)
    hooked = [e for e in kernel.transfer_log if e[5].startswith("http")]
    assert len(hooked) > 0
    assert trains_built == []
    assert len(kernel._hooked) == len(hooked)
    assert all(tr.on_delivery is not None for tr in kernel._hooked)


def _numpy_calls(fn) -> int:
    """Numpy functions and ndarray / ufunc methods ``fn()`` calls (what a
    profile hook sees: numpy's python wrappers and C methods; bare
    operators and direct ufunc calls are invisible to it)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += "numpy" in frame.f_code.co_filename
        elif event == "c_call":
            owner = getattr(arg, "__self__", None)
            module = getattr(arg, "__module__", None) or ""
            calls += (isinstance(owner, (np.ndarray, np.ufunc))
                      or module.startswith("numpy"))

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_submit_cost_does_not_grow_with_train_count():
    """Source pacing takes one cumsum per distinct access rate, not one
    numpy round per train: a bulk call whose longest transfer has 5,000
    trains makes exactly as many numpy calls as one whose transfers are
    a train each (the per-round pacing loop made ~5 per train)."""
    from repro.engine.packet import Transfer

    net = synth_network(n_routers=40, seed=2)
    tables = build_routing(net)
    hosts = [h.node_id for h in net.hosts()]

    def submit(longest_trains):
        reset_flow_ids()
        kernel = EmulationKernel(net, tables, train_packets=1)
        sizes = [1_000.0, 1_400.5, 1_500.0 * longest_trains]
        transfers = [
            Transfer(src=hosts[i], dst=hosts[i + 3], nbytes=size)
            for i, size in enumerate(sizes)
        ]
        calls = _numpy_calls(
            lambda: kernel.submit_transfers(transfers, [0.0, 0.1, 0.2]))
        assert kernel._seq == 2 + longest_trains
        return calls

    assert submit(1) == submit(5_000) > 0


def test_pop_cost_does_not_grow_with_feeding_pushes():
    """A window pop makes a fixed number of numpy calls: popping a bucket
    fed by 64 pushed batches (pool append included) costs exactly what one
    fed by a single batch costs (a chunk per pushed batch made ~9 more
    calls per batch)."""
    # 64 blocks of 12 rows, each block spanning buckets 0, 1 and 2.
    times = np.tile(np.linspace(0.0, 0.29, 12), 64)
    n = len(times)
    batch = EventBatch(
        times, np.arange(n), np.zeros(n, np.int64), np.ones(n, np.int64),
        np.ones(n, np.int64), np.full(n, 100.0), np.arange(n) % 7,
        np.zeros(n, bool), np.full(n, -1),
    )

    def pop_cost(n_batches):
        q = BatchEventQueue(0.1)
        for rows in np.array_split(np.arange(n), n_batches):
            q.push_batch(batch.take(rows))
        out = []
        calls = _numpy_calls(lambda: out.append(q.pop_bucket(0)))
        (popped,) = out
        assert len(popped) == n // 3 and len(q) == n - n // 3
        assert np.all(np.diff(popped.time) >= 0)
        return calls

    assert pop_cost(1) == pop_cost(64) > 0


def test_rebalanced_sparse_run_drains_per_event():
    """A rebalanced view of a sparse run pays no window machinery: the
    diurnal scenario under ``hysteresis`` drains per event (no bucket is
    ever popped) while its rebalancer still meets barriers and migrates,
    and LP loads are folded from the recorder once per closed bin or
    migration (plus the final fold and a read), not once per segment."""
    from repro.engine.lp import ParallelEmulationKernel
    from repro.experiments.setups import diurnal_scenario
    from repro.rebalance import RebalanceConfig, attach_rebalancer

    scenario = diurnal_scenario(n_flows=300, duration=3.0, seed=1)
    tables = build_routing(scenario.net)
    reset_flow_ids()
    kernel = ParallelEmulationKernel(scenario.net, tables,
                                     parts=scenario.parts)
    rebalancer = attach_rebalancer(
        kernel, RebalanceConfig(policy="hysteresis", seed=1))
    calls = {"pop_bucket": 0, "train_rows_since": 0}

    def spy(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)
        setattr(owner, name, counted)

    spy(kernel.calendar, "pop_bucket")
    spy(kernel.recorder, "train_rows_since")
    scenario.workload.install(kernel, np.random.default_rng(1))
    trace = kernel.run(until=scenario.workload.duration)
    assert calls["pop_bucket"] == 0 and kernel.stats.windows == 0
    assert kernel.stats.barriers > 100
    assert kernel.migrations_applied >= 1
    bins = len(rebalancer.log.bin_times)
    assert kernel.lp_events.sum() == int((trace.next_node != INJECTED).sum())
    assert calls["train_rows_since"] <= bins + kernel.migrations_applied + 2


def test_uncut_windows_dispatch_whole(soup_run, monkeypatch):
    """With no control entry and no delivery hook, a window inside the
    horizon is one segment dispatched whole, and the segment loop's cut
    helpers never run: on the dense soup every dispatch covers its whole
    popped window, and only the last window popped (wholly past the
    horizon) makes none."""
    from repro.engine import kernel as kernel_mod

    called: list[str] = []
    for name in ("cut_before", "first_true"):
        helper = getattr(kernel_mod, name)

        def spied(*args, _name=name, _helper=helper):
            called.append(_name)
            return _helper(*args)
        monkeypatch.setattr(kernel_mod, name, spied)
    net, tables, wl = _soup(n_routers=200, n_flows=4000, duration=0.5)
    reset_flow_ids()
    kernel = EmulationKernel(net, tables, train_packets=32)
    dispatched: list[tuple[int, int, int]] = []
    dispatch = kernel._dispatch

    def spy(batch, start, end):
        dispatched.append((start, end, len(batch)))
        dispatch(batch, start, end)
    kernel._dispatch = spy
    wl.install(kernel, np.random.default_rng(17))
    trace = kernel.run(until=wl.duration)
    assert np.array_equal(trace.time, soup_run[0].time)
    st = kernel.stats
    assert called == []
    assert all(start == 0 and end == n for start, end, n in dispatched)
    assert len(dispatched) == st.segments == st.windows - 1
    assert trace.time[-1] <= wl.duration


def test_window_cost_stays_at_its_numpy_call_count():
    """The window drain's fixed cost, counted: a fixed dense soup (251
    windows of ≈ 77 train rows) makes at most 64 numpy calls a window.
    The segment loop in every window, a link lookup plus a direction
    compare per forward and numpy calls per FIFO group in the scalar
    tail made 117."""
    net, tables, wl = _soup(n_routers=120, n_flows=1500, duration=0.25)
    reset_flow_ids()
    kernel = EmulationKernel(net, tables, train_packets=32)
    wl.install(kernel, np.random.default_rng(17))
    calls = _numpy_calls(lambda: kernel.run(until=wl.duration))
    assert kernel.stats.windows == 251
    assert calls <= 64 * kernel.stats.windows
