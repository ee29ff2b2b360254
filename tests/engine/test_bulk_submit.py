"""Bulk submission parity: ``submit_transfers`` ≡ a ``submit_transfer`` loop.

The vectorized injection body (the batched kernel's only one — its
``submit_transfer`` is the one-row call) must be observationally identical
to the reference kernel submitting the same transfers one by one — same
trace bytes, same transfer log, same sequence numbers (interleaving
order), and the same validation errors with the same partial effects —
under both kernel drains (the ``drains`` fixture pins the selection).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine._reference import ReferenceKernel
from repro.engine.eventq import EventBatch
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer, packetize, reset_flow_ids
from repro.engine.trace import INJECTED
from repro.profiling.netflow import NetFlowCollector
from repro.routing.spf import build_routing
from repro.topology.network import Network
from repro.topology.synth import synth_network

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")


@pytest.fixture(scope="module")
def routed():
    net = synth_network(n_routers=40, seed=2)
    return net, build_routing(net)


def _transfers(net, n, rng):
    hosts = [h.node_id for h in net.hosts()]
    out = []
    for _ in range(n):
        src, dst = rng.choice(hosts, size=2, replace=False)
        out.append(Transfer(
            src=int(src), dst=int(dst),
            nbytes=float(rng.integers(1_000, 200_000)),
        ))
    return out


def _run(net, tables, submit, **kernel_kw):
    reset_flow_ids()
    kernel = EmulationKernel(net, tables, train_packets=8, **kernel_kw)
    rng = np.random.default_rng(3)
    transfers = _transfers(net, 150, rng)
    times = np.sort(rng.uniform(0.0, 1.0, size=len(transfers)))
    submit(kernel, transfers, times)
    trace = kernel.run(until=2.0)
    return trace, kernel


def test_bulk_matches_loop(routed, drains):
    net, tables = routed

    def loop(kernel, transfers, times):
        for tr, t in zip(transfers, times):
            kernel.submit_transfer(tr, float(t))

    for drain in drains:
        trace_bulk, k_bulk = _run(
            net, tables, lambda k, tr, t: k.submit_transfers(tr, t)
        )
        drains.check(k_bulk, drain)
        trace_loop, k_loop = _run(net, tables, loop)
        for field in TRACE_FIELDS:
            a, b = getattr(trace_bulk, field), getattr(trace_loop, field)
            assert a.tobytes() == b.tobytes(), (drain, field)
        assert k_bulk.transfer_log == k_loop.transfer_log
        assert k_bulk.stats.semantic() == k_loop.stats.semantic()


def test_bulk_broadcasts_scalar_time(routed):
    net, tables = routed
    reset_flow_ids()
    kernel = EmulationKernel(net, tables)
    rng = np.random.default_rng(4)
    transfers = _transfers(net, 10, rng)
    kernel.submit_transfers(transfers, 0.5)
    assert kernel.stats.transfers_submitted == 10
    assert all(entry[0] == 0.5 for entry in kernel.transfer_log)


def test_bulk_raises_same_validation_errors(routed):
    """Invalid rows raise the actionable single-submission messages.
    (Transfer construction already rejects degenerate values, so the
    kernel-level checks guard against post-construction mutation.)"""
    net, tables = routed
    hosts = [h.node_id for h in net.hosts()]

    mutated = Transfer(src=hosts[0], dst=hosts[1], nbytes=1000.0)
    mutated.dst = mutated.src
    kernel = EmulationKernel(net, tables)
    with pytest.raises(ValueError, match="distinct hosts"):
        kernel.submit_transfers([mutated], [0.1])

    drained = Transfer(src=hosts[0], dst=hosts[1], nbytes=1000.0)
    drained.nbytes = 0.0
    kernel2 = EmulationKernel(net, tables)
    with pytest.raises(ValueError, match="at least one byte"):
        kernel2.submit_transfers([drained], [0.1])

    kernel3 = EmulationKernel(net, tables)
    with pytest.raises(ValueError, match="past"):
        kernel3.submit_transfers(
            [Transfer(src=hosts[0], dst=hosts[1], nbytes=10.0)], [-1.0]
        )


_COLUMNS = ("time", "seq", "node", "dst", "count", "nbytes", "flow", "last")


def _staged_columns(kernel):
    """Every staged calendar row of a batched kernel, in seq order
    (empties the calendar)."""
    cal = kernel.calendar
    buckets = []
    while cal.min_bucket() is not None:
        buckets.append(cal.pop_bucket(cal.min_bucket()))
    staged = EventBatch.concatenate(buckets)
    order = np.argsort(staged.seq)
    return {name: getattr(staged, name)[order].tolist() for name in _COLUMNS}


def _reference_columns(kernel):
    """The same columns out of the reference kernel's event heap."""
    rows = [
        (time, seq, node, train.dst, train.count, float(train.nbytes),
         train.flow_id, train.last)
        for time, seq, _, (node, train) in sorted(
            kernel.queue._heap, key=lambda e: e[1]
        )
    ]
    return {name: list(col) for name, col in zip(_COLUMNS, zip(*rows))}


_UNCHECKED_BY_ORACLE = ("bytes", "endpoints", "nan", "inf")


def _break(kind, transfer, tables):
    """Mutate ``transfer`` into one of the rejected kinds; returns its
    submission time."""
    if kind == "bytes":
        transfer.nbytes = 0.0
    elif kind == "endpoints":
        transfer.dst = transfer.src
    elif kind in ("route", "nan", "inf"):
        # A non-finite time is reported before the missing route.
        tables.next_hop[transfer.src, transfer.dst] = -1
    return {"past": -1.0, "nan": float("nan"), "inf": float("inf")}.get(
        kind, 0.3)


@pytest.mark.parametrize(
    "kind", ("bytes", "endpoints", "past", "nan", "inf", "route"))
def test_error_prefix_matches_reference_loop(kind, drains):
    """``[ok, ok, bad, ok]``: rows before the offender are injected, the
    offender raises today's message, the row after it never enters —
    ``transfer_log``, the sequence counter, the INJECTED rows and the
    staged calendar equal what ``ReferenceKernel``'s loop leaves behind.
    The oracle does not re-validate bytes / endpoints (``Transfer``
    construction does) nor reject non-finite times, so for those kinds its
    loop is handed the prefix and the message is pinned literally."""
    net = synth_network(n_routers=40, seed=2)
    tables = build_routing(net)
    hosts = [h.node_id for h in net.hosts()]
    message = {
        "bytes": "at least one byte",
        "endpoints": "pick two distinct hosts",
        "past": "cannot submit a transfer in the past",
        "nan": f"{hosts[4]} -> {hosts[5]} submitted at time=nan; "
               f"submission times must be finite",
        "inf": f"{hosts[4]} -> {hosts[5]} submitted at time=inf; "
               f"submission times must be finite",
        "route": f"no route {hosts[4]} -> {hosts[5]}",
    }[kind]

    def batch():
        reset_flow_ids()
        transfers = [
            Transfer(src=hosts[2 * i], dst=hosts[2 * i + 1],
                     nbytes=40_000.0 + 7_000.5 * i)
            for i in range(4)
        ]
        times = [0.1, 0.2, _break(kind, transfers[2], tables), 0.4]
        return transfers, times

    def attempt(cls):
        transfers, times = batch()
        kernel = cls(net, tables, train_packets=8)
        if cls is ReferenceKernel and kind in _UNCHECKED_BY_ORACLE:
            kernel.submit_transfers(transfers[:2], times[:2])
        else:
            with pytest.raises(ValueError, match=message):
                kernel.submit_transfers(transfers, times)
        return kernel

    k_new, k_ref = attempt(EmulationKernel), attempt(ReferenceKernel)
    assert len(k_new.transfer_log) == 2
    assert k_new.transfer_log == k_ref.transfer_log
    assert k_new._seq == len(k_ref.queue) > 2
    assert k_new.stats.semantic() == k_ref.stats.semantic()
    assert _staged_columns(k_new) == _reference_columns(k_ref)
    # popping the calendar emptied k_new: run fresh kernels
    t_ref = attempt(ReferenceKernel).run(until=5.0)
    for drain in drains:
        k_new = attempt(EmulationKernel)
        t_new = k_new.run(until=5.0)
        drains.check(k_new, drain)
        assert (t_new.next_node == INJECTED).sum() == 2
        for field in TRACE_FIELDS:
            a, b = getattr(t_new, field), getattr(t_ref, field)
            assert a.tobytes() == b.tobytes(), (drain, field)


@pytest.mark.parametrize("when", (float("nan"), float("inf")))
def test_non_finite_time_cannot_erase_the_run(routed, when, drains):
    """A nan / inf time used to pass both the submit and the schedule
    checks and land in calendar bucket INT64_MIN, which popped first, lay
    beyond the horizon and ended the run at once: a valid transfer then
    produced no train event.  Both calls now raise a named error and the
    valid transfer runs to delivery."""
    net, tables = routed
    hosts = [h.node_id for h in net.hosts()]
    for drain in drains:
        reset_flow_ids()
        kernel = EmulationKernel(net, tables)
        ok = Transfer(src=hosts[0], dst=hosts[1], nbytes=50_000.0)
        bad = Transfer(src=hosts[2], dst=hosts[3], nbytes=1_000.0)
        with pytest.raises(ValueError, match="times must be finite"):
            kernel.submit_transfers([ok, bad], [0.001, when])
        with pytest.raises(ValueError, match="times must be finite"):
            kernel.schedule(when, lambda k, t: None)
        assert len(kernel.transfer_log) == 1
        trace = kernel.run(until=1.0)
        drains.check(kernel, drain)
        assert (trace.next_node != INJECTED).sum() > 0
        assert kernel.stats.transfers_delivered == 1


@pytest.mark.parametrize("nbytes", (2.0 ** 53, float("inf"), float("nan")))
def test_unsplittable_size_raises_at_once(routed, nbytes):
    """Beyond float64's exact-integer range the train split is no longer
    exact (and the oracle's loop would build ~10**11 trains): a
    ``ValueError`` naming the limit, before anything is injected."""
    net, tables = routed
    hosts = [h.node_id for h in net.hosts()]
    transfer = Transfer(src=hosts[0], dst=hosts[1], nbytes=1000.0)
    transfer.nbytes = nbytes
    kernel = EmulationKernel(net, tables)
    with pytest.raises(ValueError, match=r"below 2\*\*53 bytes"):
        kernel.submit_transfer(transfer, 0.1)
    assert kernel.transfer_log == [] and kernel._seq == 0
    assert kernel.calendar.min_bucket() is None


def test_bulk_mixed_hooks_match_reference(routed, drains):
    """A mixed hooked / hook-free batch goes through the one injection
    body: byte-identical to the per-transfer loop and to the reference
    kernel, each hook fired once, one ``_hooked`` entry per hooked
    transfer (not per train)."""
    net, tables = routed
    hosts = [h.node_id for h in net.hosts()]
    fired = []

    def run(submit, cls=EmulationKernel, drain=None):
        reset_flow_ids()
        kernel = cls(net, tables)
        transfers = [
            Transfer(src=hosts[0], dst=hosts[1], nbytes=5_000.0,
                     on_delivery=lambda k, t, tr: fired.append(round(t, 9))),
            Transfer(src=hosts[2], dst=hosts[3], nbytes=5_000.0),
        ]
        submit(kernel, transfers, [0.1, 0.1])
        trace = kernel.run(until=1.0)
        if drain is not None:
            drains.check(kernel, drain)
        return trace

    t_ref = run(lambda k, tr, t: k.submit_transfers(tr, t), ReferenceKernel)
    assert len(fired) == 1
    for drain in drains:
        del fired[:]
        t_bulk = run(lambda k, tr, t: k.submit_transfers(tr, t), drain=drain)
        assert len(fired) == 1
        t_loop = run(
            lambda k, tr, t: [k.submit_transfer(x, ti)
                              for x, ti in zip(tr, t)],
            drain=drain,
        )
        assert len(fired) == 2
        for field in TRACE_FIELDS:
            assert np.array_equal(
                getattr(t_bulk, field), getattr(t_loop, field)
            ), (drain, field)
            a, b = getattr(t_bulk, field), getattr(t_ref, field)
            assert a.tobytes() == b.tobytes(), (drain, field)


def test_ordered_kernel_takes_bulk_path(routed):
    """A NetFlow collector forces the per-event *drain*, not per-transfer
    injection: hook-free bulk submissions on an ordered kernel build no
    PacketTrain, and the collector sees exactly what the loop shows it."""
    net, tables = routed
    trace_bulk, k_bulk = _run(
        net, tables, lambda k, tr, t: k.submit_transfers(tr, t),
        collector=NetFlowCollector("flow"),
    )
    trace_loop, k_loop = _run(
        net, tables,
        lambda k, tr, t: [k.submit_transfer(x, float(ti))
                          for x, ti in zip(tr, t)],
        collector=NetFlowCollector("flow"),
    )
    assert k_bulk._hooked == []
    assert k_bulk.stats.vector_events == 0  # the per-event drain
    assert k_bulk.stats.windows == 0
    for field in TRACE_FIELDS:
        a, b = getattr(trace_bulk, field), getattr(trace_loop, field)
        assert a.tobytes() == b.tobytes(), field
    assert k_bulk.collector.n_records > 0
    assert k_bulk.collector.records() == k_loop.collector.records()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=5e6), min_size=1,
                   max_size=4),
    train_packets=st.sampled_from((1, 8, 32)),
    drain=st.sampled_from(("windows", "per_event")),
)
def test_bulk_keeps_fractional_bytes(routed, drains, sizes, train_packets,
                                     drain):
    """Sizes need not be integer-valued (ScaLapack's ``size * 0.7`` is
    not): bulk == submit_transfer loop == ReferenceKernel, and the bulk
    train columns equal ``packetize`` train by train.  (``drains`` only
    pins a module constant, so sharing it across examples is safe.)"""
    net, tables = routed
    drains.pin(drain)
    hosts = [h.node_id for h in net.hosts()]

    def run(cls, bulk):
        reset_flow_ids()
        kernel = cls(net, tables, train_packets=train_packets)
        transfers = [
            Transfer(src=hosts[i], dst=hosts[i + 1], nbytes=size)
            for i, size in enumerate(sizes)
        ]
        if bulk:
            kernel.submit_transfers(transfers, 0.1)
        else:
            for tr in transfers:
                kernel.submit_transfer(tr, 0.1)
        return transfers, kernel

    transfers, k_bulk = run(EmulationKernel, bulk=True)
    staged = _staged_columns(k_bulk)
    expect = [t for tr in transfers for t in packetize(tr, train_packets)]
    assert staged["count"] == [t.count for t in expect]
    assert staged["nbytes"] == [float(t.nbytes) for t in expect]
    assert staged["last"] == [t.last for t in expect]

    _, k_bulk = run(EmulationKernel, bulk=True)
    _, k_loop = run(EmulationKernel, bulk=False)
    _, k_ref = run(ReferenceKernel, bulk=False)
    traces = [k.run(until=60.0) for k in (k_bulk, k_loop, k_ref)]
    drains.check(k_bulk, drain)
    for other, kernel in zip(traces[1:], (k_loop, k_ref)):
        for field in TRACE_FIELDS:
            a, b = getattr(traces[0], field), getattr(other, field)
            assert a.tobytes() == b.tobytes(), field
        assert k_bulk.transfer_log == kernel.transfer_log
        assert [type(e[3]) for e in k_bulk.transfer_log] == [
            type(e[3]) for e in kernel.transfer_log
        ]
        assert k_bulk.stats.semantic() == kernel.stats.semantic()


def test_times_of_the_wrong_length_name_both_lengths(routed):
    """A ``times`` array that is neither a scalar nor one entry per
    transfer used to fail deep inside numpy ("operands could not be
    broadcast together with remapped shapes"); it now raises a
    ``ValueError`` naming ``times`` and both lengths, before anything is
    injected."""
    net, tables = routed
    reset_flow_ids()
    transfers = _transfers(net, 3, np.random.default_rng(5))
    kernel = EmulationKernel(net, tables)
    with pytest.raises(ValueError,
                       match=r"times has 2 entries .* for 3 transfers"):
        kernel.submit_transfers(transfers, [0.1, 0.2])
    with pytest.raises(ValueError,
                       match=r"times has 6 entries .* for 3 transfers"):
        kernel.submit_transfers(transfers, np.full((3, 2), 0.1))
    assert kernel.transfer_log == [] and kernel._seq == 0
    kernel.submit_transfers(transfers, [0.1, 0.2, 0.3])
    assert [e[0] for e in kernel.transfer_log] == [0.1, 0.2, 0.3]


def test_schedule_before_now_is_rejected(routed, drains):
    """Virtual time never runs backwards: a callback at t=0.5 that asks
    for another at t=0.1 gets a ``ValueError`` naming both times (it used
    to run at once with ``now == 0.1`` and inject after an event at 0.5).
    ``ReferenceKernel.schedule`` is the oracle's queue push and keeps no
    such check."""
    net, tables = routed
    hosts = [h.node_id for h in net.hosts()]
    for drain in drains:
        reset_flow_ids()
        kernel = EmulationKernel(net, tables)
        kernel.submit_transfer(
            Transfer(src=hosts[0], dst=hosts[1], nbytes=50_000.0), 0.0)
        ran = []

        def late(k, t):
            ran.append(("late", t))

        def at_half(k, t):
            with pytest.raises(ValueError, match=r"time=0\.1.*now=0\.5"):
                k.schedule(0.1, late)
            k.schedule(0.5, late)  # "now" itself is fine
            ran.append(("half", t))

        kernel.schedule(0.5, at_half)
        kernel.run(until=1.0)
        drains.check(kernel, drain)
        assert ran == [("half", 0.5), ("late", 0.5)]
        assert kernel.stats.transfers_delivered == 1


def _rated_network(n_rates):
    """Three routers in a row; eight hosts whose access links run at
    ``n_rates`` distinct bandwidths (host ``i`` at rate ``i % n_rates``)."""
    net = Network()
    routers = [net.add_router(f"r{i}") for i in range(3)]
    net.add_link(routers[0], routers[1], 1e9, 1e-3)
    net.add_link(routers[1], routers[2], 1e9, 1e-3)
    rates = (10e6, 45e6, 100e6, 622e6)[:n_rates]
    for i in range(8):
        host = net.add_host(f"h{i}")
        net.add_link(host, routers[i % 3], rates[i % n_rates], 2e-4)
    return net


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n_rates=st.integers(1, 4),
    train_packets=st.sampled_from((1, 32)),
    rows=st.lists(
        st.tuples(
            st.integers(0, 7), st.integers(1, 7),   # src, dst offset
            st.integers(1, 5_000),                  # trains
            st.floats(0.25, 1.0),                   # fill of the last
            st.floats(0.0, 0.05),                   # submission time
        ),
        min_size=1, max_size=6,
    ),
    drain=st.sampled_from(("windows", "per_event")),
)
def test_one_bulk_call_paces_like_the_reference_loop(
        drains, n_rates, train_packets, rows, drain):
    """One bulk call mixing access rates, transfers of 1 to 5,000 trains,
    fractional byte counts and per-row times: the staged calendar rows
    (pacing offsets included), the trace over a short horizon and the
    transfer log equal ``ReferenceKernel``'s per-transfer loop."""
    net = _rated_network(n_rates)
    tables = build_routing(net)
    drains.pin(drain)
    hosts = [h.node_id for h in net.hosts()]
    train_bytes = train_packets * 1500

    def batch():
        reset_flow_ids()
        transfers = [
            Transfer(src=hosts[s], dst=hosts[(s + d) % 8],
                     nbytes=(k - 1) * train_bytes + fill * train_bytes)
            for s, d, k, fill, _ in rows
        ]
        return transfers, [t for *_, t in rows]

    def submitted(cls):
        kernel = cls(net, tables, train_packets=train_packets)
        kernel.submit_transfers(*batch())
        return kernel

    k_new, k_ref = submitted(EmulationKernel), submitted(ReferenceKernel)
    assert k_new.transfer_log == k_ref.transfer_log
    assert _staged_columns(k_new) == _reference_columns(k_ref)
    until = max(t for *_, t in rows) + 0.02
    k_new = submitted(EmulationKernel)
    traces = [k.run(until=until) for k in (k_new, k_ref)]
    drains.check(k_new, drain)
    for field in TRACE_FIELDS:
        a, b = (getattr(t, field) for t in traces)
        assert a.tobytes() == b.tobytes(), field
    assert k_new.stats.semantic() == k_ref.stats.semantic()


def test_trace_does_not_alias_the_callers_times(routed):
    """The ``INJECTED`` rows used to keep a view of the caller's float64
    ``times`` array: overwriting it after the call rewrote the trace's
    injection times (while ``transfer_log`` kept the submitted ones)."""
    net, tables = routed
    reset_flow_ids()
    transfers = _transfers(net, 2, np.random.default_rng(6))
    kernel = EmulationKernel(net, tables)
    times = np.array([0.1, 0.2])
    kernel.submit_transfers(transfers, times)
    times[:] = 0.9
    trace = kernel.run(until=1.0)
    assert trace.time[trace.next_node == INJECTED].tolist() == [0.1, 0.2]
