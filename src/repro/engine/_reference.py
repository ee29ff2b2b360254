"""Reference (pre-batching) emulation kernel — the test oracle.

This is the original per-event heap+callback kernel, kept verbatim when the
hot path moved to batched numpy processing in :mod:`repro.engine.kernel`.
Every event is popped from a binary heap one at a time and dispatched
through a python callback — exactly the scaling behaviour the batched
kernel exists to avoid; never call it from production code.

The batched kernel promises *bit-identical* traces: same
:class:`~repro.engine.trace.EventTrace` arrays (byte for byte), same
semantic :class:`~repro.engine.perf.KernelStats`, same per-link accounting
arrays.  The differential parity suite
(``tests/engine/test_kernel_parity.py``) proves the promise by driving both
:func:`run_kernel_reference` and its counterpart
:func:`repro.engine.kernel.run_kernel` over the topology × train-packets
grid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.engine.eventq import EventQueue
from repro.engine.packet import PacketTrain, Transfer, packetize, reset_flow_ids
from repro.engine.perf import KernelStats
from repro.engine.trace import DELIVERED, INJECTED, EventTrace, TraceRecorder
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = ["ReferenceKernel", "run_kernel_reference"]


class ReferenceKernel:
    """One emulation run over a routed network (original heap kernel).

    Same construction surface as the historical ``EmulationKernel``:
    ``net`` and ``tables`` positional, options positional-or-keyword.
    """

    def __init__(
        self,
        net: Network,
        tables: RoutingTables,
        train_packets: int = 32,
        collector=None,
        telemetry=None,
    ) -> None:
        from repro.obs.telemetry import ensure_telemetry

        if tables.net is not net:
            raise ValueError("routing tables were built for another network")
        self.net = net
        self.tables = tables
        self.train_packets = int(train_packets)
        self.collector = collector
        self.telemetry = ensure_telemetry(telemetry)
        self.queue = EventQueue()
        self.recorder = TraceRecorder(net.n_nodes)
        self.stats = KernelStats()
        # (time, src, dst, nbytes, flow_id, tag) per submitted transfer —
        # the "network traffic trace" MaSSF records for replay.
        self.transfer_log: list[tuple[float, int, int, float, int, str]] = []
        self.now = 0.0
        self._end_time: float = float("inf")
        # Per-link, per-direction busy-until times (FIFO transmission).
        self._busy = np.zeros((net.n_links, 2), dtype=np.float64)
        # Per-link accounting: packets carried, bytes carried, busy seconds,
        # worst backlog seen (both directions summed / maxed).
        self.link_packets = np.zeros(net.n_links, dtype=np.float64)
        self.link_bytes = np.zeros(net.n_links, dtype=np.float64)
        self.link_busy_s = np.zeros(net.n_links, dtype=np.float64)
        self.link_max_backlog_s = np.zeros(net.n_links, dtype=np.float64)
        self._is_router = np.array(
            [node.is_router for node in net.nodes], dtype=bool
        )

    # ------------------------------------------------------------------ #
    # Scheduling API (used by traffic generators)
    # ------------------------------------------------------------------ #
    def schedule(self, time: float, callback: Callable, *args) -> None:
        """Run ``callback(kernel, time, *args)`` at virtual ``time``."""
        self.queue.push(time, callback, *args)

    def submit_transfer(self, transfer: Transfer, time: float) -> None:
        """Inject a transfer at its source host at virtual ``time``.

        The source paces trains at its access-link rate (the first link on
        the path), mirroring a host NIC draining a socket buffer.  The
        injection itself is recorded as one kernel event (the paper counts
        "requests coming from the application" as live-injection overhead).
        """
        if time < self.now:
            raise ValueError("cannot submit a transfer in the past")
        self.stats.transfers_submitted += 1
        first_hop = self.tables.hop(transfer.src, transfer.dst)
        if first_hop < 0:
            raise ValueError(
                f"no route {transfer.src} -> {transfer.dst}"
            )
        access = self.tables.link_between(transfer.src, first_hop)
        self.transfer_log.append(
            (time, transfer.src, transfer.dst, transfer.nbytes,
             transfer.flow_id, transfer.tag)
        )
        self.recorder.record(time, transfer.src, INJECTED, 1, transfer.flow_id)
        offset = 0.0
        for train in packetize(transfer, self.train_packets):
            self.queue.push(time + offset, self._arrive, transfer.src, train)
            offset += access.tx_time(train.nbytes)

    def submit_transfers(self, transfers, times) -> None:
        """Bulk spelling of :meth:`submit_transfer` — here, literally the
        loop the batched kernel's vectorised version must equal."""
        transfers = list(transfers)
        t_arr = np.broadcast_to(
            np.asarray(times, dtype=np.float64), (len(transfers),)
        )
        for tr, t in zip(transfers, t_arr.tolist()):
            self.submit_transfer(tr, t)

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _arrive(self, kernel, time: float, node: int, train: PacketTrain) -> None:
        if node == train.dst:
            self.recorder.record(
                time, node, DELIVERED, train.count, train.flow_id
            )
            self.stats.packets_delivered += train.count
            if train.last:
                self.stats.transfers_delivered += 1
                hook = train.transfer.on_delivery
                if hook is not None:
                    hook(self, time, train.transfer)
            return

        nxt = self.tables.hop(node, train.dst)
        if nxt < 0:
            raise RuntimeError(f"no route from {node} to {train.dst}")
        link = self.tables.link_between(node, nxt)
        direction = 0 if node == link.u else 1
        backlog = self._busy[link.link_id, direction] - time

        self.recorder.record(
            time, node, nxt, train.count, train.flow_id,
            span=link.tx_time(train.nbytes),
        )
        self.stats.trains_forwarded += 1
        if self._is_router[node] and self.collector is not None:
            self.collector.record(
                time, node, link.link_id, train.src, train.dst,
                train.flow_id, train.count, train.nbytes,
            )

        tx = link.tx_time(train.nbytes)
        depart = max(time, self._busy[link.link_id, direction]) + tx
        self._busy[link.link_id, direction] = depart
        self.link_packets[link.link_id] += train.count
        self.link_bytes[link.link_id] += train.nbytes
        self.link_busy_s[link.link_id] += tx
        if backlog > self.link_max_backlog_s[link.link_id]:
            self.link_max_backlog_s[link.link_id] = backlog
        self.queue.push(depart + link.latency_s, self._arrive, nxt, train)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, until: float) -> EventTrace:
        """Process events up to virtual time ``until`` and freeze the trace.

        Events scheduled beyond ``until`` are discarded (the emulation has a
        fixed horizon, like the paper's fixed-duration application runs).
        """
        if until <= 0:
            raise ValueError("horizon must be positive")
        self._end_time = float(until)
        with self.telemetry.span("kernel/run"):
            while self.queue:
                if self.queue.peek_time() > self._end_time:
                    break
                time, callback, args = self.queue.pop()
                self.now = time
                callback(self, time, *args)
        tel = self.telemetry
        if tel.enabled:
            tel.count("kernel.events", self.queue.processed)
            tel.count("kernel.trains_forwarded", self.stats.trains_forwarded)
            tel.count("kernel.packets_delivered",
                      self.stats.packets_delivered)
            tel.count("kernel.transfers", self.stats.transfers_submitted)
            tel.gauge("kernel.horizon_s", self._end_time)
            if self.net.n_links:
                tel.gauge("kernel.max_backlog_s",
                          float(self.link_max_backlog_s.max()))
        return self.recorder.finish(self._end_time)

    @property
    def events_processed(self) -> int:
        return self.queue.processed

    def link_utilization(self, duration: float | None = None) -> np.ndarray:
        """Per-link busy fraction over the run (both directions pooled)."""
        horizon = duration if duration is not None else self._end_time
        if not np.isfinite(horizon) or horizon <= 0:
            raise ValueError("run() first, or pass an explicit duration")
        return self.link_busy_s / horizon


def run_kernel_reference(
    net: Network,
    tables: RoutingTables,
    workload,
    *,
    seed: int = 0,
    until: float | None = None,
    train_packets: int = 32,
    collector=None,
    telemetry=None,
) -> tuple[EventTrace, "ReferenceKernel"]:
    """Run one workload through the reference heap kernel — the oracle side
    of the engine parity pair.

    ``workload`` is anything with ``install(kernel, rng)`` (and a
    ``duration`` attribute used when ``until`` is omitted) — a
    :class:`repro.experiments.workloads.Workload`, a single traffic
    generator, or a test stub.  Flow ids are reset first so two runs of the
    same (seed, workload) are comparable train by train.
    """
    reset_flow_ids()
    kernel = ReferenceKernel(
        net, tables, train_packets=train_packets, collector=collector,
        telemetry=telemetry,
    )
    workload.install(kernel, np.random.default_rng(seed))
    horizon = float(until if until is not None else workload.duration)
    trace = kernel.run(until=horizon)
    return trace, kernel
