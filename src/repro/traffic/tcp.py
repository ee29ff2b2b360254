"""TCP-like windowed flows.

The paper's foreground applications run over TCP (ScaLapack via MPICH-G "a
network of TCP/IP connections"); the background HTTP model of [21] is TCP
too.  This module adds a closed-loop TCP abstraction on top of the
emulation kernel: a :class:`TcpFlow` sends one congestion window per round
trip, growing the window by slow start and congestion avoidance, halving it
on a retransmission timeout — so transfer pacing reacts to emulated network
conditions (RTT, queueing) instead of being open-loop.  Links are
unbounded FIFOs, so a timeout means a window that queued past ``rto``,
never a loss.

This is deliberately a *flow-level* TCP (per-window, not per-segment ACKs):
it reproduces the burst structure and timeout reaction that matter for load
shape at a fraction of the event cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import MTU_BYTES, Transfer
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.flows import PredictedFlow, TrafficGenerator

__all__ = ["TcpFlow", "TcpTraffic"]


class TcpFlow:
    """One TCP-like bulk transfer.

    Parameters
    ----------
    kernel:
        The emulation kernel to run on.
    src, dst:
        Host node ids.
    nbytes:
        Total payload.
    mss:
        Segment size (defaults to the MTU).
    init_cwnd:
        Initial congestion window, in segments.
    ssthresh:
        Slow-start threshold, in segments.
    max_cwnd:
        Receive-window cap, in segments.
    rto:
        Retransmission timeout (seconds); a window unacknowledged after
        this long is retransmitted with the window halved.
    max_retries:
        Consecutive timeouts before the flow gives up.
    on_complete:
        ``fn(kernel, time, flow)`` invoked when the last byte is delivered.
    """

    def __init__(
        self,
        kernel: EmulationKernel,
        src: int,
        dst: int,
        nbytes: float,
        mss: float = MTU_BYTES,
        init_cwnd: int = 2,
        ssthresh: int = 32,
        max_cwnd: int = 64,
        rto: float = 1.0,
        max_retries: int = 8,
        on_complete: Optional[Callable] = None,
        tag: str = "tcp",
    ) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        if init_cwnd < 1 or max_cwnd < init_cwnd:
            raise ValueError("need 1 <= init_cwnd <= max_cwnd")
        self.kernel = kernel
        self.src = src
        self.dst = dst
        self.total_bytes = float(nbytes)
        self.mss = float(mss)
        self.init_cwnd = int(init_cwnd)
        self.ssthresh = int(ssthresh)
        self.max_cwnd = int(max_cwnd)
        self.rto = float(rto)
        self.max_retries = int(max_retries)
        self.on_complete = on_complete
        self.tag = tag

        self.cwnd = int(init_cwnd)
        self.bytes_acked = 0.0
        self.rounds = 0
        self.timeouts = 0
        self.completed = False
        self.failed = False
        self._window_seq = 0
        self._acked_seq = -1
        self._retries = 0

    # ------------------------------------------------------------------ #
    def start(self, time: float) -> None:
        """Begin transmission at virtual ``time``."""
        self._send_window(time)

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_bytes - self.bytes_acked)

    def _send_window(self, time: float) -> None:
        size = min(self.cwnd * self.mss, self.remaining)
        seq = self._window_seq
        self.rounds += 1
        transfer = Transfer(
            src=self.src, dst=self.dst, nbytes=size, tag=self.tag,
            on_delivery=lambda k, t, _tr, _seq=seq, _size=size:
                self._acked(t, _seq, _size),
        )
        self.kernel.submit_transfer(transfer, time)
        self.kernel.schedule(
            time + self.rto, lambda k, t, _seq=seq: self._check_timeout(t, _seq)
        )

    def _acked(self, time: float, seq: int, size: float) -> None:
        if seq != self._window_seq or self.completed or self.failed:
            return  # stale (retransmitted) window
        self._acked_seq = seq
        self._window_seq += 1
        self._retries = 0
        self.bytes_acked += size
        if self.remaining <= 0:
            self.completed = True
            if self.on_complete is not None:
                self.on_complete(self.kernel, time, self)
            return
        # Window growth: slow start doubles, congestion avoidance adds one.
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd * 2, self.max_cwnd)
        else:
            self.cwnd = min(self.cwnd + 1, self.max_cwnd)
        self._send_window(time)

    def _check_timeout(self, time: float, seq: int) -> None:
        if seq != self._window_seq or self.completed or self.failed:
            return  # window was acknowledged (or flow is done)
        self.timeouts += 1
        self._retries += 1
        if self._retries > self.max_retries:
            self.failed = True
            return
        # Multiplicative decrease, then retransmit the window.
        self.ssthresh = max(2, self.cwnd // 2)
        self.cwnd = self.init_cwnd
        self._window_seq += 1  # invalidate late ACKs of the lost window
        self._send_window(time)


@dataclass
class TcpTraffic(TrafficGenerator):
    """Background bulk TCP transfers on explicit pairs.

    Each pair starts a new :class:`TcpFlow` of ``nbytes`` every ``period``
    seconds (if the previous one finished; otherwise the slot is skipped —
    a busy server does not pile up copies of the same job).
    """

    pairs: list[tuple[int, int]]
    nbytes: float = 500e3
    period: float = 20.0
    duration: float = 300.0
    rto: float = 1.0
    flows: list[TcpFlow] = field(default_factory=list, repr=False)

    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        for src, dst in self.pairs:
            start = float(rng.uniform(0.0, self.period))
            kernel.schedule(start, self._launch, src, dst)

    def _launch(self, kernel: EmulationKernel, time: float, src: int,
                dst: int) -> None:
        if time >= self.duration:
            return
        flow = TcpFlow(kernel, src, dst, self.nbytes, rto=self.rto,
                       tag="tcp-bulk")
        self.flows.append(flow)
        flow.start(time)
        kernel.schedule(time + self.period, self._launch, src, dst)

    def predicted_flows(
        self, net: Network, tables: RoutingTables
    ) -> list[PredictedFlow]:
        rate = self.nbytes / self.period
        return [PredictedFlow(s, d, rate) for s, d in self.pairs]

    def describe(self) -> str:
        return (
            f"TCP({len(self.pairs)} pairs, {self.nbytes / 1e3:.0f}KB "
            f"every {self.period}s)"
        )
