"""Constant-bit-rate background traffic.

The simplest aggregate model: each configured pair ships a fixed-size
transfer every ``period`` seconds.  Its prediction is exact (rate =
size/period), which makes CBR the control case where PLACE should match
PROFILE almost perfectly — a property the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.flows import PredictedFlow, TrafficGenerator

__all__ = ["CbrTraffic"]


@dataclass
class CbrTraffic(TrafficGenerator):
    """Fixed-rate transfers on explicit endpoint pairs.

    Attributes
    ----------
    pairs:
        ``(src, dst)`` host id pairs.
    nbytes:
        Transfer size per period.
    period:
        Seconds between transfers on each pair.
    duration:
        Stop issuing transfers at this virtual time.
    jitter:
        Optional uniform start-phase jitter (fraction of a period) so pairs
        do not fire in lockstep.
    """

    pairs: list[tuple[int, int]]
    nbytes: float = 100e3
    period: float = 5.0
    duration: float = 300.0
    jitter: float = 0.5

    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        batch: list[Transfer] = []
        times: list[float] = []
        for src, dst in self.pairs:
            phase = float(rng.uniform(0.0, self.jitter * self.period))
            t = phase
            while t < self.duration:
                batch.append(
                    Transfer(src=src, dst=dst, nbytes=self.nbytes, tag="cbr")
                )
                times.append(t)
                t += self.period
        kernel.submit_transfers(batch, times)

    def predicted_flows(
        self, net: Network, tables: RoutingTables
    ) -> list[PredictedFlow]:
        rate = self.nbytes / self.period
        return [PredictedFlow(s, d, rate) for s, d in self.pairs]

    def describe(self) -> str:
        return (
            f"CBR({len(self.pairs)} pairs, {self.nbytes / 1e3:.0f}KB "
            f"every {self.period}s)"
        )
