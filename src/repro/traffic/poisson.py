"""Poisson-arrival background traffic.

Transfers arrive on each pair as a Poisson process with exponential sizes —
burstier than CBR but with the same predictable mean rate, sitting between
CBR and the closed-loop HTTP model in predictability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.flows import PredictedFlow, TrafficGenerator

__all__ = ["PoissonTraffic"]


@dataclass
class PoissonTraffic(TrafficGenerator):
    """Poisson arrivals with exponential transfer sizes on explicit pairs.

    Attributes
    ----------
    pairs:
        ``(src, dst)`` host id pairs.
    mean_nbytes:
        Mean transfer size.
    rate:
        Arrivals per second on each pair.
    duration:
        Stop issuing at this virtual time.
    min_bytes:
        Floor on sampled sizes (a transfer must carry at least one byte).
    """

    pairs: list[tuple[int, int]]
    mean_nbytes: float = 50e3
    rate: float = 0.5
    duration: float = 300.0
    min_bytes: float = 64.0

    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        # The draws do not depend on the kernel, so drawing everything
        # first and submitting once leaves the rng stream untouched.
        batch: list[Transfer] = []
        times: list[float] = []
        for src, dst in self.pairs:
            t = float(rng.exponential(1.0 / self.rate))
            while t < self.duration:
                size = max(self.min_bytes, float(rng.exponential(self.mean_nbytes)))
                batch.append(
                    Transfer(src=src, dst=dst, nbytes=size, tag="poisson")
                )
                times.append(t)
                t += float(rng.exponential(1.0 / self.rate))
        kernel.submit_transfers(batch, times)

    def predicted_flows(
        self, net: Network, tables: RoutingTables
    ) -> list[PredictedFlow]:
        mean_rate = self.mean_nbytes * self.rate
        return [PredictedFlow(s, d, mean_rate) for s, d in self.pairs]

    def describe(self) -> str:
        return (
            f"Poisson({len(self.pairs)} pairs, mean "
            f"{self.mean_nbytes / 1e3:.0f}KB @ {self.rate}/s)"
        )
