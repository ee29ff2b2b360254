"""Replaying a transfer trace to measure network emulation time.

The replayer re-executes the recorded transfers through a fresh emulation
kernel (same network, same routes, no application callbacks — the
application's "real computation" is gone) and evaluates the requested
mapping with zero compute demand.  The conservative-window cost model skips
idle windows, so the measured wall time is the as-fast-as-possible network
emulation time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.costmodel import CostModel
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.engine.parallel import EmulationMetrics, evaluate_mapping
from repro.replay.trace import TransferTrace
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = ["ReplayResult", "replay"]


@dataclass
class ReplayResult:
    """Outcome of one replay run under one mapping."""

    metrics: EmulationMetrics
    n_transfers: int

    @property
    def network_emulation_time(self) -> float:
        """The Figure 9/10 quantity."""
        return self.metrics.wall_network


def replay(
    trace: TransferTrace,
    net: Network,
    tables: RoutingTables,
    parts: np.ndarray,
    cost: CostModel | None = None,
    train_packets: int = 32,
) -> ReplayResult:
    """Replay a recorded traffic trace and score ``parts``.

    Transfers are injected open-loop at their recorded times (preserving the
    application's causal message order, which the recording embodies) and
    the mapping is evaluated without compute demand.
    """
    kernel = EmulationKernel(net, tables, train_packets=train_packets)
    kernel.submit_transfers(
        [
            Transfer(
                src=int(trace.src[i]), dst=int(trace.dst[i]),
                nbytes=float(trace.nbytes[i]), flow_id=int(trace.flow[i]),
                tag=trace.tags[i] if i < len(trace.tags) else "replay",
            )
            for i in range(trace.n_transfers)
        ],
        trace.time,
    )
    event_trace = kernel.run(until=trace.duration)
    metrics = evaluate_mapping(event_trace, net, parts, cost=cost, compute=None)
    return ReplayResult(metrics=metrics, n_transfers=trace.n_transfers)
