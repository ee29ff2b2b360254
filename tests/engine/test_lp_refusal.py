"""The parallel engine's refusal of order-coupled configs names the offender.

``ParallelEmulationKernel`` counts LP loads and migrates routers at window
barriers, and an option that couples the run to global arrival order
(NetFlow collection) forces the per-event drain, which has none.  The
refusal must say *which* option is order-coupled — "parallel emulation
failed" with no noun sends users hunting through their config.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.lp import ParallelEmulationKernel
from repro.profiling.netflow import NetFlowCollector


def _parts(net):
    return np.arange(net.n_nodes, dtype=np.int64) % 3


def test_collector_refusal_names_the_collector(campus_routed):
    net, tables = campus_routed
    with pytest.raises(ValueError, match=r"collector=NetFlowCollector"):
        ParallelEmulationKernel(
            net, tables, parts=_parts(net),
            collector=NetFlowCollector(),
        )


def test_refusal_points_at_the_sequential_engine(campus_routed):
    net, tables = campus_routed
    with pytest.raises(ValueError, match=r"engine='sequential'"):
        ParallelEmulationKernel(
            net, tables, parts=_parts(net),
            collector=NetFlowCollector(),
        )
