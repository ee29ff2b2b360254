"""Online load rebalancing for the parallel LP engine.

The paper's traffic-based balance (PLACE/PROFILE) is computed *before* a
run; this package closes the loop **during** one.  A monitor rides the
kernel's conservative-window barriers, folds dispatched events into an
imbalance signal, and — under a pluggable policy — migrates routers
between logical processes live, by rewriting the kernel's partition, so
the event trace never notices.  See :mod:`repro.rebalance.monitor` for
the control loop, :mod:`repro.rebalance.policy` for the policies,
:mod:`repro.rebalance.migrate` for cost accounting and forced schedules,
and :mod:`repro.rebalance.log` for the run artifact.
"""

from repro.rebalance.log import MigrationEvent, MigrationLog
from repro.rebalance.migrate import (
    CHANNEL_STATE_BYTES,
    ForcedMigrationSchedule,
    node_state_bytes_array,
)
from repro.rebalance.monitor import (
    LoadMonitor,
    OnlineRebalancer,
    RebalanceConfig,
    attach_rebalancer,
)
from repro.rebalance.policy import (
    POLICIES,
    HysteresisPolicy,
    KurvePolicy,
    ProposalState,
    RebalancePolicy,
    StaticPolicy,
    boundary_vertices,
)

__all__ = [
    "CHANNEL_STATE_BYTES",
    "ForcedMigrationSchedule",
    "HysteresisPolicy",
    "KurvePolicy",
    "LoadMonitor",
    "MigrationEvent",
    "MigrationLog",
    "OnlineRebalancer",
    "POLICIES",
    "ProposalState",
    "RebalanceConfig",
    "RebalancePolicy",
    "StaticPolicy",
    "attach_rebalancer",
    "boundary_vertices",
    "node_state_bytes_array",
]
