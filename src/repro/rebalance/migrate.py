"""Migration execution helpers: cost accounting and forced schedules.

The actual state transfer lives in the engine
(:meth:`repro.engine.lp.ParallelEmulationKernel.migrate_routers` — it owns
the shards and the fork boundary); this module provides what sits around
it: the run-level :class:`MigrationStats` counters the perf-guard tests
read, the network-level state-size accounting that migration *cost* is
measured in, and :class:`ForcedMigrationSchedule` — the deterministic
"migrate router r to LP d at virtual time t" harness the migration-parity
suite and the bench drive the engine with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.lp import CHANNEL_STATE_BYTES
from repro.topology.network import Network

__all__ = [
    "CHANNEL_STATE_BYTES",
    "MigrationStats",
    "migration_state_bytes",
    "ForcedMigrationSchedule",
]


@dataclass
class MigrationStats:
    """Counters of one rebalanced run's decision pipeline.

    Every trigger produces exactly one proposal, and every proposal is
    either adopted or rejected — so ``triggers == proposals == adopted +
    rejected`` always holds.  The byte / router counters cover adopted
    events only (rejected proposals serialize nothing).
    """

    triggers: int = 0
    proposals: int = 0
    adopted: int = 0
    rejected: int = 0
    routers_migrated: int = 0
    bytes_moved: int = 0


def migration_state_bytes(net: Network, nodes) -> int:
    """Serialized migration payload for ``nodes``, from the topology alone.

    A node's migration state is its outgoing (link, direction) channel
    set — one entry per incident link — at
    :data:`CHANNEL_STATE_BYTES` each — the payload
    :meth:`repro.engine.lp.ParallelEmulationKernel.migrate_routers`
    charges for the same nodes, priced without a kernel (policies price
    candidate moves with this).
    """
    nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
    return CHANNEL_STATE_BYTES * int(
        sum(net.degree(int(v)) for v in nodes)
    )


def node_state_bytes_array(net: Network) -> np.ndarray:
    """Per-node migration payload sizes, ``int64[n_nodes]``."""
    degrees = np.array(
        [net.degree(v) for v in range(net.n_nodes)], dtype=np.int64
    )
    return degrees * CHANNEL_STATE_BYTES


class ForcedMigrationSchedule:
    """Execute a fixed ``(time, router, dest_lp)`` schedule at barriers.

    The migration-parity battery's instrument: attach one to a
    :class:`~repro.engine.lp.ParallelEmulationKernel` and every entry
    fires at the first window barrier at or past its virtual time —
    deterministically, independent of how traffic shaped the windows.
    Entries sharing a firing barrier are applied in schedule order as one
    migration set.
    """

    def __init__(self, moves) -> None:
        moves = [(float(t), int(r), int(d)) for t, r, d in moves]
        self._moves = sorted(moves, key=lambda m: m[0])
        self._next = 0
        self._kernel = None
        #: ``(barrier_time, router, dest)`` per applied entry.
        self.executed: list[tuple[float, int, int]] = []

    def attach(self, kernel) -> "ForcedMigrationSchedule":
        if not hasattr(kernel, "migrate_routers"):
            raise TypeError(
                "a ForcedMigrationSchedule needs the parallel LP engine "
                "(the sequential kernel has no LPs to migrate between)"
            )
        self._kernel = kernel
        kernel.barrier_hooks.append(self)
        return self

    @property
    def pending(self) -> int:
        return len(self._moves) - self._next

    def __call__(self, now: float) -> None:
        if self._next >= len(self._moves):
            return
        due = self._next
        while due < len(self._moves) and self._moves[due][0] <= now:
            due += 1
        if due == self._next:
            return
        batch = self._moves[self._next:due]
        self._next = due
        # Later entries for the same router win, matching apply order.
        routers: list[int] = []
        dests: dict[int, int] = {}
        for t, r, d in batch:
            if r not in dests:
                routers.append(r)
            dests[r] = d
            self.executed.append((now, r, d))
        self._kernel.migrate_routers(
            np.asarray(routers, dtype=np.int64),
            np.asarray([dests[r] for r in routers], dtype=np.int64),
        )
