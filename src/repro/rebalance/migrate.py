"""Migration execution helpers: cost accounting and forced schedules.

The partition rewrite lives in the engine
(:meth:`repro.engine.lp.ParallelEmulationKernel.migrate_routers`); this
module prices it: :data:`CHANNEL_STATE_BYTES` and the per-node state
sizes that migration *cost* is measured in, read by the engine and the
policies alike.  :class:`ForcedMigrationSchedule` is the deterministic
"migrate router r to LP d at virtual time t" harness the migration-parity
suite and the bench drive the engine with.
"""

from __future__ import annotations

import numpy as np

from repro.topology.network import Network

__all__ = [
    "CHANNEL_STATE_BYTES",
    "node_state_bytes_array",
    "ForcedMigrationSchedule",
]

#: Migration payload per (link, direction) channel: the flat busy key
#: (int64) plus the busy-until time (float64).
CHANNEL_STATE_BYTES = 16


def node_state_bytes_array(net: Network) -> np.ndarray:
    """Per-node migration payload sizes, ``int64[n_nodes]``.

    A node's migration state is its outgoing (link, direction) channel
    set — one entry per incident link — at :data:`CHANNEL_STATE_BYTES`
    each: what
    :meth:`repro.engine.lp.ParallelEmulationKernel.migrate_routers`
    charges for it, and what policies price candidate moves with.
    """
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
        #: ``(barrier_time, router, dest)`` per router handed to the kernel.
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
        dests: dict[int, int] = {}
        for _, r, d in batch:
            dests[r] = d
        self.executed.extend((now, r, d) for r, d in dests.items())
        self._kernel.migrate_routers(
            np.asarray(list(dests), dtype=np.int64),
            np.asarray(list(dests.values()), dtype=np.int64),
        )
