"""The partition view: the ``engine="parallel"`` kernel.

:class:`ParallelEmulationKernel` is the sequential kernel seen through a
node partition (``parts``), one logical process (LP) per partition.  It
executes nothing separately; it counts the train events each LP would have
executed (``lp_events``) and lets the online rebalancer
(:mod:`repro.rebalance`) move routers between LPs at window barriers.  How
long a partition would take on a cluster is the analytic cost model's job
(:mod:`repro.engine.parallel`), not this class's.

Because the run itself never reads ``parts``, the event trace, the
semantic stats and the per-link accounting arrays are the sequential
engine's bit for bit, under any migration schedule.

The view runs under either drain, with a NetFlow collector too: both fire
the same barriers, and LP loads are folded from the recorder's rows (one
numpy pass per fold, not per segment) when read or before ``parts`` moves.
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.parallel import partition_ids
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = ["ParallelEmulationKernel"]


class ParallelEmulationKernel(EmulationKernel):
    """The sequential kernel seen through a node partition.

    Parameters (beyond :class:`~repro.engine.kernel.EmulationKernel`'s
    keyword options)
    ----------
    parts:
        ``int[n_nodes]`` partition ids — one logical process per
        partition.  ``lp_events[p]`` counts the train events executed at
        nodes of partition ``p``; :meth:`migrate_routers` rewrites the
        ids between windows.  The caller's array is never mutated.
    """

    def __init__(
        self,
        net: Network,
        tables: RoutingTables,
        *,
        parts,
        **options,
    ) -> None:
        super().__init__(net, tables, **options)
        self._parts = partition_ids(parts, net.n_nodes)
        self.n_lps = int(self._parts.max()) + 1 if len(self._parts) else 1
        self._lp_events = np.zeros(self.n_lps, dtype=np.int64)
        self._folded = 0  # recorder rows already charged to LPs
        #: Attached :class:`repro.rebalance.OnlineRebalancer` (or None).
        self.rebalancer = None
        # Migration accounting, priced as a hand-over of each mover's
        # outgoing channel state (no-ops move nothing).
        self.migrations_applied = 0
        self.routers_migrated = 0
        self.channels_migrated = 0
        self.migration_bytes = 0
        self.migration_noops = 0

    @property
    def lp_events(self) -> np.ndarray:
        """Train events executed at each LP's nodes (imbalance reporting)."""
        self._fold()
        return self._lp_events

    def _fold(self) -> None:
        """Charge the rows since the last fold to LPs and load bins."""
        rows = self.recorder.train_rows_since(self._folded)
        self._folded = len(self.recorder)
        self._lp_events += np.bincount(
            self._parts[rows.node], minlength=self.n_lps)
        if self.rebalancer is not None:
            self.rebalancer.observe(rows)

    def migrate_routers(self, routers, dests) -> int:
        """Reassign ``routers`` to the LPs named in ``dests``.

        Call it at a conservative-window barrier (e.g. from
        ``kernel.barrier_hooks``); rows recorded so far count against the
        old owners.  The run never reads ``parts``, so the remainder of the
        run — the :class:`~repro.engine.trace.EventTrace` included — is
        the same as a run that never migrated.

        Each mover is charged its outgoing (link, direction) channels, one
        per incident link, at
        :data:`~repro.rebalance.migrate.CHANNEL_STATE_BYTES` each.
        Entries whose destination equals the current owner are no-ops:
        counted (``migration_noops``) but charged nothing.  Returns the
        charged payload in bytes.
        """
        from repro.rebalance.migrate import CHANNEL_STATE_BYTES

        routers = np.atleast_1d(np.asarray(routers, dtype=np.int64))
        dests = np.atleast_1d(np.asarray(dests, dtype=np.int64))
        if routers.shape != dests.shape:
            raise ValueError(
                f"routers and dests must pair up: got {routers.shape} "
                f"routers and {dests.shape} destinations"
            )
        if len(routers) == 0:
            return 0
        if len(np.unique(routers)) != len(routers):
            raise ValueError("duplicate router in one migration set")
        if routers.min() < 0 or routers.max() >= self.net.n_nodes:
            raise ValueError(
                f"router id out of range 0..{self.net.n_nodes - 1}"
            )
        if dests.min() < 0 or dests.max() >= self.n_lps:
            raise ValueError(
                f"destination LP out of range 0..{self.n_lps - 1}"
            )
        moving = self._parts[routers] != dests
        self.migration_noops += int((~moving).sum())
        if not moving.any():
            return 0
        movers = routers[moving].tolist()
        channels = int(sum(self.net.degree(r) for r in movers))
        payload = channels * CHANNEL_STATE_BYTES
        self._fold()
        self._parts[routers] = dests
        self.migrations_applied += 1
        self.routers_migrated += int(moving.sum())
        self.channels_migrated += channels
        self.migration_bytes += payload
        return payload

    def _finalize_run(self) -> None:
        self._fold()
        if self.rebalancer is not None:
            self.rebalancer.finalize()
