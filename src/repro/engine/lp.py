"""Logical processes: the shard every kernel runs, and the partition view.

Two layers live here:

- :class:`LPShard` — the numeric core of batched event processing.  A shard
  owns the FIFO busy-time state and per-link accounting for the (link,
  direction) channels and processes one segment of same-window train
  events at a time, entirely from numpy arrays (no train objects, no
  callbacks).  The :class:`~repro.engine.kernel.EmulationKernel` runs ONE
  shard covering the whole network.
- :class:`ParallelEmulationKernel` — the ``engine="parallel"`` kernel: the
  sequential kernel seen through a node partition (``parts``), one logical
  process (LP) per partition.  It executes nothing separately; it counts
  the train events each LP would have executed (``lp_events``) and lets
  the online rebalancer (:mod:`repro.rebalance`) move routers between LPs
  at window barriers.  How long a partition would take on a cluster is the
  analytic cost model's job (:mod:`repro.engine.parallel`), not this
  class's.

Because the run itself never reads ``parts``, the event trace, the
semantic stats and the per-link accounting arrays are the sequential
engine's bit for bit, under any migration schedule.

The view runs under either drain, with a NetFlow collector too: both fire
the same barriers, and LP loads are folded from the recorder's rows (one
numpy pass per fold, not per segment) when read or before ``parts`` moves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.kernel import EmulationKernel
from repro.engine.trace import DELIVERED
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = [
    "LPShard",
    "ShardContext",
    "ShardResult",
    "ParallelEmulationKernel",
    "shard_context",
]


@dataclass(frozen=True)
class ShardContext:
    """Per-run arrays the shard needs.

    Fixed after construction except under mid-run link changes, when
    :meth:`~repro.engine.kernel.EmulationKernel.sync_context` refreshes
    the pair / link arrays in place at a barrier (``next_hop`` aliases the
    tables the routing repair splices).
    """

    n_nodes: int
    n_links: int
    next_hop: np.ndarray       # int[n, n]
    pair_keys: np.ndarray      # int64[p], sorted u * n + v adjacency keys
    pair_lids: np.ndarray      # int64[p], link id behind each key
    link_u: np.ndarray         # int64[m], lower endpoint of each link
    link_bw: np.ndarray        # float64[m], bandwidth (bit/s)
    link_lat: np.ndarray       # float64[m], propagation latency (s)


def shard_context(net: Network, tables: RoutingTables) -> ShardContext:
    """Snapshot the routed network into a :class:`ShardContext`."""
    u, v, lat, bw = net.link_endpoint_arrays()
    pair_keys, pair_lids = tables._lookup_arrays()
    return ShardContext(
        n_nodes=net.n_nodes,
        n_links=net.n_links,
        next_hop=tables.next_hop,
        pair_keys=np.asarray(pair_keys, dtype=np.int64),
        pair_lids=np.asarray(pair_lids, dtype=np.int64),
        link_u=np.asarray(u, dtype=np.int64),
        link_bw=np.asarray(bw, dtype=np.float64),
        link_lat=np.asarray(lat, dtype=np.float64),
    )


@dataclass
class ShardResult:
    """Outcome of one segment on one shard.

    ``next``/``span`` are full-segment columns (next hop or
    :data:`~repro.engine.trace.DELIVERED`; serialization span or 0);
    ``succ_pos`` are the segment positions (ascending) of forwards and
    ``succ_time`` their successor arrival times.  The integer fields are
    counter deltas for :class:`~repro.engine.perf.KernelStats`.
    """

    next: np.ndarray
    span: np.ndarray
    succ_pos: np.ndarray
    succ_time: np.ndarray
    packets_delivered: int
    transfers_delivered: int
    trains_forwarded: int
    vector_events: int
    python_loop_events: int


_EMPTY_I = np.zeros(0, dtype=np.int64)
_EMPTY_F = np.zeros(0, dtype=np.float64)

#: Below this many active FIFO groups, the round-vectorized recurrence
#: replay falls back to the scalar loop (numpy call overhead dominates).
_ROUND_MIN_GROUPS = 8


class LPShard:
    """Busy-time state + per-link accounting for the whole network.

    Each event transmits on the (link, direction) channel whose sending
    endpoint is the event's node, so the per-channel FIFO recurrence is
    local to that node's events.
    """

    def __init__(self, ctx: ShardContext) -> None:
        self.ctx = ctx
        m = ctx.n_links
        # Per-link, per-direction busy-until times (FIFO transmission).
        self.busy = np.zeros((m, 2), dtype=np.float64)
        self.link_packets = np.zeros(m, dtype=np.float64)
        self.link_bytes = np.zeros(m, dtype=np.float64)
        self.link_busy_s = np.zeros(m, dtype=np.float64)
        self.link_max_backlog_s = np.zeros(m, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def _link_ids(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized adjacent-pair -> link id (mirrors
        ``RoutingTables.link_ids_of`` over the snapshot arrays)."""
        keys_s = self.ctx.pair_keys
        keys = us * self.ctx.n_nodes + vs
        if keys_s.size == 0:
            raise ValueError(
                f"nodes {int(us[0])} and {int(vs[0])} are not adjacent"
            )
        pos = keys_s.searchsorted(keys)
        bad = keys_s.take(pos, mode="clip") != keys
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"nodes {int(us[i])} and {int(vs[i])} are not adjacent"
            )
        return self.ctx.pair_lids[pos]

    def process(
        self,
        time: np.ndarray,
        node: np.ndarray,
        dst: np.ndarray,
        count: np.ndarray,
        nbytes: np.ndarray,
        last: np.ndarray,
    ) -> ShardResult:
        """Execute one segment of (time, seq)-ordered train events.

        Deliveries and singleton FIFO groups go through the vector path;
        FIFO groups with several events in the segment replay the
        float-order-sensitive busy-time recurrence round-by-round across
        groups (:meth:`_process_fifo_groups`), falling back to a scalar
        loop only for the last few stragglers.
        """
        n = len(time)
        next_col = np.full(n, DELIVERED, dtype=np.int64)
        span_col = np.zeros(n, dtype=np.float64)

        deliver = node == dst
        pkts = int(count[deliver].sum()) if deliver.any() else 0
        tdel = int((deliver & last).sum())
        n_deliver = int(deliver.sum())

        f = np.nonzero(~deliver)[0]
        if len(f) == 0:
            return ShardResult(
                next_col, span_col, _EMPTY_I, _EMPTY_F,
                pkts, tdel, 0, n_deliver, 0,
            )

        fnode = node[f]
        ftime = time[f]
        nxt = self.ctx.next_hop[fnode, dst[f]].astype(np.int64)
        if (nxt < 0).any():
            i = int(np.argmax(nxt < 0))
            raise RuntimeError(
                f"no route from {int(fnode[i])} to {int(dst[f][i])}"
            )
        lids = self._link_ids(fnode, nxt)
        dirs = (fnode != self.ctx.link_u[lids]).astype(np.int64)
        tx = nbytes[f] * 8.0 / self.ctx.link_bw[lids]
        key = lids * 2 + dirs

        depart = np.empty(len(f), dtype=np.float64)
        backlog = np.empty(len(f), dtype=np.float64)

        # FIFO groups: events sharing a (link, direction) channel within
        # the segment.  Stable sort keeps event order inside each group.
        order = np.argsort(key, kind="stable")
        ks = key[order]
        firsts = np.ones(len(ks), dtype=bool)
        firsts[1:] = ks[1:] != ks[:-1]
        starts = np.nonzero(firsts)[0]
        ends = np.append(starts[1:], len(ks))
        single = (ends - starts) == 1

        busy_flat = self.busy.ravel()  # key indexes this view directly

        sing = order[starts[single]]  # event positions of singleton groups
        if len(sing):
            b0 = busy_flat[key[sing]]
            backlog[sing] = b0 - ftime[sing]
            dep = np.maximum(ftime[sing], b0) + tx[sing]
            depart[sing] = dep
            busy_flat[key[sing]] = dep

        n_multi, n_scalar = self._process_fifo_groups(
            order, ks, starts, ends, single, ftime, tx,
            backlog, depart, busy_flat,
        )

        next_col[f] = nxt
        span_col[f] = tx

        # Accounting in event order (np.add.at applies index-sequentially,
        # so the float sums accumulate exactly as the scalar loop would).
        np.add.at(self.link_packets, lids, count[f])
        np.add.at(self.link_bytes, lids, nbytes[f])
        np.add.at(self.link_busy_s, lids, tx)
        np.maximum.at(self.link_max_backlog_s, lids, backlog)

        return ShardResult(
            next=next_col,
            span=span_col,
            succ_pos=f,
            succ_time=depart + self.ctx.link_lat[lids],
            packets_delivered=pkts,
            transfers_delivered=tdel,
            trains_forwarded=len(f),
            vector_events=n_deliver + int(single.sum()) + n_multi - n_scalar,
            python_loop_events=n_scalar,
        )

    def _process_fifo_groups(
        self,
        order: np.ndarray,
        ks: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        single: np.ndarray,
        ftime: np.ndarray,
        tx: np.ndarray,
        backlog: np.ndarray,
        depart: np.ndarray,
        busy_flat: np.ndarray,
    ) -> tuple[int, int]:
        """Replay the FIFO recurrence for groups with several events.

        ``busy = max(t, busy) + tx`` per event is a float-order-
        sensitive scan, so it cannot be prefix-summed — but it *can* run
        one round at a time across groups: round ``r`` executes the
        ``r``-th event of every still-active group with elementwise numpy
        ops, which performs each group's operations in exactly the scalar
        order (``np.maximum``/``+``/``np.where`` are elementwise IEEE ops,
        so every group's busy-time sequence is bit-identical to the scalar
        replay).  Once few groups remain active, per-round numpy overhead
        loses to plain python and the tail falls back to the scalar loop.

        Returns ``(multi-group events total, events run in the scalar
        tail)`` for the :class:`~repro.engine.perf.KernelStats` split.
        """
        multi = np.nonzero(~single)[0]
        if len(multi) == 0:
            return 0, 0
        starts_m = starts[multi]
        sizes_m = ends[multi] - starts_m
        n_multi = int(sizes_m.sum())
        gkeys = ks[starts_m]
        busy_g = busy_flat[gkeys]  # fancy index: a private copy
        n_scalar = 0
        r = 0
        active = np.arange(len(multi))
        while len(active):
            if len(active) < _ROUND_MIN_GROUPS:
                for gi in active.tolist():
                    busy = float(busy_g[gi])
                    idxs = order[starts_m[gi] + r:starts_m[gi] + sizes_m[gi]]
                    n_scalar += len(idxs)
                    tl = ftime[idxs].tolist()
                    txl = tx[idxs].tolist()
                    for j, t, txj in zip(idxs.tolist(), tl, txl):
                        backlog[j] = busy - t
                        d = max(t, busy) + txj
                        depart[j] = d
                        busy = d
                    busy_g[gi] = busy
                break
            j = order[starts_m[active] + r]
            tj = ftime[j]
            bg = busy_g[active]
            backlog[j] = bg - tj
            d = np.maximum(tj, bg) + tx[j]
            depart[j] = d
            busy_g[active] = d
            r += 1
            active = active[sizes_m[active] > r]
        busy_flat[gkeys] = busy_g
        return n_multi, n_scalar


def _partition_ids(parts, n_nodes: int) -> np.ndarray:
    """``parts`` as a private ``int64[n_nodes]`` copy, refusing entries
    that are not non-negative integers (a float like 0.6 would otherwise
    truncate silently to 0)."""
    raw = np.asarray(parts)
    if raw.dtype.kind not in "biu":
        try:
            values = raw.astype(np.float64)
        except (TypeError, ValueError):
            raise ValueError(
                f"parts must hold integer partition ids; got dtype "
                f"{raw.dtype}"
            ) from None
        bad = ~(np.isfinite(values) & (values == np.floor(values)))
        if bad.any():
            i = int(np.argmax(bad.ravel()))
            raise ValueError(
                f"parts must hold integer partition ids; entry {i} is "
                f"{values.ravel()[i]!r}"
            )
    ids = raw.astype(np.int64)  # astype always copies
    if ids.shape != (n_nodes,):
        raise ValueError(
            f"parts must assign every node a partition: expected shape "
            f"({n_nodes},), got {ids.shape}"
        )
    if len(ids) and ids.min() < 0:
        raise ValueError("partition ids must be non-negative")
    return ids


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
        self._parts = _partition_ids(parts, net.n_nodes)
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
