"""Logical processes: sharded event execution for the batched kernels.

Two layers live here:

- :class:`LPShard` — the numeric core of batched event processing.  A shard
  owns the FIFO busy-time state and per-link accounting for a subset of
  (link, direction) channels and processes one segment of same-window train
  events at a time, entirely from numpy arrays (no train objects, no
  callbacks).  The sequential :class:`~repro.engine.kernel.EmulationKernel`
  runs ONE shard covering the whole network; the parallel engine runs one
  per partition.
- :class:`ParallelEmulationKernel` — the multi-process LP engine.  The
  network is sharded by a node partition (``parts``); each LP is a forked
  worker process owning every (link, direction) channel whose *sending*
  endpoint it owns (events execute at the sender, so each channel's FIFO
  recurrence stays within one LP).  The parent process remains the
  sequencer: it owns the control heap, delivery hooks, flow ids, the
  transfer log, sequence-number assignment and trace assembly, so the
  produced :class:`~repro.engine.trace.EventTrace` is byte-identical to the
  sequential engine's.  Workers exchange segments and results over pipes at
  segment granularity — the conservative-window barrier of the paper's
  MaSSF kernel — and a mid-run routing repair reaches them the same way
  (the ``"ctx"`` command, see :mod:`repro.engine.changes`).

Per-link float accounting is accumulated per shard and summed elementwise
at the end of the run, so with more than one LP those *aggregate* arrays
can differ from the sequential engine's in the last bit (float addition is
not associative); the event trace and the semantic stats remain exact.

The parallel engine refuses a NetFlow collector: collection consumes state
in global arrival order, which no partitioned execution can reproduce —
construct it with one and it refuses, pointing back at
``engine="sequential"``.

**Live migration.**  Because each (link, direction) channel's FIFO
recurrence is self-contained — the only cross-window state is the
channel's busy-until float — a node can change owners *between* windows
without perturbing the run: :meth:`ParallelEmulationKernel.migrate_routers`
serializes the node's outgoing-channel busy times out of the owning LP
(zeroing them there, so end-of-run summation stays exact), installs the
exact float bits into the destination LP, and repoints ``parts``.  Events
already staged in the calendar are routed at dispatch time, so both LPs'
event queues splice automatically and the post-migration
:class:`~repro.engine.trace.EventTrace` is byte-identical to a
single-process run with the same schedule.  Migrations must happen at
window barriers — install them via ``kernel.barrier_hooks`` (see
:mod:`repro.rebalance`).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.engine.eventq import EventBatch
from repro.engine.kernel import EmulationKernel
from repro.engine.sync import group_by_owner
from repro.engine.trace import DELIVERED
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = [
    "LPShard",
    "ShardContext",
    "ShardResult",
    "ParallelEmulationKernel",
    "LPWorkerError",
    "shard_context",
]

#: Fork-inherited state for worker processes (set around Process.start()).
_SHARED: dict | None = None

#: Serialized migration payload per (link, direction) channel: the flat
#: busy key (int64) plus the busy-until time (float64).
CHANNEL_STATE_BYTES = 16


@dataclass(frozen=True)
class ShardContext:
    """Per-run arrays every shard needs (fork-inherited, copy-on-write).

    Fixed after construction except under mid-run link changes, when
    :meth:`~repro.engine.kernel.EmulationKernel.sync_context` overwrites
    ``next_hop`` rows and the pair / link arrays in place at a barrier.
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
    """Busy-time state + per-link accounting for one logical process.

    The shard never sees events it does not own; with k > 1 LPs the caller
    routes each event to the shard owning ``parts[node]``, which by
    construction owns the (link, direction) channel the event transmits on.
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
        pos = np.minimum(np.searchsorted(keys_s, keys), keys_s.size - 1)
        bad = keys_s[pos] != keys
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

    def partials(self) -> tuple[np.ndarray, ...]:
        """The accounting arrays, for end-of-run aggregation."""
        return (self.busy, self.link_packets, self.link_bytes,
                self.link_busy_s, self.link_max_backlog_s)


# --------------------------------------------------------------------- #
# Worker processes
# --------------------------------------------------------------------- #
class LPWorkerError(RuntimeError):
    """An LP worker process died (its pipe broke) mid-run."""

    def __init__(self, lp: int, exitcode: int | None) -> None:
        super().__init__(
            f"LP {lp} worker process died (exit code {exitcode})"
        )
        self.lp = lp
        self.exitcode = exitcode


#: What a pipe to a dead worker raises: ``recv`` sees EOF or a reset,
#: ``send`` a broken pipe.
_PIPE_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError)


def _worker_main(conn) -> None:
    """One LP worker: build a shard from the fork-shared context and serve
    segment requests until told to stop."""
    shard = LPShard(_SHARED["ctx"])
    while True:
        try:
            cmd, payload = conn.recv()
        except EOFError:
            break
        if cmd == "stop":
            break
        try:
            if cmd == "seg":
                conn.send(("ok", shard.process(*payload)))
            elif cmd == "stats":
                conn.send(("ok", shard.partials()))
            elif cmd == "xfer_out":
                # Migration: hand the flat busy keys' exact float state to
                # the parent and zero them here (the channel has exactly
                # one owner at any barrier; stale values would corrupt the
                # end-of-run busy summation).
                flat = shard.busy.reshape(-1)
                values = flat[payload].copy()
                flat[payload] = 0.0
                conn.send(("ok", values))
            elif cmd == "xfer_in":
                keys, values = payload
                shard.busy.reshape(-1)[keys] = values
                conn.send(("ok", None))
            elif cmd == "ctx":
                # Mid-run routing repair: the fork-inherited context is
                # copy-on-write, hence private — overwrite it in place.
                rows, next_hop_rows, link_arrays = payload
                shard.ctx.next_hop[rows] = next_hop_rows
                for name, values in link_arrays.items():
                    getattr(shard.ctx, name)[...] = values
                conn.send(("ok", None))
            else:
                conn.send(("err", ValueError(f"unknown command {cmd!r}")))
        except Exception as exc:  # propagate to the parent verbatim
            conn.send(("err", exc))
    conn.close()


class ParallelEmulationKernel(EmulationKernel):
    """Multi-process LP engine: same trace, sharded execution.

    Parameters (beyond :class:`~repro.engine.kernel.EmulationKernel`'s
    keyword options)
    ----------
    parts:
        ``int[n_nodes]`` partition ids — one LP per partition.  Each LP
        owns the events executing at its nodes and the (link, direction)
        channels those events transmit on.
    processes:
        True forks one worker per LP (requires the ``fork`` start method;
        falls back to in-process shards where unavailable).  False keeps
        every shard in-process — same code path, same results, no IPC —
        which is what the determinism tests exercise.
    """

    def __init__(
        self,
        net: Network,
        tables: RoutingTables,
        *,
        parts,
        processes: bool = True,
        **options,
    ) -> None:
        super().__init__(net, tables, **options)
        if self._ordered:
            raise ValueError(
                f"ParallelEmulationKernel cannot honour "
                f"collector={type(self.collector).__name__}: NetFlow "
                f"collection consumes state in global arrival order, which "
                f"partitioned execution cannot reproduce; drop the option "
                f"or use engine='sequential'"
            )
        # Private copy: live migration rewrites partition ids in place and
        # must never mutate the caller's array.
        parts = np.asarray(parts, dtype=np.int64).copy()
        if parts.shape != (net.n_nodes,):
            raise ValueError(
                f"parts must assign every node a partition: expected shape "
                f"({net.n_nodes},), got {parts.shape}"
            )
        if len(parts) and parts.min() < 0:
            raise ValueError("partition ids must be non-negative")
        self._parts = parts
        self.n_lps = int(parts.max()) + 1 if len(parts) else 1
        #: Train events dispatched to each LP (imbalance reporting).
        self.lp_events = np.zeros(self.n_lps, dtype=np.int64)
        #: Attached :class:`repro.rebalance.OnlineRebalancer` (or None).
        self.rebalancer = None
        # Migration accounting (perf-guard observability: serialization
        # happens only for migrated routers, no-ops move nothing).
        self.migrations_applied = 0
        self.routers_migrated = 0
        self.channels_migrated = 0
        self.migration_bytes = 0
        self.migration_noops = 0
        self._chan_xadj: np.ndarray | None = None
        self._chan_keys: np.ndarray | None = None
        self._procs: list | None = None
        self._conns: list | None = None
        self._shards: list[LPShard] | None = None
        if processes:
            self._start_pool()
        if self._conns is None:
            self._shards = [LPShard(self._ctx) for _ in range(self.n_lps)]

    # ------------------------------------------------------------------ #
    def _start_pool(self) -> None:
        global _SHARED
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:
            return  # no fork on this platform: stay in-process
        _SHARED = {"ctx": self._ctx}
        conns, procs = [], []
        try:
            for _ in range(self.n_lps):
                parent, child = mp.Pipe()
                proc = mp.Process(
                    target=_worker_main, args=(child,), daemon=True
                )
                proc.start()
                child.close()
                conns.append(parent)
                procs.append(proc)
        finally:
            _SHARED = None
        self._conns = conns
        self._procs = procs

    def _worker_died(self, lp: int) -> LPWorkerError:
        proc = self._procs[lp]
        proc.join(timeout=1)  # the pipe breaks before the exit status lands
        return LPWorkerError(lp, proc.exitcode)

    def _send(self, lp: int, message: tuple) -> None:
        try:
            self._conns[lp].send(message)
        except _PIPE_ERRORS:
            raise self._worker_died(lp) from None

    def _recv(self, lp: int):
        try:
            status, payload = self._conns[lp].recv()
        except _PIPE_ERRORS:
            raise self._worker_died(lp) from None
        if status == "err":
            raise payload
        return payload

    def sync_context(self, touched: np.ndarray) -> None:
        """Also ship the repaired rows and link arrays to every forked
        worker over its pipe and wait for the acks (in-process shards
        read the parent's context object, which ``super()`` refreshed).
        """
        super().sync_context(touched)
        if self._conns is None:
            return
        ctx = self._ctx
        message = ("ctx", (touched, ctx.next_hop[touched], {
            name: getattr(ctx, name)
            for name in ("pair_keys", "pair_lids", "link_bw", "link_lat")
        }))
        for lp in range(self.n_lps):
            self._send(lp, message)
        for lp in range(self.n_lps):
            self._recv(lp)

    # ------------------------------------------------------------------ #
    def _process_segment(self, seg: EventBatch):
        owners = self._parts[seg.node]
        groups = group_by_owner(owners, self.n_lps)
        n = len(seg)
        next_col = np.empty(n, dtype=np.int64)
        span_col = np.zeros(n, dtype=np.float64)
        if self._conns is not None:
            for owner, positions in groups:
                self._send(owner, ("seg", (
                    seg.time[positions], seg.node[positions],
                    seg.dst[positions], seg.count[positions],
                    seg.nbytes[positions], seg.last[positions],
                )))
            results = [self._recv(owner) for owner, _ in groups]
        else:
            results = [
                self._shards[owner].process(
                    seg.time[positions], seg.node[positions],
                    seg.dst[positions], seg.count[positions],
                    seg.nbytes[positions], seg.last[positions],
                )
                for owner, positions in groups
            ]
        sp_parts: list[np.ndarray] = []
        st_parts: list[np.ndarray] = []
        for (owner, positions), res in zip(groups, results):
            self._absorb(res)
            self.lp_events[owner] += len(positions)
            next_col[positions] = res.next
            span_col[positions] = res.span
            if len(res.succ_pos):
                sp_parts.append(positions[res.succ_pos])
                st_parts.append(res.succ_time)
        if not sp_parts:
            return next_col, span_col, _EMPTY_I, _EMPTY_F
        gp = np.concatenate(sp_parts)
        gt = np.concatenate(st_parts)
        # Successor seqs are assigned in event order across the whole
        # segment, exactly as the sequential engine numbers them.
        order = np.argsort(gp, kind="stable")
        return next_col, span_col, gp[order], gt[order]

    # ------------------------------------------------------------------ #
    # Live migration
    # ------------------------------------------------------------------ #
    def _channel_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR of flat busy keys (``2 * link + direction``) per owning node.

        Node ``v`` owns, for every incident link ``l``, the direction it
        *sends* on: ``0`` when ``v == link_u[l]``, else ``1`` — exactly the
        keys :meth:`LPShard.process` writes for events executing at ``v``.
        """
        if self._chan_xadj is None:
            u, v, _, _ = self.net.link_endpoint_arrays()
            m = self._ctx.n_links
            owner = np.concatenate((u, v)).astype(np.int64)
            lid = np.arange(m, dtype=np.int64)
            keys = np.concatenate((lid * 2, lid * 2 + 1))
            order = np.argsort(owner, kind="stable")
            counts = np.bincount(owner, minlength=self.net.n_nodes)
            xadj = np.zeros(self.net.n_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=xadj[1:])
            self._chan_xadj = xadj
            self._chan_keys = keys[order]
        return self._chan_xadj, self._chan_keys

    def _extract_channels(self, lp: int, keys: np.ndarray) -> np.ndarray:
        """Pull the exact busy floats for ``keys`` out of ``lp``, zeroing
        them there (a channel is non-zero in exactly one shard, which is
        what keeps :meth:`_finalize_run`'s summation exact)."""
        if self._conns is not None:
            self._send(lp, ("xfer_out", keys))
            return self._recv(lp)
        flat = self._shards[lp].busy.reshape(-1)
        values = flat[keys].copy()
        flat[keys] = 0.0
        return values

    def _install_channels(
        self, lp: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        if self._conns is not None:
            self._send(lp, ("xfer_in", (keys, values)))
            self._recv(lp)
        else:
            self._shards[lp].busy.reshape(-1)[keys] = values

    def migrate_routers(self, routers, dests) -> int:
        """Reassign ``routers`` to the LPs named in ``dests``, live.

        Must be called at a conservative-window barrier (between windows —
        e.g. from ``kernel.barrier_hooks``): no segment is in flight there
        and all staged successors are already in the calendar, so moving a
        node's outgoing-channel FIFO state and repointing ``parts`` is the
        *complete* ownership transfer.  The busy-until floats carry over
        bit-exactly, so the remainder of the run — and hence the
        :class:`~repro.engine.trace.EventTrace` — is byte-identical to a
        run that never migrated.

        Entries whose destination equals the current owner are no-ops:
        counted (``migration_noops``) but nothing is serialized.  Returns
        the serialized payload size in bytes.
        """
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
        sources = self._parts[routers]
        moving = sources != dests
        self.migration_noops += int((~moving).sum())
        if not moving.any():
            return 0
        xadj, ckeys = self._channel_index()
        # Group movers by (source LP, destination LP) so each pair costs
        # one extract + one install round-trip.
        lanes: dict[tuple[int, int], list[int]] = {}
        for r, s, d in zip(
            routers[moving].tolist(), sources[moving].tolist(),
            dests[moving].tolist(),
        ):
            lanes.setdefault((s, d), []).append(r)
        payload = 0
        for (src_lp, dst_lp) in sorted(lanes):
            nodes = lanes[(src_lp, dst_lp)]
            keys = np.concatenate(
                [ckeys[xadj[r]:xadj[r + 1]] for r in nodes]
            )
            if len(keys):
                values = self._extract_channels(src_lp, keys)
                self._install_channels(dst_lp, keys, values)
            self.channels_migrated += len(keys)
            payload += len(keys) * CHANNEL_STATE_BYTES
        self._parts[routers] = dests
        self.migrations_applied += 1
        self.routers_migrated += int(moving.sum())
        self.migration_bytes += payload
        return payload

    def _finalize_run(self) -> None:
        """Sum per-shard accounting into the kernel's public arrays.

        Elementwise sums over k shards: exact for packets/bytes (each
        (link, direction) is owned by exactly one LP), bit-equal to
        sequential for everything except cross-direction float addition
        order on links whose two directions live in different LPs.
        """
        if self.rebalancer is not None:
            self.rebalancer.finalize()
        if self._conns is not None:
            for lp in range(self.n_lps):
                self._send(lp, ("stats", None))
            partials = [self._recv(i) for i in range(self.n_lps)]
        else:
            partials = [shard.partials() for shard in self._shards]
        self._busy[:] = 0.0
        self.link_packets[:] = 0.0
        self.link_bytes[:] = 0.0
        self.link_busy_s[:] = 0.0
        self.link_max_backlog_s[:] = 0.0
        for busy, pkts, nbytes, busy_s, max_backlog in partials:
            self._busy += busy
            self.link_packets += pkts
            self.link_bytes += nbytes
            self.link_busy_s += busy_s
            np.maximum(self.link_max_backlog_s, max_backlog,
                       out=self.link_max_backlog_s)

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the worker pool (idempotent; in-process mode is a no-op)."""
        if self._conns is None:
            return
        for conn in self._conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
        self._conns = None
        self._procs = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass
