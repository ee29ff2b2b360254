"""The batched discrete-event emulation kernel.

Simulates the virtual network in virtual time: packet trains traverse
unbounded store-and-forward FIFO links (no train is ever dropped) with
per-direction transmission queueing and propagation delay; routers forward
via the routing tables; hosts deliver and fire closed-loop callbacks.
Every executed event is recorded into an
:class:`~repro.engine.trace.EventTrace` (one row per train-at-node, packet
counts preserved), which downstream code scores under any partition.

Injection is batched into a struct-of-arrays calendar
(:class:`~repro.engine.eventq.BatchEventQueue`); only delivery hooks reach a
python object (``_hooked`` holds each hooked :class:`Transfer` once).
:meth:`EmulationKernel.run` then picks one of two drains per run by density:

- the **window drain** pops whole conservative lookahead windows
  (:func:`~repro.engine.sync.conservative_window`, the minimum link latency)
  and processes them as sorted numpy arrays.  It takes dense runs: at
  least :data:`_PER_EVENT_DENSITY` train rows due by the horizon per
  window, counted at the start of the run (traffic generated mid-run
  counts as zero).  A window inside the horizon with no control entry
  ordered before its last row and no delivery of a hooked transfer's last
  train is one segment, dispatched whole in one call; only the other
  windows run the segment loop, which cuts a segment at every control
  entry and hooked delivery;
- the **per-event drain** runs one ``heapq`` of ``(time, seq, ...)`` tuples
  (the calendar's rows beside the control entries) through the reference
  kernel's ``_arrive``.  It takes sparse runs and order-coupled ones (a
  NetFlow collector, whose collection order is part of its contract).

Both fire ``barrier_hooks`` at the same points of the event stream with
the same ``now`` — between windows, or where a window would have ended —
so link changes, forced migrations and the rebalancer run under either.

Under either drain the traces are **bit-identical** to the reference heap
kernel's (:class:`repro.engine._reference.ReferenceKernel`, the parity
oracle): same :class:`~repro.engine.trace.EventTrace` bytes, same semantic
:class:`~repro.engine.perf.KernelStats`, same per-link accounting arrays.
The per-event drain is the oracle's order by construction; for the window
drain three facts make it work:

- rows enter the recorder in execution order and ``finish()`` sorts stably
  by time, so equal-time rows keep pop order;
- successor events of one vectorized segment are pushed in segment order
  with consecutive sequence numbers — exactly the values the reference's
  pop/push interleave would have assigned (deliveries push nothing, each
  forward pushes exactly one successor);
- the per-(link, direction) busy-time recurrence ``depart = max(t, busy) +
  tx`` is float-order-sensitive, so each channel's events run in event
  order: one round at a time across channels with elementwise ops
  (``np.maximum`` is bit-identical to scalar ``max``), the rounds left
  when few channels remain as a scalar loop (:func:`_replay_fifo`).

One theoretical caveat: window bucketing relies on ``t + tx + latency``
not rounding below ``t + latency``'s window; since ``tx`` is at least tens
of picoseconds and the rounding margin is ~2 ulp, this holds for any
realistic horizon, and even a straggler only lands in an already-drained
bucket *after* every event that must precede it (the parity suite enforces
the ordering empirically).

The kernel deliberately knows nothing about partitions or wall-clock cost —
see :mod:`repro.engine.parallel` for the analytic model and
:mod:`repro.engine.lp` for the partition view built on top of this class.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from typing import Callable

import numpy as np

from repro.engine.eventq import EventBatch, merge_newer
from repro.engine.packet import MTU_BYTES, Transfer, reset_flow_ids
from repro.engine.perf import KernelStats
from repro.engine.sync import conservative_window, cut_before, first_true
from repro.engine.trace import DELIVERED, EventTrace, TraceRecorder
from repro.routing.tables import RoutingTables
from repro.topology.network import Network

__all__ = ["EmulationKernel", "KernelStats", "run_kernel"]

#: Transfer sizes must stay below this (and be finite): up to 2**53 every
#: byte count is an exact float64 integer, which the vectorized train
#: split in :meth:`EmulationKernel.submit_transfers` relies on.
_MAX_NBYTES = 2.0 ** 53

#: Train rows due per conservative window below which a run drains per
#: event (measured crossover, DESIGN.md §6 "Two drains").
_PER_EVENT_DENSITY = 3.0


class EmulationKernel:
    """One emulation run over a routed network (batched sequential engine).

    Parameters
    ----------
    net, tables:
        The virtual network and its routing tables.
    train_packets:
        Packets per train (fidelity knob; 1 = per-packet simulation).
    collector:
        Optional NetFlow-like collector with a ``record(time, router,
        out_link, src, dst, flow, count, nbytes)`` method, invoked at every
        router hop (see :mod:`repro.profiling.netflow`).  Forces the
        per-event drain (collection order is part of its contract).
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`; :meth:`run`
        records a ``kernel/run`` span and a ``kernel/run`` event row (the
        drain that ran and the density it was chosen on) plus aggregate
        event / packet counters and a backlog gauge.  Nothing is
        recorded per event — the hot loop stays untouched.

    All options are keyword-only.
    """

    def __init__(
        self,
        net: Network,
        tables: RoutingTables,
        *,
        train_packets: int = 32,
        collector=None,
        telemetry=None,
    ) -> None:
        from repro.obs.telemetry import ensure_telemetry

        if tables.net is not net:
            raise ValueError("routing tables were built for another network")
        self.net = net
        self.tables = tables
        self.train_packets = int(train_packets)
        if self.train_packets < 1:
            raise ValueError("train_packets must be >= 1")
        self.collector = collector
        self.telemetry = ensure_telemetry(telemetry)
        # A collector couples the run to event order: per-event drain.
        self._ordered = collector is not None

        from repro.engine.eventq import BatchEventQueue

        self.window_s = conservative_window(net)
        self.calendar = BatchEventQueue(self.window_s)
        # (time, seq, callback, args) heap; the per-event drain adds trains.
        self._ctrl: list[tuple] = []
        self._seq = 0
        self._events = 0
        # Transfers submitted with a delivery hook, one entry each (indexed
        # by the calendar's ``train`` column, -1 elsewhere); read by
        # _run_hook.
        self._hooked: list[Transfer] = []
        # flow id -> source host, filled at submission only when a
        # collector is attached (the one NetFlow field that is not a
        # calendar column).
        self._flow_src: dict[int, int] = {}
        # Successor batches produced while draining the current window,
        # pushed to the calendar in one batch per window (_flush_staged).
        self._staged: list[EventBatch] = []

        #: Callbacks ``hook(now)`` run at every conservative-window barrier
        #: (after the window's successors are flushed, before the next
        #: bucket pops) — the only points where cross-window state such as
        #: routing or the partition view's LP assignment may change
        #: mid-run.  The online rebalancer (:mod:`repro.rebalance`), forced
        #: migration schedules and mid-run link changes install themselves
        #: here.  Both drains call them at the same barriers; the
        #: per-event drain publishes the per-link accounting arrays only
        #: when the run ends.
        self.barrier_hooks: list[Callable[[float], None]] = []
        # The per-event drain's route cache (sync_context empties it).
        self._routes: dict[tuple[int, int], tuple] = {}

        self.recorder = TraceRecorder(net.n_nodes)
        self.stats = KernelStats()
        # (time, src, dst, nbytes, flow_id, tag) per submitted transfer —
        # the "network traffic trace" MaSSF records for replay.
        self.transfer_log: list[tuple[float, int, int, float, int, str]] = []
        self.now = 0.0
        self._end_time: float = float("inf")

        m = net.n_links
        # Per-link, per-direction busy-until times (FIFO transmission).
        self._busy = np.zeros((m, 2), dtype=np.float64)
        # Per-link accounting: packets carried, bytes carried, busy seconds,
        # worst backlog seen (both directions summed / maxed).
        self.link_packets = np.zeros(m, dtype=np.float64)
        self.link_bytes = np.zeros(m, dtype=np.float64)
        self.link_busy_s = np.zeros(m, dtype=np.float64)
        self.link_max_backlog_s = np.zeros(m, dtype=np.float64)
        # Injection (``link_ids_of``) and the window drain
        # (``pair_channels``) read the pair lookup live; build it now
        # rather than in the first call.
        tables._lookup_arrays()
        self._is_router = np.array(
            [node.is_router for node in net.nodes], dtype=bool
        )
        self._pace_chains()

    # ------------------------------------------------------------------ #
    # Scheduling API (used by traffic generators)
    # ------------------------------------------------------------------ #
    def _next_seq(self) -> int:
        s = self._seq
        self._seq = s + 1
        return s

    def schedule(self, time: float, callback: Callable, *args) -> None:
        """Run ``callback(kernel, time, *args)`` at virtual ``time`` (not
        before :attr:`now`: virtual time never runs backwards)."""
        if not 0 <= time < math.inf:
            raise ValueError(
                f"cannot schedule a callback at time={time!r}: times must "
                f"be finite and not before time 0"
            )
        if time < self.now:
            raise ValueError(
                f"cannot schedule a callback at time={time!r}: virtual time "
                f"is already now={self.now!r}, and a callback may not run "
                f"in the past"
            )
        heapq.heappush(self._ctrl, (time, self._next_seq(), callback, args))

    def submit_transfer(self, transfer: Transfer, time: float) -> None:
        """Inject a transfer at its source host at virtual ``time``.

        The source paces trains at its access-link rate (the first link on
        the path), mirroring a host NIC draining a socket buffer.  The
        injection itself is recorded as one kernel event (the paper counts
        "requests coming from the application" as live-injection overhead).
        """
        self.submit_transfers((transfer,), time)

    def _rejection(self, transfer: Transfer, time: float) -> ValueError:
        """The error for a row that failed validation (checks in
        submission order: bytes, endpoints, time, route)."""
        if transfer.nbytes <= 0:
            return ValueError(
                f"transfer {transfer.src} -> {transfer.dst} carries "
                f"nbytes={transfer.nbytes!r}; a transfer must carry at "
                f"least one byte (was the Transfer mutated after "
                f"construction?)"
            )
        if not transfer.nbytes < _MAX_NBYTES:
            return ValueError(
                f"transfer {transfer.src} -> {transfer.dst} carries "
                f"nbytes={transfer.nbytes!r}; sizes must be finite and "
                f"below 2**53 bytes (the exact-integer range of float64 "
                f"the train split relies on)"
            )
        if transfer.src == transfer.dst:
            return ValueError(
                f"transfer src == dst == {transfer.src}; a transfer must "
                f"cross the network — pick two distinct hosts"
            )
        if not math.isfinite(time):
            return ValueError(
                f"transfer {transfer.src} -> {transfer.dst} submitted at "
                f"time={time!r}; submission times must be finite"
            )
        if time < self.now:
            return ValueError("cannot submit a transfer in the past")
        # The reference kernel counts a submission before it looks up the
        # route; stats parity keeps that.
        self.stats.transfers_submitted += 1
        return ValueError(f"no route {transfer.src} -> {transfer.dst}")

    def submit_transfers(self, transfers, times) -> None:
        """Inject many transfers in one vectorized pass and one calendar
        push — the only injection body; :meth:`submit_transfer` is the
        one-row call.

        Observationally the reference kernel's ``for tr, t in
        zip(transfers, times): submit_transfer(tr, t)``: same trace rows,
        same sequence numbers, same transfer log.  ``times`` is a scalar or
        one timestamp per transfer.  On the first invalid row ``i`` the
        rows before it are injected and the error raised for row ``i``, so
        partial effects before an error match the loop's too.

        A call costs a fixed few dozen numpy calls (plus a cumsum when a
        rate's pacing chain must grow), python list passes over the
        transfers and numpy work over the trains — no loop over train
        rounds (DESIGN.md §6 "Injection").
        """
        transfers = list(transfers)
        n = len(transfers)
        t_arr = np.array(times, dtype=np.float64)  # the trace keeps it
        if t_arr.ndim and t_arr.shape != (n,):
            raise ValueError(
                f"times has {t_arr.size} entries (shape {t_arr.shape}) for "
                f"{n} transfers; pass one time per transfer or a scalar"
            )
        if n == 0:
            return
        if t_arr.ndim:
            t_lo, t_hi = t_arr.min(), t_arr.max()
        else:
            t_lo = t_hi = float(t_arr)
            t_arr = t_arr.repeat(n)
        # Rows node, dst, flow and hook index (into ``_hooked``; -1 for a
        # transfer without ``on_delivery``): every train repeats its
        # transfer's column.
        hooks = [tr.on_delivery for tr in transfers]
        ids = itertools.count(len(self._hooked))
        cols = np.array((
            [tr.src for tr in transfers],
            [tr.dst for tr in transfers],
            [tr.flow_id for tr in transfers],
            [-1 if h is None else next(ids) for h in hooks],
        ), dtype=np.int64)
        src, dst = cols[0], cols[1]
        nb_l = [tr.nbytes for tr in transfers]
        nbf = np.array(nb_l, dtype=np.float64)
        hop = self.tables.next_hop[src, dst]
        # One reduction per column (nan fails every comparison); the
        # diagonal of ``next_hop`` is -1, so ``hop >= 0`` also rejects
        # ``src == dst``.  The row mask is built only to name the culprit.
        if not (self.now <= t_lo and t_hi < math.inf and nbf.min() > 0
                and nbf.max() < _MAX_NBYTES and hop.min() >= 0):
            bad = ~((nbf > 0) & (nbf < _MAX_NBYTES) & (hop >= 0)
                    & (t_arr >= self.now) & (t_arr < math.inf))
            i = int(np.argmax(bad))
            self.submit_transfers(transfers[:i], t_arr[:i])
            raise self._rejection(transfers[i], float(t_arr[i]))
        self.stats.transfers_submitted += n
        src_l, dst_l, flow_l, _ = cols.tolist()
        self.transfer_log.extend(zip(
            t_arr.tolist(), src_l, dst_l, nb_l, flow_l,
            [tr.tag for tr in transfers],
        ))
        if self.collector is not None:
            self._flow_src.update(zip(flow_l, src_l))
        self.recorder.record_injections(t_arr, src, cols[2])
        # Hooked transfers are remembered once each (their trains carry
        # the index assigned above).
        self._hooked += [tr for tr, h in zip(transfers, hooks)
                         if h is not None]
        # The reference kernel's train split, vectorized: packet counts
        # come from the truncated size (``Transfer.n_packets``), full
        # trains carry ``train_packets * MTU`` bytes, and the last train
        # carries what is left of the *float* size.  One float64
        # subtraction reproduces the reference's repeated one bit-for-bit:
        # below 2**53 every subtrahend is an integer multiple of the
        # minuend's ulp and the result is smaller in magnitude, so each
        # step is exact.
        tp = self.train_packets
        total = np.maximum((nbf.astype(np.int64) + (MTU_BYTES - 1))
                           // MTU_BYTES, 1)
        k_arr = (total + (tp - 1)) // tp
        full = (k_arr - 1) * tp  # packets in a transfer's full trains
        ends = k_arr.cumsum()
        first = ends - k_arr
        last = ends - 1
        K = int(ends[-1])
        counts = np.empty(K, dtype=np.int64)
        counts.fill(tp)
        counts[last] = total - full
        tnb = np.empty(K, dtype=np.float64)
        tnb.fill(tp * MTU_BYTES)
        tnb[last] = nbf - full * float(MTU_BYTES)
        is_last = np.zeros(K, dtype=bool)
        is_last[last] = True
        # Source pacing at the access link: train j of a transfer leaves j
        # full-train tx times after its first, summed one at a time as the
        # reference's running offset is — the float chain 0, txf, txf +
        # txf, ... of its access link's rate (see _pace_chains).
        group = self._link_rate[self.tables.link_ids_of(src, hop)]
        if (k_arr > self._chain_len[group]).any():
            self._grow_chains(group, k_arr)
        pos = (self._chain_at[group] - first).repeat(k_arr)
        pos += np.arange(K)
        ev_times = self._chain[pos]
        ev_times += t_arr.repeat(k_arr)
        node, dst_t, flow_t, hook_t = cols.repeat(k_arr, axis=1)
        base = self._seq
        self._seq = base + K
        self.calendar.push_batch(EventBatch(
            time=ev_times,
            seq=np.arange(base, base + K, dtype=np.int64),
            node=node,
            dst=dst_t,
            count=counts,
            nbytes=tnb,
            flow=flow_t,
            last=is_last,
            train=hook_t,
        ))

    def _pace_chains(self) -> None:
        """Reset the source-pacing chains for the current link rates.

        Every transfer whose access link has the same full-train tx time
        ``txf`` is paced by the same float chain 0, txf, txf + txf, ...;
        ``cumsum`` adds strictly left to right, so a chain computed once
        per distinct rate gives every train offset bit for bit, and a
        longer chain extends a shorter one without changing its prefix.
        ``_link_rate`` maps a link to its rate; rate ``g``'s chain is
        ``_chain[_chain_at[g]:][:_chain_len[g]]``, grown on demand.
        """
        bw = self.net.link_endpoint_arrays()[3]
        txf = float(self.train_packets * MTU_BYTES) * 8.0 / bw
        self._rates, self._link_rate = np.unique(txf, return_inverse=True)
        self._chain = np.zeros(0)
        self._chain_at = np.zeros(len(self._rates), dtype=np.int64)
        self._chain_len = np.zeros(len(self._rates), dtype=np.int64)

    def _grow_chains(self, group: np.ndarray, k_arr: np.ndarray) -> None:
        """Lengthen the chain of every rate in ``group`` that is shorter
        than its longest transfer (``k_arr`` trains), at least doubling it
        so a run rebuilds each chain O(log length) times (the superseded
        runs stay in ``_chain``: at most as long again as the live ones)."""
        need = np.zeros(len(self._rates), dtype=np.int64)
        np.maximum.at(need, group, k_arr)
        runs = [self._chain]
        at = len(self._chain)
        for g in np.flatnonzero(need > self._chain_len).tolist():
            k = max(int(need[g]), 2 * int(self._chain_len[g]))
            run = np.empty(k)
            run.fill(self._rates[g])
            run[0] = 0.0
            run.cumsum(out=run)
            runs.append(run)
            self._chain_at[g] = at
            self._chain_len[g] = k
            at += k
        self._chain = np.concatenate(runs)

    # ------------------------------------------------------------------ #
    # Window drain: batched dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: EventBatch, start: int, end: int) -> None:
        """Execute events ``batch[start:end]`` (already in (time, seq)
        order, no control event or delivery hook strictly inside).

        Each forward transmits on the (link, direction) channel whose
        sending endpoint is its node, read live from the routing tables
        and the network's link arrays.  Deliveries and singleton FIFO
        groups take the vector path; FIFO groups with several events in
        the segment replay the float-order-sensitive busy-time recurrence
        round by round across groups (:func:`_replay_fifo`).
        """
        n = end - start
        self._events += n
        seg = batch if n == len(batch) else batch.take(slice(start, end))
        st = self.stats
        deliver = seg.node == seg.dst
        n_deliver = int(np.count_nonzero(deliver))
        if n_deliver:
            st.packets_delivered += int(seg.count[deliver].sum())
            st.transfers_delivered += int(np.count_nonzero(
                deliver & seg.last))
        n_scalar = 0
        if n_deliver == n:
            next_col = np.full(n, DELIVERED, dtype=np.int64)
            span_col = np.zeros(n, dtype=np.float64)
        else:
            f = (~deliver).nonzero()[0] if n_deliver else None
            fwd = seg if f is None else seg.take(f)
            tables = self.tables
            nxt = tables.next_hop[fwd.node, fwd.dst]  # int32
            if nxt.min() < 0:
                i = int(np.argmax(nxt < 0))
                raise RuntimeError(
                    f"no route from {int(fwd.node[i])} to {int(fwd.dst[i])}"
                )
            # Sorting by (node, next hop) groups the forwards by channel
            # (a pair sends on one) and speeds up the channel lookup.
            pairs = fwd.node * self.net.n_nodes + nxt
            order = pairs.argsort(kind="stable")
            ks = tables.pair_channels(pairs[order])
            key = np.empty_like(ks)
            key[order] = ks
            lids = key >> 1
            _, _, link_lat, link_bw = self.net.link_endpoint_arrays()
            tx = fwd.nbytes * 8.0 / link_bw[lids]
            # Channels index the flat (link, direction) busy view directly.
            backlog, depart, n_scalar = _replay_fifo(
                key, order, ks, fwd.time, tx, self._busy.ravel())

            # Accounting in event order (np.add.at applies index-
            # sequentially, so the float sums accumulate exactly as the
            # scalar loop would).
            np.add.at(self.link_packets, lids, fwd.count)
            np.add.at(self.link_bytes, lids, fwd.nbytes)
            np.add.at(self.link_busy_s, lids, tx)
            np.maximum.at(self.link_max_backlog_s, lids, backlog)

            nf = len(lids)
            base = self._seq
            self._seq = base + nf
            # Staged, not pushed: successors always land beyond the window
            # being drained (succ_time > event time + lookahead), so they
            # can be batched into one calendar push per window — see
            # :meth:`_flush_staged`.
            self._staged.append(EventBatch(
                time=depart + link_lat[lids],
                seq=np.arange(base, base + nf, dtype=np.int64),
                node=nxt,
                dst=fwd.dst,
                count=fwd.count,
                nbytes=fwd.nbytes,
                flow=fwd.flow,
                last=fwd.last,
                train=fwd.train,
            ))
            st.trains_forwarded += nf
            if f is None:  # nothing delivered: the forward columns are it
                next_col, span_col = nxt, tx
            else:
                next_col = np.full(n, DELIVERED, dtype=np.int64)
                span_col = np.zeros(n, dtype=np.float64)
                next_col[f] = nxt
                span_col[f] = tx
        st.vector_events += n - n_scalar
        st.python_loop_events += n_scalar
        self.recorder.record_batch(
            seg.time, seg.node, next_col, seg.count, seg.flow, span_col
        )

    # ------------------------------------------------------------------ #
    # Window drain: main loop
    # ------------------------------------------------------------------ #
    def _run_control(self) -> None:
        time, _, callback, args = heapq.heappop(self._ctrl)
        self.now = time
        self.stats.control_events += 1
        self._events += 1
        callback(self, time, *args)

    def _run_hook(self, train: int, time: float) -> None:
        """Fire the delivery hook of hooked transfer ``train``, whose last
        train was just delivered at ``time``."""
        transfer = self._hooked[train]
        hook = transfer.on_delivery
        if hook is not None:
            hook(self, time, transfer)
        self.stats.hook_cuts += 1

    def _merge_into_window(self, bucket: int, batch: EventBatch,
                           pos: int) -> tuple[EventBatch, int, np.ndarray]:
        """Splice freshly injected same-bucket events into the remainder.

        Everything pushed since the bucket was popped carries a larger seq
        than anything in ``batch`` (the sequence counter is monotonic), so
        :func:`~repro.engine.eventq.merge_newer` reproduces the exact
        (time, seq) order a full re-sort would — without re-pushing and
        re-sorting the remainder.  Returns the merged batch, its horizon
        cut, and its hook-cut mask; the caller restarts its scan at 0.
        """
        injected = self.calendar.pop_bucket(bucket)
        merged = merge_newer(batch.take(slice(pos, len(batch))), injected)
        self.stats.window_merges += 1
        h_end = int(np.searchsorted(merged.time, self._end_time,
                                    side="right"))
        return merged, h_end, _hook_cuts(merged)

    def _process_window(self, bucket: int, batch: EventBatch,
                        end: float) -> bool:
        """Drain one popped window; returns False when the horizon ends
        the whole run.

        An uncut window — inside the horizon, no control entry ordered
        before its last row, no hooked last-train delivery in it — is one
        segment, dispatched whole; any other runs the segment loop.
        """
        n = len(batch)
        last = float(batch.time[-1])
        ctrl = self._ctrl
        if (last <= end
                and not (ctrl and ctrl[0][:2] < (last, int(batch.seq[-1])))
                and not (self._hooked and _hook_cuts(batch).any())):
            self._dispatch(batch, 0, n)
            self.now = last
            self.stats.segments += 1
            return True
        h_end = int(np.searchsorted(batch.time, end, side="right"))
        cut_mask = _hook_cuts(batch)
        pos = 0
        while pos < n:
            ctrl_key = (
                (self._ctrl[0][0], self._ctrl[0][1]) if self._ctrl else None
            )
            if ctrl_key is not None and ctrl_key < (
                float(batch.time[pos]), int(batch.seq[pos])
            ):
                if ctrl_key[0] > end:
                    return False
                self._run_control()
                mb = self.calendar.min_bucket()
                if mb is not None and mb < bucket:
                    # The callback injected events into an EARLIER window
                    # (possible when this bucket's predecessors were
                    # empty): hand the remainder back so the outer loop
                    # pops buckets in order.
                    self.calendar.push_batch(batch.take(slice(pos, n)))
                    self.stats.window_merges += 1
                    return True
                if mb == bucket:
                    # The callback injected events into this very window.
                    batch, h_end, cut_mask = self._merge_into_window(
                        bucket, batch, pos
                    )
                    n = len(batch)
                    pos = 0
                continue
            if pos >= h_end:
                return False
            seg_end = h_end if ctrl_key is None else min(
                h_end, cut_before(batch.time, batch.seq, pos, ctrl_key)
            )
            hook_at = first_true(cut_mask, pos, seg_end)
            if hook_at >= 0:
                seg_end = hook_at + 1
            self._dispatch(batch, pos, seg_end)
            self.now = float(batch.time[seg_end - 1])
            self.stats.segments += 1
            pos = seg_end
            if hook_at >= 0:
                self._run_hook(int(batch.train[hook_at]),
                               float(batch.time[hook_at]))
                if pos < n and self.calendar.has_bucket(bucket):
                    batch, h_end, cut_mask = self._merge_into_window(
                        bucket, batch, pos
                    )
                    n = len(batch)
                    pos = 0
        return True

    def _flush_staged(self) -> None:
        """Push the window's staged successor batches in one calendar op.

        Successors land strictly beyond the window that produced them
        (``depart + latency > t + lookahead``), so deferring their push to
        the window boundary changes nothing the drain loop can observe —
        it only collapses per-segment pushes into one, keeping calendar
        buckets coarse-grained.
        """
        if not self._staged:
            return
        staged = self._staged
        self._staged = []
        self.calendar.push_batch(EventBatch.concatenate(staged))

    def _drain_windows(self, end: float) -> None:
        while True:
            bucket = self.calendar.min_bucket()
            if bucket is None:
                # Calendar empty: control events alone drive time forward
                # (each may inject new train events, re-entering the loop).
                if not self._ctrl or self._ctrl[0][0] > end:
                    return
                self._run_control()
                continue
            # Pop first, order later: control events preceding this
            # window's trains are run (and merged) by _process_window,
            # which compares keys event by event.
            batch = self.calendar.pop_bucket(bucket)
            self.stats.windows += 1
            done = not self._process_window(bucket, batch, end)
            self._flush_staged()
            if done:
                return
            if self.barrier_hooks:
                self.stats.barriers += 1
                for hook in self.barrier_hooks:
                    hook(self.now)

    # ------------------------------------------------------------------ #
    # Per-event drain
    # ------------------------------------------------------------------ #
    @staticmethod
    def _heap_rows(batches: list[EventBatch], end: float) -> list[tuple]:
        """``(time, seq, node, dst, count, nbytes, flow, last, train)``
        tuples of the rows due by ``end`` (columns are masked only when
        some row lies beyond it)."""
        rows: list[tuple] = []
        for b in batches:
            cols = b.arrays()
            if b.time.max() > end:
                due = b.time <= end
                cols = [col[due] for col in cols]
            rows.extend(zip(*[col.tolist() for col in cols]))
        return rows

    def _admit(self, new: list[EventBatch]) -> list[tuple]:
        """Heap rows of ``new``, counted per bucket if hooks are attached."""
        for b in new if self.barrier_hooks else ():
            ids, n = np.unique(b.time // self.window_s, return_counts=True)
            for bucket, k in zip(ids.tolist(), n.tolist()):
                self._pending[bucket] = self._pending.get(bucket, 0) + k
        return self._heap_rows(new, self._end_time)

    def _refill(self) -> None:
        """Move the trains a callback submitted to the per-event heap."""
        for row in self._admit(self.calendar.pop_all()):
            heapq.heappush(self._ctrl, row)

    def _barrier(self) -> None:
        self.stats.barriers += 1
        for hook in self.barrier_hooks:
            hook(self.now)
        self._refill()

    def _settle(self, time: float) -> None:
        """A train at ``time`` ran: its bucket's last pending row ends it."""
        bucket = time // self.window_s  # np.floor_divide's, bit for bit
        self._pending[bucket] -= 1
        if not self._pending[bucket]:
            del self._pending[bucket]
            self._barrier()

    def _drain_events(self, batches: list[EventBatch], end: float) -> None:
        """Run every event due by ``end`` through one ``(time, seq)`` heap
        (``_ctrl`` itself, so :meth:`schedule` pushes into it; trains a
        callback submits are moved over from the calendar after it
        returns) with the reference kernel's ``_arrive`` as the body.

        With hooks attached it fires the window drain's barriers from
        ``_pending``, the pending train rows (past-horizon ones too) per
        calendar bucket (DESIGN.md §6 "Two drains"): after a train that
        leaves its bucket empty, before counting what its delivery hook
        submitted, and after a control that submitted below every pending
        bucket.
        """
        heap = self._ctrl
        pop, push = heapq.heappop, heapq.heappush
        rec, st, cal = self.recorder, self.stats, self.calendar
        hop, link_between = self.tables.hop, self.tables.link_between
        collector = self.collector
        hooks, w = self.barrier_hooks, self.window_s
        pending = self._pending = {}
        heap.extend(self._admit(batches))
        heapq.heapify(heap)
        # Per-link state as python rows (busy-until per direction, then the
        # four accounting columns), written back after the drain.
        cols = (self._busy[:, 0], self._busy[:, 1], self.link_packets,
                self.link_bytes, self.link_busy_s, self.link_max_backlog_s)
        links = np.column_stack(cols).tolist()
        # (node, dst) -> (next hop, link id, direction, bandwidth, latency).
        routes = self._routes
        n_ctrl = n_train = 0
        while heap and heap[0][0] <= end:
            ev = pop(heap)
            time = self.now = ev[0]
            if len(ev) == 4:
                n_ctrl += 1
                ev[2](self, time, *ev[3])
                if cal:
                    low = min(pending, default=-math.inf)
                    self._refill()
                    if pending and min(pending) < low:
                        self._barrier()  # the window drain hands it back
                continue
            n_train += 1
            _, _, node, dst, count, nbytes, flow, last, train = ev
            if node == dst:
                rec.record(time, node, DELIVERED, count, flow)
                st.packets_delivered += count
                if last:
                    st.transfers_delivered += 1
                    if train >= 0:
                        self._run_hook(train, time)
                        if hooks:
                            self._settle(time)
                        if cal:
                            self._refill()
                        continue
                if hooks:
                    self._settle(time)
                continue
            route = routes.get((node, dst))
            if route is None:
                nxt = hop(node, dst)
                if nxt < 0:
                    raise RuntimeError(f"no route from {node} to {dst}")
                link = link_between(node, nxt)
                route = routes[node, dst] = (
                    nxt, link.link_id, 0 if node == link.u else 1,
                    link.bandwidth_bps, link.latency_s)
            nxt, lid, direction, bw, lat = route
            row = links[lid]
            backlog = row[direction] - time
            tx = nbytes * 8.0 / bw  # Link.tx_time, bit for bit
            rec.record(time, node, nxt, count, flow, tx)
            st.trains_forwarded += 1
            if collector is not None and self._is_router[node]:
                collector.record(
                    time, node, lid, self._flow_src[flow], dst,
                    flow, count, nbytes,
                )
            depart = row[direction] = max(time, row[direction]) + tx
            row[2] += count
            row[3] += nbytes
            row[4] += tx
            if backlog > row[5]:
                row[5] = backlog
            push(heap, (depart + lat, self._next_seq(),
                        nxt, dst, count, nbytes, flow, last, train))
            if hooks:
                self._settle(time)
                bucket = (depart + lat) // w
                pending[bucket] = pending.get(bucket, 0) + 1
        for col, values in zip(cols, np.reshape(links, (-1, 6)).T):
            col[...] = values
        st.control_events += n_ctrl
        st.python_loop_events += n_train
        self._events += n_ctrl + n_train

    def sync_context(self) -> None:
        """Catch up with a barrier-time routing repair (see
        :mod:`repro.engine.changes`).

        Both drains read the routing tables and the network's link arrays
        live (the repair splices ``next_hop`` in place, and
        ``RoutingTables.refresh_pairs`` / ``Network.set_link`` reset the
        caches behind ``pair_channels`` / ``link_endpoint_arrays``), so only
        state the kernel derives from them is rebuilt: the source-pacing
        chains and the per-event drain's route cache.
        """
        self._pace_chains()
        self._routes.clear()

    def _finalize_run(self) -> None:
        """Post-drain hook (the partition view finalizes its rebalancer)."""

    def run(self, until: float) -> EventTrace:
        """Process events up to virtual time ``until`` and freeze the trace.

        Events scheduled beyond ``until`` are discarded (the emulation has a
        fixed horizon, like the paper's fixed-duration application runs).
        """
        if until <= 0:
            raise ValueError("horizon must be positive")
        end = self._end_time = float(until)
        batches = self.calendar.pop_all()
        due = int(sum(np.count_nonzero(b.time <= end) for b in batches))
        density = due * self.window_s / end  # train rows due per window
        per_event = self._ordered or density < _PER_EVENT_DENSITY
        with self.telemetry.span("kernel/run"):
            if per_event:
                self._drain_events(batches, end)
            else:
                for b in batches:
                    self.calendar.push_batch(b)
                self._drain_windows(end)
        self._finalize_run()
        tel = self.telemetry
        if tel.enabled:
            tel.event("kernel/run", density=density,
                      drain="per_event" if per_event else "windows",
                      barriers=self.stats.barriers)
            tel.count("kernel.events", self._events)
            tel.count("kernel.trains_forwarded", self.stats.trains_forwarded)
            tel.count("kernel.packets_delivered",
                      self.stats.packets_delivered)
            tel.count("kernel.transfers", self.stats.transfers_submitted)
            tel.count("kernel.windows", self.stats.windows)
            tel.count("kernel.barriers", self.stats.barriers)
            tel.count("kernel.segments", self.stats.segments)
            tel.count("kernel.vector_events", self.stats.vector_events)
            tel.count("kernel.python_loop_events",
                      self.stats.python_loop_events)
            tel.gauge("kernel.horizon_s", self._end_time)
            if self.net.n_links:
                tel.gauge("kernel.max_backlog_s",
                          float(self.link_max_backlog_s.max()))
        return self.recorder.finish(self._end_time)

    @property
    def events_processed(self) -> int:
        return self._events

    def link_utilization(self, duration: float | None = None) -> np.ndarray:
        """Per-link busy fraction over the run (both directions pooled).

        ``duration`` defaults to the run horizon; utilization can exceed
        1.0 on links whose two directions were both saturated.
        """
        horizon = duration if duration is not None else self._end_time
        if not np.isfinite(horizon) or horizon <= 0:
            raise ValueError(
                f"cannot compute link utilization over horizon {horizon!r}: "
                f"this EmulationKernel has not completed a run() (its end "
                f"time is still unset) — call run(until=...) first or pass "
                f"an explicit positive duration"
            )
        return self.link_busy_s / horizon


def _hook_cuts(batch: EventBatch) -> np.ndarray:
    """Rows that deliver a hooked transfer's last train (each ends its
    segment: the hook runs before any later row)."""
    return (batch.train >= 0) & batch.last & (batch.node == batch.dst)


#: Below this many active FIFO groups, the round-vectorized recurrence
#: replay falls back to the scalar loop (numpy call overhead dominates).
_ROUND_MIN_GROUPS = 8


def _replay_fifo(
    key: np.ndarray,
    order: np.ndarray,
    ks: np.ndarray,
    ftime: np.ndarray,
    tx: np.ndarray,
    busy_flat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the FIFO recurrence ``busy = max(t, busy) + tx`` of a segment's
    forwards on their channels ``key`` (indices into ``busy_flat``, which
    is updated), in event order within each channel.  ``order`` is a
    stable sort of the forwards that groups them by channel and ``ks``
    their channels in that order.

    The recurrence is a float-order-sensitive scan, so it cannot be
    prefix-summed — but it *can* run one round at a time across channels.
    The forwards are laid out round-major: round 0 holds every channel
    with one event (the singletons), round ``r >= 1`` the ``r - 1``-th
    event of every channel with several, each round in channel order.  A
    round is one contiguous slice, run with elementwise numpy ops, which
    perform each channel's operations in exactly the scalar order
    (``np.maximum`` / ``+`` are elementwise IEEE ops, bit-identical to the
    scalar replay).  Once a round has fewer than
    :data:`_ROUND_MIN_GROUPS` channels, per-round numpy overhead loses to
    plain python and the remaining rounds run as one scalar loop.

    Returns ``(backlog, depart, events run in the scalar loop)``, the
    first two in event order.
    """
    nf = len(key)
    edge = np.empty(nf + 1, dtype=bool)
    edge[0] = edge[nf] = True
    np.not_equal(ks[1:], ks[:-1], out=edge[1:nf])
    bounds = edge.nonzero()[0]
    if len(bounds) == nf + 1:  # every channel has one event: one round
        b0 = busy_flat[key]
        depart = np.maximum(ftime, b0) + tx
        busy_flat[key] = depart
        return b0 - ftime, depart, 0
    starts = bounds[:-1]
    sizes = bounds[1:] - starts
    # Round of each sorted event: 0 for a singleton, else 1 + its place
    # in its channel.
    rounds = np.arange(nf) - (starts - (sizes > 1)).repeat(sizes)
    major = order[rounds.argsort(kind="stable")]
    per_round = np.bincount(rounds).tolist()
    kp, tp, xp = key[major], ftime[major], tx[major]
    bl = np.empty(nf, dtype=np.float64)
    dp = np.empty(nf, dtype=np.float64)
    lo = 0
    for r, width in enumerate(per_round):
        if r and width < _ROUND_MIN_GROUPS:
            break
        hi = lo + width
        k, t = kp[lo:hi], tp[lo:hi]
        b = busy_flat[k]
        bl[lo:hi] = b - t
        d = np.maximum(t, b) + xp[lo:hi]
        dp[lo:hi] = d
        busy_flat[k] = d
        lo = hi
    n_scalar = nf - lo
    if n_scalar:
        busy: dict[int, float] = {}
        bl_t, dp_t = [], []
        for k, t, x in zip(kp[lo:].tolist(), tp[lo:].tolist(),
                           xp[lo:].tolist()):
            b = busy[k] if k in busy else float(busy_flat[k])
            bl_t.append(b - t)
            b = busy[k] = max(t, b) + x
            dp_t.append(b)
        bl[lo:] = bl_t
        dp[lo:] = dp_t
        for k, b in busy.items():
            busy_flat[k] = b
    backlog = np.empty(nf, dtype=np.float64)
    depart = np.empty(nf, dtype=np.float64)
    backlog[major] = bl
    depart[major] = dp
    return backlog, depart, n_scalar


def run_kernel(
    net: Network,
    tables: RoutingTables,
    workload,
    *,
    seed: int = 0,
    until: float | None = None,
    train_packets: int = 32,
    collector=None,
    telemetry=None,
    engine: str = "sequential",
    parts=None,
    processes=None,
    rebalance=None,
    link_changes=None,
    cache=None,
) -> tuple[EventTrace, EmulationKernel]:
    """Run one workload through a batched kernel — the production side of
    the engine parity pair (:func:`repro.engine._reference.run_kernel_reference`
    is the oracle).

    ``workload`` is anything with ``install(kernel, rng)`` (and a
    ``duration`` attribute used when ``until`` is omitted).  Flow ids are
    reset first so two runs of the same (seed, workload) are comparable
    train by train.  ``engine="parallel"`` runs the same kernel seen
    through the node partition ``parts``, one logical process per
    partition (see :class:`repro.engine.lp.ParallelEmulationKernel`):
    same trace, plus per-LP event counts and live migration.
    ``rebalance``, a :class:`repro.rebalance.RebalanceConfig`, attaches an
    online rebalancer to the parallel engine; the resulting
    :class:`~repro.rebalance.log.MigrationLog` is available as
    ``kernel.rebalancer.log``.

    ``link_changes`` schedules mid-run :class:`repro.routing.delta.SetLinkCost`
    batches as ``(time, changes)`` pairs (see
    :func:`repro.engine.changes.install_link_changes`): routing tables are
    repaired incrementally at the first window barrier past each time.

    ``processes`` has no effect and warns when passed: nothing forks any
    more.  It is kept only for the benchmark's scale-emulate workload,
    which still passes it; ROADMAP item 1(e)'s benchmark change deletes
    the keyword together with that call.
    """
    if processes is not None:
        warnings.warn(
            "run_kernel(processes=) has no effect: the parallel engine "
            "runs in-process; drop the keyword",
            DeprecationWarning, stacklevel=2,
        )
    if rebalance is not None and engine != "parallel":
        raise ValueError(
            "rebalance= requires engine='parallel': the online rebalancer "
            "migrates routers between logical processes, which the "
            "sequential engine does not have"
        )
    reset_flow_ids()
    state = None
    if link_changes is not None:
        from repro.routing.delta import routing_state

        # The kernel must be built on the very tables the delta engine
        # splices; routing_state copies, so rebind before construction.
        state = routing_state(tables)
        tables = state.tables
    if engine == "sequential":
        kernel = EmulationKernel(
            net, tables, train_packets=train_packets,
            collector=collector, telemetry=telemetry,
        )
    elif engine == "parallel":
        from repro.engine.lp import ParallelEmulationKernel

        if parts is None:
            raise ValueError(
                "engine='parallel' needs a parts array (one partition "
                "id per node); build one with repro.partition.Mapper "
                "or call repro.api.emulate(engine='parallel', k=...) "
                "which derives it for you"
            )
        kernel = ParallelEmulationKernel(
            net, tables, parts=parts,
            train_packets=train_packets, collector=collector,
            telemetry=telemetry,
        )
        if rebalance is not None:
            from repro.rebalance import attach_rebalancer

            attach_rebalancer(kernel, rebalance)
    else:
        raise ValueError(
            f"unknown engine {engine!r}; choose 'sequential' or "
            f"'parallel'"
        )
    if link_changes is not None:
        from repro.engine.changes import install_link_changes

        install_link_changes(kernel, state, link_changes, cache=cache)
    workload.install(kernel, np.random.default_rng(seed))
    horizon = float(until if until is not None else workload.duration)
    return kernel.run(until=horizon), kernel
