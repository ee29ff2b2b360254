"""Conservative-window evaluation of a mapping against an event trace.

The parallel engine is a conservative PDES: virtual time advances in windows
of length equal to the *lookahead* — the minimum latency over links cut by
the mapping — and the engine nodes barrier between windows.  Within a window
they run concurrently, so the window's wall time is the maximum per-node
work; across windows wall times add.  Shipping a train across a cut link
costs extra.  This module computes, fully vectorized over the trace arrays:

- per-engine-node kernel event loads → the paper's *load imbalance* metric,
- network emulation wall time (the replay/Fig 9–10 quantity),
- application emulation wall time (network wall combined window-by-window
  with the application's compute demand — Fig 6–7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.compute import ComputeProfile
from repro.engine.costmodel import CostModel
from repro.engine.trace import EventTrace
from repro.topology.network import Network

__all__ = ["EmulationMetrics", "evaluate_mapping", "lookahead_of",
           "partition_ids"]


def partition_ids(parts, n_nodes: int) -> np.ndarray:
    """``parts`` as a private ``int64[n_nodes]`` copy, refusing entries
    that are not non-negative integers (a float like 0.6 would otherwise
    truncate silently to 0, and -1 would index the last partition)."""
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


def lookahead_of(
    net: Network, parts: np.ndarray, min_lookahead: float = 50e-6
) -> float:
    """Conservative lookahead of a mapping.

    The minimum one-way latency over cut links (links whose endpoints map to
    different engine nodes), floored at ``min_lookahead``.  With no cut
    links the emulation never synchronizes; ``inf`` is returned.
    """
    parts = partition_ids(parts, net.n_nodes)
    u, v, lat, _ = net.link_endpoint_arrays()
    if len(u) == 0:
        return np.inf
    cut = parts[u] != parts[v]
    if not cut.any():
        return np.inf
    return max(float(lat[cut].min()), min_lookahead)


@dataclass
class EmulationMetrics:
    """Everything measured for one (trace, mapping) pair.

    ``load_imbalance`` is the paper's metric: the standard deviation of the
    per-engine-node kernel event rates normalized by their mean.
    """

    k: int
    loads: np.ndarray
    lookahead: float
    n_windows: int
    n_active_windows: int
    remote_trains: int
    remote_packets: int
    total_events: int
    total_packets: int
    wall_network: float
    wall_app: float
    compute_total: float
    serial_work: float = 0.0

    @property
    def load_imbalance(self) -> float:
        """Normalized std-dev of per-engine-node loads (0 = perfect)."""
        mean = self.loads.mean()
        if mean <= 0:
            return 0.0
        return float(self.loads.std() / mean)

    @property
    def parallel_efficiency(self) -> float:
        """Serial emulation work (seconds) / (k × network wall time)."""
        if self.wall_network <= 0:
            return 1.0
        return self.serial_work / (self.k * self.wall_network)

    def summary(self) -> str:
        return (
            f"k={self.k} imbalance={self.load_imbalance:.3f} "
            f"wall_net={self.wall_network:.2f}s wall_app={self.wall_app:.2f}s "
            f"remote={self.remote_packets}pkts "
            f"windows={self.n_active_windows}/{self.n_windows}"
        )


def evaluate_mapping(
    trace: EventTrace,
    net: Network,
    parts: np.ndarray,
    cost: CostModel | None = None,
    compute: ComputeProfile | None = None,
    engine_speeds: np.ndarray | None = None,
    telemetry=None,
    timeline_label: dict | None = None,
) -> EmulationMetrics:
    """Score a mapping: loads, imbalance, and wall-clock times.

    Parameters
    ----------
    trace:
        Event trace from one kernel run (mapping-independent).
    net, parts:
        The network and the node → engine-node assignment.
    cost:
        Wall-clock cost model (defaults to :class:`CostModel`).
    compute:
        Application compute-demand profile; omit for network-only replay.
    engine_speeds:
        Optional relative speed per engine node (heterogeneous cluster);
        an engine node with speed 2 processes events twice as fast.  Loads
        stay in raw packets; wall-clock costs divide by the speed.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`; records an
        ``evaluate_mapping`` span, lookahead / window / queue gauges, and
        an ``engine.load`` per-engine-node load timeline (binned packet
        loads over virtual time — the substrate of the paper's Figure 2/8
        and of :func:`repro.metrics.imbalance.fine_grained_imbalance`).
    timeline_label:
        Labels (setup / seed / approach) attached to the recorded
        timeline so multi-cell sweeps stay distinguishable.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    parts = partition_ids(parts, net.n_nodes)
    with tel.span("evaluate_mapping"):
        metrics = _evaluate_mapping(
            trace, net, parts, cost=cost, compute=compute,
            engine_speeds=engine_speeds,
        )
    if tel.enabled:
        tel.count("engine.evaluations")
        tel.count("engine.remote_packets", metrics.remote_packets)
        tel.gauge("engine.lookahead_s", metrics.lookahead
                  if np.isfinite(metrics.lookahead) else -1.0)
        tel.gauge("engine.n_windows", metrics.n_windows)
        tel.gauge("engine.n_active_windows", metrics.n_active_windows)
        # Per-engine-node load timeline: one bin per conservative window,
        # re-binned to at most 200 columns so huge traces stay exportable.
        n_bins = int(min(200, max(1, metrics.n_windows)))
        interval = trace.duration / n_bins if trace.duration > 0 else 1.0
        loads_t = np.zeros((metrics.k, n_bins), dtype=np.float64)
        if trace.n_events:
            bins = np.minimum(
                (trace.time / interval).astype(np.int64), n_bins - 1
            )
            np.add.at(
                loads_t,
                (parts[trace.node], bins),
                trace.packets,
            )
        tel.timeline("engine.load", loads_t, interval,
                     **(timeline_label or {}))
    return metrics


def _evaluate_mapping(
    trace: EventTrace,
    net: Network,
    parts: np.ndarray,
    cost: CostModel | None = None,
    compute: ComputeProfile | None = None,
    engine_speeds: np.ndarray | None = None,
) -> EmulationMetrics:
    cost = cost or CostModel()
    k = int(parts.max()) + 1 if len(parts) else 1
    if engine_speeds is not None:
        engine_speeds = np.asarray(engine_speeds, dtype=np.float64)
        if engine_speeds.shape != (k,) or np.any(engine_speeds <= 0):
            raise ValueError(
                f"engine_speeds must be positive with shape ({k},)"
            )

    # Per-engine-node kernel event loads (packets).
    loads = np.zeros(k, dtype=np.float64)
    ev_lp = parts[trace.node]
    np.add.at(loads, ev_lp, trace.packets)

    lookahead = lookahead_of(net, parts, cost.min_lookahead)
    if not np.isfinite(lookahead):
        window_len = max(trace.duration, 1e-9)
    else:
        window_len = lookahead
    n_windows = max(1, int(np.ceil(trace.duration / window_len)))

    # Event costs.
    forwarding = trace.next_node >= 0
    remote = forwarding & (parts[np.maximum(trace.next_node, 0)] != ev_lp)
    ev_cost = (
        trace.packets * cost.per_packet_cost
        + cost.per_event_cost
        + remote * cost.remote_event_cost
    )
    if engine_speeds is not None:
        ev_cost = ev_cost / engine_speeds[ev_lp]
    # What a single engine node would spend (no remote events, no sync):
    # the baseline for parallel-efficiency reporting.
    serial_work = float(
        trace.packets.sum() * cost.per_packet_cost
        + trace.n_events * cost.per_event_cost
    )

    if trace.n_events == 0:
        comp_total = compute.total if compute is not None else 0.0
        return EmulationMetrics(
            k=k, loads=loads, lookahead=lookahead, n_windows=n_windows,
            n_active_windows=0, remote_trains=0, remote_packets=0,
            total_events=0, total_packets=0, wall_network=0.0,
            wall_app=comp_total, compute_total=comp_total, serial_work=0.0,
        )

    # A train's per-packet work is not an impulse: it occurs over the
    # train's serialization span on the outgoing link.  Spread each event's
    # cost uniformly over the windows its span covers (capped so a long
    # span on a tiny window cannot explode the expansion).
    MAX_SPREAD = 32
    win0 = np.minimum((trace.time / window_len).astype(np.int64), n_windows - 1)
    win1 = np.minimum(
        ((trace.time + trace.span) / window_len).astype(np.int64),
        n_windows - 1,
    )
    n_span = np.minimum(win1 - win0 + 1, MAX_SPREAD)
    total_rows = int(n_span.sum())
    starts = np.cumsum(n_span) - n_span
    pos = np.arange(total_rows) - np.repeat(starts, n_span)
    # Evenly-spaced sampling of the covered window range keeps capped
    # spans statistically uniform.
    full_span = np.repeat(win1 - win0 + 1, n_span)
    win = np.repeat(win0, n_span) + (
        pos * full_span // np.repeat(n_span, n_span)
    )
    piece_cost = np.repeat(ev_cost / n_span, n_span)
    piece_lp = np.repeat(ev_lp, n_span)

    # Synchronization is charged per window in which a simulation event
    # actually crosses an engine-node boundary: a null-message-style
    # conservative engine only exchanges messages on channels that carry
    # traffic, so local-only windows cost no synchronization.  This is what
    # ties wall time to the paper's second objective (minimize cut
    # traffic) while the window *length* (lookahead) still controls how
    # many such windows a given cross-flow spreads over.
    remote_pieces = np.repeat(remote, n_span)
    n_active = len(np.unique(win[remote_pieces])) if remote.any() else 0

    # Work parallelism is assessed per skew-horizon chunk: engine nodes may
    # drift up to `skew_windows` windows apart, so the wall time of a chunk
    # is the maximum per-node work within it.  Group piece costs by
    # (chunk, lp): sort once, segment-sum, then per-chunk maximum.
    skew = max(1, int(cost.skew_windows))
    chunk = win // skew
    chunk_len = window_len * skew
    key = chunk * k + piece_lp
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sorted_cost = piece_cost[order]
    group_starts = np.concatenate(
        ([0], np.nonzero(np.diff(sorted_key))[0] + 1)
    )
    group_cost = np.add.reduceat(sorted_cost, group_starts)
    group_chunk = sorted_key[group_starts] // k

    chunk_starts = np.concatenate(
        ([0], np.nonzero(np.diff(group_chunk))[0] + 1)
    )
    chunk_max = np.maximum.reduceat(group_cost, chunk_starts)
    active_chunks = group_chunk[chunk_starts]

    sync = cost.sync_cost(k)
    wall_network = float(chunk_max.sum()) + n_active * sync

    if compute is None:
        comp_total = 0.0
        wall_app = wall_network
    else:
        comp_total = compute.total
        c_lo = active_chunks * chunk_len
        c_hi = np.minimum(c_lo + chunk_len, trace.duration)
        comp_c = compute.cumulative(c_hi) - compute.cumulative(c_lo)
        # Spread the sync charge across active chunks proportionally.
        sync_per_chunk = (
            n_active * sync / len(active_chunks) if len(active_chunks) else 0.0
        )
        emu_c = chunk_max + sync_per_chunk
        wall_app = float(np.maximum(emu_c, comp_c).sum())
        # Chunks with compute demand but no emulation events pass at the
        # application's own speed.
        wall_app += max(0.0, comp_total - float(comp_c.sum()))

    return EmulationMetrics(
        k=k,
        loads=loads,
        lookahead=lookahead,
        n_windows=n_windows,
        n_active_windows=n_active,
        remote_trains=int(remote.sum()),
        remote_packets=int(trace.packets[remote].sum()),
        total_events=trace.n_events,
        total_packets=trace.total_packets,
        wall_network=wall_network,
        wall_app=wall_app,
        compute_total=comp_total,
        serial_work=serial_work,
    )
