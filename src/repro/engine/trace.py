"""Event traces: the kernel's compact record of everything it executed.

An :class:`EventTrace` stores one row per kernel event in parallel numpy
arrays — virtual time, node, forwarding target, packet count, flow id — plus
the realized transfers.  Mapping evaluation (isolated network emulation
time included), profiling aggregation and the fine-grained load plots are
all vectorized queries over these arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["EventTrace", "TraceRecorder", "TrainRows", "DELIVERED",
           "INJECTED"]

# Sentinels for the next_node column.
DELIVERED = -1  # event delivered the train at its destination host
INJECTED = -2   # event is an application injection (request arriving at the
                # emulator from the live application)


@dataclass
class EventTrace:
    """Immutable columnar event log of one emulation run.

    Attributes
    ----------
    time:
        ``float64[E]`` virtual timestamps (non-decreasing).
    node:
        ``int32[E]`` node executing the event.
    next_node:
        ``int32[E]`` forwarding target, or :data:`DELIVERED` /
        :data:`INJECTED`.
    packets:
        ``int32[E]`` packets accounted to the event (kernel events are
        per-packet in MaSSF; trains carry their packet count).
    flow:
        ``int32[E]`` flow id.
    span:
        ``float64[E]`` serialization span of the event's train on its
        outgoing link — the virtual interval over which the per-packet work
        actually occurs.  0 for deliveries/injections.
    duration:
        Virtual end time of the run.
    n_nodes:
        Size of the emulated network.
    """

    time: np.ndarray
    node: np.ndarray
    next_node: np.ndarray
    packets: np.ndarray
    flow: np.ndarray
    span: np.ndarray
    duration: float
    n_nodes: int

    # ------------------------------------------------------------------ #
    @property
    def n_events(self) -> int:
        return len(self.time)

    @property
    def total_packets(self) -> int:
        return int(self.packets.sum())

    def node_loads(self) -> np.ndarray:
        """Packets processed per node, shape ``(n_nodes,)``."""
        out = np.zeros(self.n_nodes, dtype=np.float64)
        np.add.at(out, self.node, self.packets)
        return out

    def link_loads(self) -> dict[tuple[int, int], int]:
        """Packets forwarded over each directed adjacency ``(u, v)``."""
        mask = self.next_node >= 0
        out: dict[tuple[int, int], int] = {}
        for u, v, p in zip(
            self.node[mask], self.next_node[mask], self.packets[mask]
        ):
            key = (int(u), int(v))
            out[key] = out.get(key, 0) + int(p)
        return out

    def interval_series(self, interval: float) -> np.ndarray:
        """Per-node packet counts binned by virtual time.

        Returns ``float64[n_nodes, n_bins]`` with
        ``n_bins = ceil(duration / interval)``.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        n_bins = max(1, int(np.ceil(self.duration / interval)))
        bins = np.minimum((self.time / interval).astype(np.int64), n_bins - 1)
        out = np.zeros((self.n_nodes, n_bins), dtype=np.float64)
        np.add.at(out, (self.node, bins), self.packets)
        return out

    def validate(self) -> None:
        """Check columnar invariants (sorted times, ranges, lengths)."""
        arrays = (self.time, self.node, self.next_node, self.packets,
                  self.flow, self.span)
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise ValueError("trace columns have differing lengths")
        if not np.isfinite(self.time).all():
            raise ValueError("trace times must be finite")
        if self.n_events and np.any(np.diff(self.time) < 0):
            raise ValueError("trace times must be non-decreasing")
        if self.n_events and (
            self.node.min() < 0 or self.node.max() >= self.n_nodes
        ):
            raise ValueError("trace node id out of range")
        if self.n_events and self.packets.min() < 0:
            raise ValueError("negative packet count")

    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Persist to an ``.npz`` file."""
        np.savez_compressed(
            path,
            time=self.time, node=self.node, next_node=self.next_node,
            packets=self.packets, flow=self.flow, span=self.span,
            meta=np.array([self.duration, float(self.n_nodes)]),
        )

    @classmethod
    def load(cls, path) -> "EventTrace":
        """Load from an ``.npz`` file produced by :meth:`save`."""
        data = np.load(path)
        return cls(
            time=data["time"], node=data["node"],
            next_node=data["next_node"], packets=data["packets"],
            flow=data["flow"], span=data["span"],
            duration=float(data["meta"][0]),
            n_nodes=int(data["meta"][1]),
        )


class TrainRows(NamedTuple):
    """Time, node and packet count of executed train events."""

    time: np.ndarray
    node: np.ndarray
    count: np.ndarray


class TraceRecorder:
    """Append-only builder the kernel writes into.

    Rows arrive as python rows (:meth:`record`, the per-event drain's
    path) or as whole array chunks (:meth:`record_batch`, the window
    drain's); :meth:`record_injections` joins whichever is open.  Append
    order is preserved across both — :meth:`finish` stable-sorts by time,
    so rows recorded at equal virtual times keep their execution order.
    That ordering is part of the engines' bit-identity contract.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._chunk_rows = 0
        self._time: list[float] = []
        self._node: list[int] = []
        self._next: list[int] = []
        self._packets: list[int] = []
        self._flow: list[int] = []
        self._span: list[float] = []

    def record(
        self,
        time: float,
        node: int,
        next_node: int,
        packets: int,
        flow: int,
        span: float = 0.0,
    ) -> None:
        self._time.append(time)
        self._node.append(node)
        self._next.append(next_node)
        self._packets.append(packets)
        self._flow.append(flow)
        self._span.append(span)

    def record_injections(
        self, time: np.ndarray, node: np.ndarray, flow: np.ndarray
    ) -> None:
        """Append one :data:`INJECTED` row (one packet, no span) per entry.

        The rows join the open tail of the log: the pending python rows
        when there are any (a per-event drain injecting mid-run — no
        flush, no new chunk), a new array chunk otherwise.
        """
        n = len(time)
        if self._time:
            self._time += time.tolist()
            self._node += node.tolist()
            self._next += [INJECTED] * n
            self._packets += [1] * n
            self._flow += flow.tolist()
            self._span += [0.0] * n
            return
        nxt = np.empty(n, dtype=np.int64)
        nxt.fill(INJECTED)
        packets = np.ones(n, dtype=np.int64)
        self.record_batch(time, node, nxt, packets, flow, np.zeros(n))

    def record_batch(
        self,
        time: np.ndarray,
        node: np.ndarray,
        next_node: np.ndarray,
        packets: np.ndarray,
        flow: np.ndarray,
        span: np.ndarray,
    ) -> None:
        """Append a chunk of rows in execution order (arrays not copied)."""
        if len(time) == 0:
            return
        self._flush_pending()
        self._chunks.append((time, node, next_node, packets, flow, span))
        self._chunk_rows += len(time)

    def _flush_pending(self) -> None:
        if self._time:
            self._chunks.append((
                np.asarray(self._time, dtype=np.float64),
                np.asarray(self._node, dtype=np.int64),
                np.asarray(self._next, dtype=np.int64),
                np.asarray(self._packets, dtype=np.int64),
                np.asarray(self._flow, dtype=np.int64),
                np.asarray(self._span, dtype=np.float64),
            ))
            self._chunk_rows += len(self._time)
            self._time, self._node, self._next = [], [], []
            self._packets, self._flow, self._span = [], [], []

    def __len__(self) -> int:
        return self._chunk_rows + len(self._time)

    def train_rows_since(self, mark: int) -> TrainRows:
        """The train events (every row but :data:`INJECTED` ones) among
        the rows appended since ``len(self)`` was ``mark``."""
        self._flush_pending()
        pieces, at = [[np.zeros(0, np.int64)] * 4], self._chunk_rows
        for chunk in reversed(self._chunks):
            if at <= mark:
                break
            at -= len(chunk[0])
            pieces.insert(1, [col[max(mark - at, 0):] for col in chunk[:4]])
        time, node, nxt, packets = map(np.concatenate, zip(*pieces))
        train = nxt != INJECTED
        return TrainRows(time[train], node[train], packets[train])

    def finish(self, duration: float) -> EventTrace:
        """Freeze into an :class:`EventTrace` sorted by time."""
        self._flush_pending()
        cols: list[np.ndarray] = []
        for i in range(6):
            cols.append(
                np.concatenate([c[i] for c in self._chunks])
                if self._chunks else np.zeros(0)
            )
        time = np.asarray(cols[0], dtype=np.float64)
        order = np.argsort(time, kind="stable")
        trace = EventTrace(
            time=time[order],
            node=np.asarray(cols[1], dtype=np.int32)[order],
            next_node=np.asarray(cols[2], dtype=np.int32)[order],
            packets=np.asarray(cols[3], dtype=np.int32)[order],
            flow=np.asarray(cols[4], dtype=np.int32)[order],
            span=np.asarray(cols[5], dtype=np.float64)[order],
            duration=float(duration),
            n_nodes=self.n_nodes,
        )
        trace.validate()
        return trace
