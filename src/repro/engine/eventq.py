"""Deterministic event queues.

Two implementations share one ordering contract — events execute in
``(time, sequence)`` order, ties in virtual time resolving by insertion
order — so two runs that schedule events in the same order execute them in
the same order.  That is the determinism contract the whole experiment
harness leans on.

- :class:`EventQueue` — the original binary heap of python callbacks.  The
  batched kernel still uses it for *control* events (traffic-generator
  callbacks); the reference kernel uses it for everything.
- :class:`BatchEventQueue` — a struct-of-arrays calendar for *train*
  events, bucketed by conservative lookahead window.  Events carry only
  numeric fields (no callbacks), so a whole window can be popped as sorted
  numpy arrays and processed vectorized.  Buckets are approximate
  partitions — correctness comes from the kernel's window march (the
  minimum occupied bucket is always drained before later ones), not from
  bucket boundaries.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = ["EventQueue", "BatchEventQueue", "EventBatch", "merge_newer"]


class EventQueue:
    """Min-heap of ``(time, seq, callback, args)`` entries."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self._popped = 0

    def push(self, time: float, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` at ``time``."""
        if time < 0:
            raise ValueError("cannot schedule before time 0")
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def pop(self) -> tuple[float, Callable, tuple]:
        """Remove and return the earliest event."""
        time, _, callback, args = heapq.heappop(self._heap)
        self._popped += 1
        return time, callback, args

    def peek_time(self) -> float:
        """Timestamp of the earliest event (IndexError when empty)."""
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def processed(self) -> int:
        """Number of events popped so far."""
        return self._popped


# --------------------------------------------------------------------- #
# Struct-of-arrays calendar queue (batched kernel)
# --------------------------------------------------------------------- #
#: Parallel array fields of one train-event batch, in push order.
_BATCH_FIELDS = (
    "time", "seq", "node", "dst", "count", "nbytes", "flow", "last", "train",
)


@dataclass
class EventBatch:
    """A group of train events as parallel arrays.

    ``time``/``nbytes`` are float64; ``last`` is bool; every other field
    is int64.  ``train`` is the index of the train's transfer in the
    kernel's hooked-transfer list when that transfer carries an
    ``on_delivery`` callback, -1 otherwise; ``seq`` is the global
    tie-break sequence shared with the control-event heap.
    """

    time: np.ndarray
    seq: np.ndarray
    node: np.ndarray
    dst: np.ndarray
    count: np.ndarray
    nbytes: np.ndarray
    flow: np.ndarray
    last: np.ndarray
    train: np.ndarray

    def __len__(self) -> int:
        return len(self.time)

    # Spelled out: per-chunk hot path, where a generic loop costs more.
    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.time, self.seq, self.node, self.dst, self.count,
                self.nbytes, self.flow, self.last, self.train)

    def take(self, index) -> "EventBatch":
        """New batch of the rows selected by ``index`` (slice or array)."""
        return EventBatch(
            self.time[index], self.seq[index], self.node[index],
            self.dst[index], self.count[index], self.nbytes[index],
            self.flow[index], self.last[index], self.train[index],
        )

    def sorted_by_key(self) -> "EventBatch":
        """Rows reordered into ``(time, seq)`` execution order."""
        order = np.lexsort((self.seq, self.time))
        return self.take(order)

    @staticmethod
    def concatenate(batches: list["EventBatch"]) -> "EventBatch":
        if len(batches) == 1:
            return batches[0]
        return EventBatch(*(
            np.concatenate(cols)
            for cols in zip(*(b.arrays() for b in batches))
        ))


def merge_newer(rem: EventBatch, inj: EventBatch) -> EventBatch:
    """Merge ``inj`` into ``rem``, both already in ``(time, seq)`` order,
    where every ``inj`` seq exceeds every ``rem`` seq.

    That seq dominance holds for any events pushed *after* a bucket was
    popped (the kernel's sequence counter is monotonic), and it reduces the
    (time, seq) merge to a single ``searchsorted(..., side="right")`` on
    time: an injected event ties after every remaining event at the same
    timestamp.  O(n) with no lexsort — the kernel uses this to splice
    callback-injected events into the window it is currently draining.
    """
    n_rem, n_inj = len(rem), len(inj)
    if n_rem == 0:
        return inj
    if n_inj == 0:
        return rem
    at = np.searchsorted(rem.time, inj.time, side="right")
    inj_pos = at + np.arange(n_inj)
    mask = np.zeros(n_rem + n_inj, dtype=bool)
    mask[inj_pos] = True
    out = []
    for a, b in zip(rem.arrays(), inj.arrays()):
        col = np.empty(n_rem + n_inj, dtype=a.dtype)
        col[~mask] = a
        col[mask] = b
        out.append(col)
    return EventBatch(*out)


class BatchEventQueue:
    """Window-bucketed calendar of train events.

    Events land in bucket ``floor(time / window_s)``; the kernel drains the
    minimum occupied bucket, sorted by ``(time, seq)``, one conservative
    window at a time.  Pushes append whole batches; bucketing is deferred
    to the first window read (:meth:`min_bucket` / :meth:`has_bucket` /
    :meth:`pop_bucket`) and sorting to :meth:`pop_bucket`, so the common
    path (push a segment's successors, pop the next window) costs one
    lexsort per window — and a run that hands its events over with
    :meth:`pop_all` never buckets at all.
    """

    def __init__(self, window_s: float) -> None:
        if not window_s > 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        # Pushed batches not yet bucketed.
        self._pushed: list[EventBatch] = []
        # bucket -> list of (batch, start, end) row ranges.  Ranges stay
        # views into the pushed batches until the bucket is popped, so
        # bucketing costs one sort per batch — no per-bucket array copies.
        self._chunks: dict[int, list[tuple[EventBatch, int, int]]] = {}
        self._heap: list[int] = []
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def has_bucket(self, bucket: int) -> bool:
        """Whether any pending event currently lands in ``bucket``."""
        self._bucket_pushed()
        return bucket in self._chunks

    def push_batch(self, batch: EventBatch) -> None:
        """Add a batch of events (any time order; negative times rejected)."""
        n = len(batch)
        if n == 0:
            return
        if float(batch.time.min()) < 0:
            raise ValueError("cannot schedule before time 0")
        self._pushed.append(batch)
        self._pending += n

    def _bucket_pushed(self) -> None:
        for batch in self._pushed:
            n = len(batch)
            buckets = np.floor_divide(
                batch.time, self.window_s).astype(np.int64)
            # One stable sort groups each bucket's rows contiguously.
            order = np.argsort(buckets, kind="stable")
            sorted_batch = batch.take(order)
            bs = buckets[order]
            edges = np.nonzero(bs[1:] != bs[:-1])[0] + 1
            start = 0
            for end in list(edges) + [n]:
                self._add_chunk(int(bs[start]), sorted_batch, start, end)
                start = end
        self._pushed = []

    def pop_all(self) -> list[EventBatch]:
        """Remove and return every pending event, unsorted, as one batch
        per pushed batch (bucketed rows come back as their ranges)."""
        out = self._pushed + [
            b.take(slice(s, e))
            for chunks in self._chunks.values() for b, s, e in chunks
        ]
        self._pushed, self._chunks, self._heap = [], {}, []
        self._pending = 0
        return out

    def _add_chunk(
        self, key: int, batch: EventBatch, start: int, end: int
    ) -> None:
        existing = self._chunks.get(key)
        if existing is None:
            self._chunks[key] = [(batch, start, end)]
            heapq.heappush(self._heap, key)
        else:
            existing.append((batch, start, end))

    def min_bucket(self) -> int | None:
        """Lowest occupied bucket id, or None when empty."""
        self._bucket_pushed()
        while self._heap and self._heap[0] not in self._chunks:
            heapq.heappop(self._heap)  # stale entry (already drained)
        return self._heap[0] if self._heap else None

    def pop_bucket(self, bucket: int) -> EventBatch | None:
        """Remove and return bucket ``bucket`` sorted by ``(time, seq)``."""
        self._bucket_pushed()
        chunks = self._chunks.pop(bucket, None)
        if chunks is None:
            return None
        ranges = [(b.arrays(), s, e) for b, s, e in chunks]
        merged = EventBatch(*(
            np.concatenate([cols[i][s:e] for cols, s, e in ranges])
            for i in range(len(_BATCH_FIELDS))
        )).sorted_by_key()
        self._pending -= len(merged)
        return merged
