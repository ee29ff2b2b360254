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
  events: one event pool whose rows are bucketed by conservative
  lookahead window.  Events carry only numeric fields (no callbacks), so
  a whole window can be popped as sorted numpy arrays, in a fixed number
  of numpy calls, and processed vectorized.  Buckets are approximate
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
        """Schedule ``callback(*args)`` at ``time`` (finite, not before 0)."""
        if not 0 <= time < np.inf:  # a NaN would reorder the heap
            raise ValueError(f"cannot schedule at time={time!r}: times "
                             f"must be finite and not before time 0")
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
#: Column dtypes of an :class:`EventBatch`, in field order.
_DTYPES = (
    np.float64, np.int64, np.int64, np.int64, np.int64, np.float64,
    np.int64, np.bool_, np.int64,
)
#: Bucket-column sentinel of a popped pool row (above every live bucket).
_POPPED = np.iinfo(np.int64).max


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

    # Spelled out: hot path (every pool fill), where a generic loop costs
    # more.
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
    window at a time.  Pushes append whole batches to a list; the first
    window read (:meth:`min_bucket` / :meth:`has_bucket` /
    :meth:`pop_bucket`) appends them to one struct-of-arrays event pool
    with one concatenation per column, so a read costs a fixed number of
    numpy calls however many pushes fed it — and a run that hands its
    events over with :meth:`pop_all` never fills the pool at all.
    """

    def __init__(self, window_s: float) -> None:
        if not window_s > 0:
            raise ValueError("window_s must be positive")
        self.window_s = float(window_s)
        # Pushed batches not yet in the pool.
        self._pushed: list[EventBatch] = []
        # The pool: the EventBatch columns, then the bucket column (_POPPED
        # once a row is popped), as buffers that double in capacity; rows
        # [0, _size) are in use, at least half of them live.
        self._pool = [np.empty(0, dtype) for dtype in (*_DTYPES, np.int64)]
        self._size = 0
        self._pending = 0

    def __len__(self) -> int:
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def push_batch(self, batch: EventBatch) -> None:
        """Add a batch of events (any time order; negative or non-finite
        times rejected)."""
        n = len(batch)
        if n == 0:
            return
        # NaN fails both comparisons; the messages are built on failure.
        if not (batch.time.min() >= 0 and batch.time.max() < np.inf):
            finite = np.isfinite(batch.time)
            if not finite.all():
                raise ValueError(
                    f"cannot schedule at time {batch.time[~finite][0]}")
            raise ValueError("cannot schedule before time 0")
        self._pushed.append(batch)
        self._pending += n

    def _absorb(self) -> None:
        """Append the pushed batches to the pool and bucket them."""
        if not self._pushed:
            return
        start = self._size
        end = self._size = start + int(sum(len(b) for b in self._pushed))
        if end > len(self._pool[0]):
            cap = max(end, 2 * len(self._pool[0]))
            self._pool = [np.concatenate((c[:start], np.empty(
                cap - start, c.dtype))) for c in self._pool]
        *cols, buckets = self._pool
        if len(self._pushed) == 1:  # one flush a window: one copy a column
            for col, part in zip(cols, self._pushed[0].arrays()):
                np.copyto(col[start:end], part)
        else:
            for col, parts in zip(cols,
                                  zip(*(b.arrays() for b in self._pushed))):
                np.concatenate(parts, out=col[start:end])
        buckets[start:end] = np.floor_divide(cols[0][start:end],
                                             self.window_s)
        self._pushed = []

    def pop_all(self) -> list[EventBatch]:
        """Remove and return every pending event, unsorted: the pushed
        batches as they are, then the pool's live rows as one batch."""
        out = self._pushed
        if self._size:
            *cols, buckets = self._pool
            live = np.flatnonzero(buckets[:self._size] != _POPPED)
            out = out + [EventBatch(*(col[live] for col in cols))]
        self._pushed, self._size, self._pending = [], 0, 0
        return out

    def min_bucket(self) -> int | None:
        """Lowest occupied bucket id, or None when empty."""
        self._absorb()
        return int(self._pool[-1][:self._size].min()) if self._size else None

    def has_bucket(self, bucket: int) -> bool:
        """Whether any pending event currently lands in ``bucket``."""
        self._absorb()
        return bool((self._pool[-1][:self._size] == bucket).any())

    def pop_bucket(self, bucket: int) -> EventBatch | None:
        """Remove and return bucket ``bucket`` sorted by ``(time, seq)``."""
        self._absorb()
        *cols, buckets = self._pool
        rows = (buckets[:self._size] == bucket).nonzero()[0]
        if len(rows) == 0:
            return None
        rows = rows[np.lexsort((cols[1][rows], cols[0][rows]))]
        popped = EventBatch(*(col[rows] for col in cols))
        buckets[rows] = _POPPED
        self._pending -= len(rows)
        if 2 * self._pending < self._size:  # compact, keeping pool order
            live = np.flatnonzero(buckets[:self._size] != _POPPED)
            for col in self._pool:
                col[:len(live)] = col[live]
            self._size = len(live)
        return popped
