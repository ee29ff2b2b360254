"""Tests for the deterministic event queues."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.eventq import BatchEventQueue, EventBatch, EventQueue


def test_time_ordering():
    q = EventQueue()
    order = []
    q.push(2.0, order.append, "b")
    q.push(1.0, order.append, "a")
    q.push(3.0, order.append, "c")
    while q:
        _, cb, args = q.pop()
        cb(*args)
    assert order == ["a", "b", "c"]


def test_fifo_tie_break():
    q = EventQueue()
    seen = []
    for name in "xyz":
        q.push(1.0, seen.append, name)
    while q:
        _, cb, args = q.pop()
        cb(*args)
    assert seen == ["x", "y", "z"]


def test_negative_time_rejected():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-1.0, print)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_time_rejected(bad):
    """A NaN compares false both ways, so a heap that took one would
    reorder around it (1.0, NaN, 0.5 popped as 0.5, NaN, 1.0)."""
    q = EventQueue()
    q.push(1.0, print)
    with pytest.raises(ValueError, match=f"time={bad!r}"):
        q.push(bad, print)
    q.push(0.5, print)
    assert [q.pop()[0] for _ in range(len(q))] == [0.5, 1.0]


def test_peek_and_counters():
    q = EventQueue()
    q.push(5.0, print)
    q.push(2.0, print)
    assert q.peek_time() == 2.0
    assert len(q) == 2
    q.pop()
    assert q.processed == 1
    assert len(q) == 1


def test_peek_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().peek_time()


# --------------------------------------------------------------------- #
# BatchEventQueue: the window calendar against a sorted-list model
# --------------------------------------------------------------------- #
WINDOW = 0.1
#: EventBatch column dtypes: time, seq, node, dst, count, nbytes, flow,
#: last, train.
DTYPES = (np.float64, np.int64, np.int64, np.int64, np.int64, np.float64,
          np.int64, bool, np.int64)


def _batch(rows: list[tuple]) -> EventBatch:
    return EventBatch(*(np.array(col, dtype)
                        for col, dtype in zip(zip(*rows), DTYPES)))


def _rows(batch: EventBatch) -> list[tuple]:
    return list(zip(*(col.tolist() for col in batch.arrays())))


def _plain(times, seq0=0) -> EventBatch:
    return _batch([(t, seq0 + i, 0, 1, 1, 100.0, 0, False, -1)
                   for i, t in enumerate(times)])


def _bucket(row: tuple) -> int:
    return int(np.floor_divide(row[0], WINDOW))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calendar_rejects_non_finite_times(bad):
    """A NaN or infinite time is refused whole (unchecked, it casts to
    bucket INT64_MIN and pops before every real window)."""
    q = BatchEventQueue(WINDOW)
    q.push_batch(_plain([0.02, 0.5]))
    with pytest.raises(ValueError, match=r"at time -?(nan|inf)"):
        q.push_batch(_plain([0.3, bad], seq0=2))
    assert len(q) == 2
    assert q.min_bucket() == 0
    assert _rows(q.pop_bucket(0)) == _rows(_plain([0.02]))


_TIME = st.one_of(
    st.integers(0, 40).map(lambda k: k * 0.025),  # ties and bucket edges
    st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)
#: A row without its seq: time, node, dst, count, nbytes, flow, last, train.
_ROW = st.tuples(_TIME, st.integers(0, 9), st.integers(0, 9),
                 st.integers(1, 32), st.floats(1.0, 1e5), st.integers(0, 5),
                 st.booleans(), st.integers(-1, 3))
_OP = st.one_of(
    st.tuples(st.just("push"), st.lists(_ROW, min_size=1, max_size=12)),
    st.tuples(st.just("pop_min")),
    st.tuples(st.just("has"), st.integers(-1, 11)),
    st.tuples(st.just("pop_all")),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OP, max_size=40), data=st.data())
def test_calendar_matches_sorted_list_model(ops, data):
    """Random pushes (unique seqs, larger than every earlier one — also
    after pops, the way callbacks push) interleaved with window pops,
    bucket probes and whole hand-overs pop the same rows, in the same
    ``(time, seq)`` order per bucket, as a plain list kept sorted by
    ``(time, seq)``; ``len`` agrees after every step."""
    q = BatchEventQueue(WINDOW)
    model: list[tuple] = []
    next_seq = 0

    def pop_min():
        nonlocal model
        bucket = q.min_bucket()
        assert bucket == min(map(_bucket, model), default=None)
        if bucket is not None:
            due = [r for r in model if _bucket(r) == bucket]
            model = [r for r in model if _bucket(r) != bucket]
            assert _rows(q.pop_bucket(bucket)) == due
        return bucket

    for op in ops:
        if op[0] == "push":
            seqs = data.draw(st.permutations(
                range(next_seq, next_seq + len(op[1]))))
            next_seq += len(op[1])
            batch = _batch([(t, s, *rest)
                            for (t, *rest), s in zip(op[1], seqs)])
            q.push_batch(batch)
            model = sorted(model + _rows(batch), key=lambda r: r[:2])
        elif op[0] == "pop_min":
            pop_min()
        elif op[0] == "has":
            assert q.has_bucket(op[1]) == any(
                _bucket(r) == op[1] for r in model)
        else:
            out = [row for b in q.pop_all() for row in _rows(b)]
            assert sorted(out, key=lambda r: r[:2]) == model
            model = []
        assert len(q) == len(model) and bool(q) == bool(model)
    while pop_min() is not None:
        assert len(q) == len(model)
    assert model == []
