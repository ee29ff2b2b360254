"""Tests for event traces."""

import numpy as np
import pytest

from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.engine.trace import DELIVERED, EventTrace, TraceRecorder


def make_trace():
    rec = TraceRecorder(n_nodes=4)
    rec.record(0.5, 1, 2, 3, 10, span=0.1)
    rec.record(0.1, 0, 1, 2, 10, span=0.1)
    rec.record(0.9, 2, DELIVERED, 3, 10)
    return rec.finish(duration=1.0)


def test_recorder_sorts_by_time():
    trace = make_trace()
    assert list(trace.time) == [0.1, 0.5, 0.9]
    assert list(trace.node) == [0, 1, 2]


def test_node_loads():
    trace = make_trace()
    assert list(trace.node_loads()) == [2.0, 3.0, 3.0, 0.0]


def test_link_loads():
    trace = make_trace()
    loads = trace.link_loads()
    assert loads == {(0, 1): 2, (1, 2): 3}


def test_interval_series_shape_and_totals():
    trace = make_trace()
    series = trace.interval_series(0.25)
    assert series.shape == (4, 4)
    assert series.sum() == trace.packets.sum()
    assert series[0, 0] == 2.0  # event at t=0.1 in bin 0


def test_interval_series_rejects_bad_interval():
    with pytest.raises(ValueError):
        make_trace().interval_series(0.0)


def test_validate_catches_bad_node():
    trace = make_trace()
    trace.node[0] = 99
    with pytest.raises(ValueError, match="out of range"):
        trace.validate()


@pytest.mark.parametrize("bad", (np.inf, np.nan))
def test_validate_rejects_non_finite_times(bad):
    """``np.diff`` of an inf / nan row is never < 0, so sortedness alone
    let such a trace through."""
    trace = make_trace()
    trace.time[-1] = bad
    with pytest.raises(ValueError, match="times must be finite"):
        trace.validate()


def test_save_load_roundtrip(tmp_path, tiny_routed):
    net, tables = tiny_routed
    kern = EmulationKernel(net, tables)
    kern.submit_transfer(Transfer(src=4, dst=6, nbytes=50_000), 0.0)
    trace = kern.run(until=30.0)
    path = tmp_path / "trace.npz"
    trace.save(path)
    clone = EventTrace.load(path)
    assert np.array_equal(clone.time, trace.time)
    assert np.array_equal(clone.node, trace.node)
    assert np.array_equal(clone.span, trace.span)
    assert clone.duration == trace.duration
    assert clone.n_nodes == trace.n_nodes
