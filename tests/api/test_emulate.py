"""The redesigned emulation surface: ``repro.api.emulate`` and friends."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import EmulationResult, emulate
from repro.engine.kernel import EmulationKernel, run_kernel
from repro.experiments.workloads import SyntheticTransfers, build_workload
from repro.routing.spf import build_routing

TRACE_FIELDS = ("time", "node", "next_node", "packets", "flow", "span")


@pytest.fixture(scope="module")
def campus_ctx():
    net = repro.load_topology("campus")
    tables = build_routing(net)
    wl = SyntheticTransfers(
        n_flows=60, duration=1.0, min_bytes=2_000, max_bytes=60_000,
    )
    return net, tables, wl


def test_emulate_sequential(campus_ctx):
    net, tables, wl = campus_ctx
    result = emulate(net, tables, wl, seed=3)
    assert isinstance(result, EmulationResult)
    assert result.engine == "sequential"
    assert result.trace.n_events > 0
    assert result.wall_s > 0
    assert result.events_per_second > 0
    assert result.lp_events is None and result.lp_imbalance == 1.0
    assert len(result.transfer_log) == 60
    assert result.stats.transfers_submitted == 60
    assert len(result.link_bytes) == net.n_links


def test_emulate_parallel_bit_identical(campus_ctx):
    net, tables, wl = campus_ctx
    seq = emulate(net, tables, wl, seed=3)
    par = emulate(net, tables, wl, seed=3, engine="parallel", k=3)
    assert par.engine == "parallel"
    assert par.lp_events is not None and len(par.lp_events) == 3
    assert par.lp_events.sum() > 0
    assert par.lp_imbalance >= 1.0
    for field in TRACE_FIELDS:
        a, b = getattr(seq.trace, field), getattr(par.trace, field)
        assert a.tobytes() == b.tobytes(), field
    assert seq.transfer_log == par.transfer_log


def test_emulate_explicit_parts(campus_ctx):
    net, tables, wl = campus_ctx
    parts = np.zeros(net.n_nodes, dtype=np.int64)
    parts[net.n_nodes // 2:] = 1
    result = emulate(net, tables, wl, seed=3, engine="parallel",
                     parts=parts)
    assert len(result.lp_events) == 2


def test_emulate_by_topology_name():
    wl = SyntheticTransfers(
        n_flows=20, duration=0.5, min_bytes=2_000, max_bytes=20_000,
    )
    result = repro.emulate("campus", workload=wl, seed=1)
    assert result.trace.n_events > 0


def test_emulate_validation(campus_ctx):
    net, tables, wl = campus_ctx
    with pytest.raises(TypeError, match="workload"):
        emulate(net, tables)
    with pytest.raises(ValueError, match="unknown engine"):
        emulate(net, tables, wl, engine="warp")
    with pytest.raises(ValueError, match="parts=.*or k="):
        emulate(net, tables, wl, engine="parallel")


@pytest.mark.parametrize("offset", (0.6, np.nan))
def test_emulate_refuses_non_integer_parts(campus_ctx, offset):
    """0.6 would truncate to LP 0 and NaN would fail deep in numpy; both
    are refused up front, naming ``parts``."""
    net, tables, wl = campus_ctx
    parts = (np.arange(net.n_nodes) % 2) + 0.0
    parts[1] += offset
    with pytest.raises(ValueError, match="parts must hold integer"):
        emulate(net, tables, wl, seed=3, engine="parallel", parts=parts)


def test_emulate_accepts_integer_valued_float_parts(campus_ctx):
    net, tables, wl = campus_ctx
    ints = np.arange(net.n_nodes) % 2
    a = emulate(net, tables, wl, seed=3, engine="parallel", parts=ints)
    b = emulate(net, tables, wl, seed=3, engine="parallel",
                parts=ints.astype(np.float64))
    assert np.array_equal(a.lp_events, b.lp_events)


def test_emulate_refuses_parts_and_k_together(campus_ctx):
    net, tables, wl = campus_ctx
    parts = np.arange(net.n_nodes) % 2
    with pytest.raises(ValueError, match="not both"):
        emulate(net, tables, wl, seed=3, engine="parallel", parts=parts,
                k=5)


def test_processes_keyword_is_inert_and_warns(campus_ctx):
    net, tables, wl = campus_ctx
    plain = emulate(net, tables, wl, seed=3, engine="parallel", k=2)
    with pytest.warns(DeprecationWarning, match="processes"):
        forked = emulate(net, tables, wl, seed=3, engine="parallel", k=2,
                         processes=True)
    with pytest.warns(DeprecationWarning, match="processes"):
        trace, _ = run_kernel(net, tables, wl, seed=3, processes=False)
    assert np.array_equal(plain.lp_events, forked.lp_events)
    for field in TRACE_FIELDS:
        assert np.array_equal(
            getattr(plain.trace, field), getattr(forked.trace, field)
        ), field
        assert np.array_equal(
            getattr(plain.trace, field), getattr(trace, field)
        ), field


def test_emulate_reexported_from_package():
    assert repro.emulate is emulate
    assert repro.EmulationResult is EmulationResult
    assert "emulate" in repro.__all__
    assert "EmulationResult" in repro.__all__
    assert "emulate" in dir(repro)


def test_run_experiment_engine_parallel_matches_sequential():
    kwargs = dict(topology="campus", seed=1, approaches=("top",),
                  duration=4.0)
    seq = repro.run_experiment(**kwargs)
    par = repro.run_experiment(**kwargs, engine="parallel")
    a, b = seq["top"].outcome, par["top"].outcome
    assert a.load_imbalance == b.load_imbalance
    assert a.remote_packets == b.remote_packets
    assert a.app_emulation_time == b.app_emulation_time


def test_run_experiment_rejects_bad_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        repro.run_experiment("campus", seed=1, approaches=("top",),
                             duration=2.0, engine="warp")


def test_positional_kernel_options_are_a_type_error(campus_ctx):
    net, tables, _ = campus_ctx
    with pytest.raises(TypeError, match="positional"):
        EmulationKernel(net, tables, 8)
    assert EmulationKernel(net, tables, train_packets=8).train_packets == 8


def test_link_utilization_names_kernel_state(campus_ctx):
    net, tables, _ = campus_ctx
    kernel = EmulationKernel(net, tables)
    with pytest.raises(ValueError, match="run\\(until=...\\)"):
        kernel.link_utilization()
