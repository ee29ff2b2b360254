"""Tests for workload construction and endpoint placement."""

import numpy as np
import pytest

from repro.experiments.workloads import (
    INTENSITIES,
    Workload,
    build_workload,
    spread_endpoints,
)
from repro.topology.campus import campus_network
from repro.topology.teragrid import teragrid_network


def test_spread_endpoints_cycles_sites():
    net = teragrid_network()
    rng = np.random.default_rng(0)
    eps = spread_endpoints(net, 10, rng)
    sites = [net.node(e).site for e in eps]
    # 5 sites, 10 endpoints: exactly 2 per site.
    from collections import Counter

    assert all(v == 2 for v in Counter(sites).values())


def test_spread_endpoints_unique():
    net = campus_network()
    rng = np.random.default_rng(1)
    eps = spread_endpoints(net, 20, rng)
    assert len(set(eps)) == 20


def test_spread_endpoints_too_many():
    net = campus_network()
    with pytest.raises(ValueError):
        spread_endpoints(net, 1000, np.random.default_rng(0))


def test_build_workload_scalapack():
    net = campus_network()
    wl = build_workload(net, "scalapack", seed=3)
    assert wl.app is not None
    assert wl.app.name == "scalapack"
    assert len(wl.app.endpoints) == 10
    assert wl.duration > wl.app.duration


def test_build_workload_gridnpb():
    net = campus_network()
    wl = build_workload(net, "gridnpb", seed=3)
    assert wl.app.name == "gridnpb"
    assert len(wl.app.endpoints) == 9


def test_build_workload_background_only():
    net = campus_network()
    wl = build_workload(net, "none", duration=100.0)
    assert wl.app is None
    assert wl.compute_profile().total == 0.0


def test_build_workload_intensities_order():
    net = campus_network()
    rates = {}
    for level in INTENSITIES:
        wl = build_workload(net, "none", intensity=level, duration=100.0)
        rates[level] = wl.background[0].think_time
    assert rates["heavy"] < rates["moderate"] < rates["light"]


def test_build_workload_rejects_unknowns():
    net = campus_network()
    with pytest.raises(ValueError):
        build_workload(net, "quake3")
    with pytest.raises(ValueError):
        build_workload(net, "scalapack", intensity="ludicrous")


def test_workload_prepare_fixes_http_population():
    net = campus_network()
    wl = build_workload(net, "scalapack", seed=5)
    wl.prepare(net, np.random.default_rng(5))
    http = wl.background[0]
    assert http.pairs  # population selected
    from repro.routing.spf import build_routing

    tables = build_routing(net)
    assert http.predicted_flows(net, tables)


def test_workload_seed_controls_placement():
    net = campus_network()
    a = build_workload(net, "scalapack", seed=1)
    b = build_workload(net, "scalapack", seed=1)
    c = build_workload(net, "scalapack", seed=2)
    assert a.app.endpoints == b.app.endpoints
    assert a.app.endpoints != c.app.endpoints


def test_unprepared_workload_runs_alike_twice():
    """A workload never prepared draws its HTTP population from the first
    run's rng; a second run with the same seed must take the same draws,
    so the two runs compare train by train."""
    from repro.engine.kernel import run_kernel
    from repro.routing.spf import build_routing

    net = campus_network()
    tables = build_routing(net)
    wl = build_workload(net, "scalapack", duration=20.0)
    first, _ = run_kernel(net, tables, wl, seed=3)
    pairs = list(wl.background[0].pairs)
    second, _ = run_kernel(net, tables, wl, seed=3)
    assert wl.background[0].pairs == pairs
    assert second.n_events == first.n_events
    for field in ("time", "node", "next_node", "packets", "flow", "span"):
        assert np.array_equal(getattr(second, field), getattr(first, field))
