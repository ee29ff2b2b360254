"""Smoke tests for the ``repro.api`` facade (and its top-level re-export)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import TOPOLOGIES, load_topology
from repro.topology.network import Network

SMALL_WORKLOAD = dict(duration=50.0, http_servers=2, clients_per_server=2)


# --------------------------------------------------------------------- #
# Re-exports
# --------------------------------------------------------------------- #
def test_top_level_reexports():
    for name in ("load_topology", "build_mapping", "run_experiment",
                 "sweep"):
        assert callable(getattr(repro, name))
        assert name in dir(repro)
        assert name in repro.__all__
    with pytest.raises(AttributeError):
        repro.no_such_function


# --------------------------------------------------------------------- #
# load_topology
# --------------------------------------------------------------------- #
def test_load_topology_builtins():
    for name in TOPOLOGIES:
        net = load_topology(name)
        assert isinstance(net, Network)
        assert len(net.nodes) > 0


def test_load_topology_case_insensitive():
    assert load_topology("Campus").summary() == \
        load_topology("campus").summary()


def test_load_topology_kwargs_forwarded():
    net = load_topology("brite", n_routers=12, n_hosts=8, seed=5)
    assert len(net.routers()) == 12
    assert len(net.hosts()) == 8


def test_load_topology_dml(tmp_path):
    reference = load_topology("campus")
    from repro.topology import dml

    path = tmp_path / "campus.dml"
    path.write_text(dml.dumps(reference))
    loaded = load_topology(str(path))
    assert loaded.fingerprint() == reference.fingerprint()
    with pytest.raises(TypeError):
        load_topology(str(path), seed=1)


def test_load_topology_unknown():
    with pytest.raises(ValueError, match="unknown topology"):
        load_topology("no-such-topology")


# --------------------------------------------------------------------- #
# build_mapping
# --------------------------------------------------------------------- #
def test_build_mapping_top():
    net = load_topology("campus")
    mapping = repro.build_mapping(net, 3, "top")
    assert mapping.parts.shape == (len(net.nodes),)
    assert set(np.unique(mapping.parts)) <= set(range(3))


def test_build_mapping_place_needs_workload():
    net = load_topology("campus")
    with pytest.raises(ValueError, match="workload"):
        repro.build_mapping(net, 3, "place")


def test_build_mapping_place_and_profile():
    from repro.experiments.workloads import build_workload

    net = load_topology("campus")
    workload = build_workload(net, "scalapack", seed=1,
                              intensity="light", **SMALL_WORKLOAD)
    place = repro.build_mapping(net, 3, "place", workload=workload, seed=1)
    profile = repro.build_mapping(net, 3, "profile", workload=workload,
                                  seed=1)
    for mapping in (place, profile):
        assert mapping.parts.shape == (len(net.nodes),)


def test_build_mapping_unknown_approach():
    net = load_topology("campus")
    with pytest.raises(ValueError, match="unknown approach"):
        repro.build_mapping(net, 3, "bogus")


# --------------------------------------------------------------------- #
# run_experiment / sweep
# --------------------------------------------------------------------- #
def test_run_experiment_by_name():
    results = repro.run_experiment(
        "campus", app="scalapack", approaches=("top",), seed=1,
        intensity="light", workload_kwargs=SMALL_WORKLOAD,
    )
    assert set(results) == {"top"}
    outcome = results["top"].outcome
    assert outcome.load_imbalance >= 0.0
    assert outcome.app_emulation_time > 0.0


def test_run_experiment_with_prebuilt_network():
    net = load_topology("campus")
    results = repro.run_experiment(
        net, app="scalapack", k=3, approaches=("top",), seed=1,
        intensity="light", workload_kwargs=SMALL_WORKLOAD,
    )
    assert set(results) == {"top"}
    with pytest.raises(ValueError, match="k is required"):
        repro.run_experiment(net, approaches=("top",))


def test_run_experiment_unknown_topology():
    with pytest.raises(ValueError, match="unknown topology"):
        repro.run_experiment("no-such-topology")


def test_sweep_serial_matches_sweep_setup():
    from repro.experiments.setups import campus_setup
    from repro.experiments.sweep import sweep_setup

    facade = repro.sweep(
        "campus", seeds=(1, 2), approaches=("top",), intensity="light",
        workload_kwargs=SMALL_WORKLOAD, workers=0,
    )
    setup = campus_setup("scalapack", intensity="light",
                         workload_kwargs=dict(SMALL_WORKLOAD))
    direct = sweep_setup(setup, seeds=(1, 2), approaches=("top",))
    assert facade == direct


def test_k_applies_to_an_experiment_setup_without_mutating_it():
    from dataclasses import replace

    from repro.experiments.setups import campus_setup
    from repro.experiments.sweep import sweep_setup

    setup = campus_setup("scalapack", intensity="light",
                         workload_kwargs=dict(SMALL_WORKLOAD))
    assert setup.n_engine_nodes == 3
    results = repro.run_experiment(setup, k=2, approaches=("top",), seed=1)
    assert results["top"].mapping.k == 2
    facade = repro.sweep(setup, k=2, seeds=(1,), approaches=("top",),
                         workers=0)
    direct = sweep_setup(replace(setup, n_engine_nodes=2), seeds=(1,),
                         approaches=("top",))
    assert facade == direct
    assert setup.n_engine_nodes == 3
