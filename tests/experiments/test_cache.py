"""Artifact-cache tests: determinism, persistence, and key sensitivity."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.experiments.runner import RunnerConfig, evaluate_setup
from repro.experiments.setups import campus_setup
from repro.routing.spf import build_routing
from repro.runtime import ArtifactCache, RuntimeConfig, run_grid, stable_hash
from repro.topology.campus import campus_network


def small_campus():
    return campus_setup(
        "scalapack", intensity="light",
        workload_kwargs=dict(duration=50.0, http_servers=2,
                             clients_per_server=2),
    )


def outcomes_identical(a, b) -> bool:
    return all(
        pickle.dumps(getattr(a, f.name)) == pickle.dumps(getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


# --------------------------------------------------------------------- #
# stable_hash
# --------------------------------------------------------------------- #
def test_stable_hash_deterministic():
    obj = {"a": [1, 2.5, "x"], "b": np.arange(4), "c": (None, True)}
    assert stable_hash(obj) == stable_hash(
        {"b": np.arange(4), "a": [1, 2.5, "x"], "c": (None, True)}
    )
    assert stable_hash(obj) != stable_hash({"a": [1, 2.5, "y"]})


def test_stable_hash_distinguishes_types():
    assert stable_hash(1) != stable_hash(1.0)
    assert stable_hash("1") != stable_hash(1)
    assert stable_hash([1, 2]) != stable_hash((1, 2))


def test_stable_hash_network_fingerprint():
    assert stable_hash(campus_network()) == stable_hash(campus_network())
    n1, n2 = campus_network(), campus_network()
    n2.add_host("extra-host")
    assert stable_hash(n1) != stable_hash(n2)


def test_stable_hash_rejects_opaque_objects():
    with pytest.raises(TypeError):
        stable_hash(object())


# --------------------------------------------------------------------- #
# ArtifactCache mechanics
# --------------------------------------------------------------------- #
def test_cache_roundtrip_and_stats(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = cache.key_of("some", "key", 42)
    hit, value = cache.lookup("demo", key)
    assert not hit and value is None
    cache.store("demo", key, {"x": np.arange(3)})
    hit, value = cache.lookup("demo", key)
    assert hit and list(value["x"]) == [0, 1, 2]
    # Counters are kept by get_or_compute (lookup/store are the raw tier).
    cache.get_or_compute("demo", ("p",), lambda: 7)
    cache.get_or_compute("demo", ("p",), lambda: 7)
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.stores == 2  # explicit store() + the miss above
    assert cache.stats.hit_rate == 0.5
    assert "demo" in cache.stats.summary()


def test_cache_disk_persistence(tmp_path):
    key = ArtifactCache(tmp_path).key_of("k")
    ArtifactCache(tmp_path).store("demo", key, "payload")
    fresh = ArtifactCache(tmp_path)  # new instance, empty memory tier
    hit, value = fresh.lookup("demo", key)
    assert hit and value == "payload"


def test_cache_get_or_compute(tmp_path):
    cache = ArtifactCache(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return 123

    assert cache.get_or_compute("demo", ("a",), compute) == 123
    assert cache.get_or_compute("demo", ("a",), compute) == 123
    assert len(calls) == 1


def test_corrupt_cache_file_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path, memory=False)
    key = cache.key_of("k")
    cache.store("demo", key, "payload")
    (path,) = list(tmp_path.rglob("*.pkl"))
    path.write_bytes(b"not a pickle")
    hit, value = cache.lookup("demo", key)
    assert not hit and value is None


# --------------------------------------------------------------------- #
# Cached experiment runs
# --------------------------------------------------------------------- #
def test_cached_evaluation_identical_and_hits(tmp_path):
    setup = small_campus()
    plain = evaluate_setup(setup, approaches=("top", "profile"), seed=3)

    cache = ArtifactCache(tmp_path)
    cold = evaluate_setup(setup, approaches=("top", "profile"), seed=3,
                          cache=cache)
    assert cache.stats.hits == 0 or cache.stats.misses > 0
    misses_after_cold = cache.stats.misses

    warm = evaluate_setup(setup, approaches=("top", "profile"), seed=3,
                          cache=cache)
    assert cache.stats.misses == misses_after_cold  # no new misses
    assert cache.stats.hits >= misses_after_cold

    for name in ("top", "profile"):
        assert outcomes_identical(cold[name].outcome, plain[name].outcome)
        assert outcomes_identical(warm[name].outcome, plain[name].outcome)


def test_cache_key_sensitivity(tmp_path):
    """Different seed / config must never collide in the cache."""
    setup = small_campus()
    cache = ArtifactCache(tmp_path)
    a = evaluate_setup(setup, approaches=("top",), seed=1, cache=cache)
    b = evaluate_setup(setup, approaches=("top",), seed=2, cache=cache)
    assert a["top"].outcome.app_emulation_time != pytest.approx(
        b["top"].outcome.app_emulation_time, rel=1e-12
    )
    plain = evaluate_setup(setup, approaches=("top",), seed=2)
    assert outcomes_identical(b["top"].outcome, plain["top"].outcome)


def test_routing_cache_reuses_tables(tmp_path):
    net = campus_network()
    cache = ArtifactCache(tmp_path)
    t1 = build_routing(net, cache=cache)
    t2 = build_routing(net, cache=cache)
    assert cache.stats.hits >= 1
    assert t2.net is net
    assert np.array_equal(t1.next_hop, t2.next_hop)

    # A disk-only hit (fresh process simulation) rebinds the live network.
    fresh = ArtifactCache(tmp_path)
    t3 = build_routing(net, cache=fresh)
    assert fresh.stats.hits == 1
    assert t3.net is net
    assert np.array_equal(t1.next_hop, t3.next_hop)


def test_repeat_parallel_sweep_hits_cache(tmp_path):
    """ISSUE acceptance: a repeated sweep is >=90% cache hits."""
    setup = small_campus()
    seeds = (1, 2)
    cold_cache = ArtifactCache(tmp_path)
    cold = run_grid(setup, seeds, ("top", "profile"),
                    runtime=RuntimeConfig(workers=2), cache=cold_cache)
    assert not cold.failures()

    warm_cache = ArtifactCache(tmp_path)
    warm = run_grid(setup, seeds, ("top", "profile"),
                    runtime=RuntimeConfig(workers=2), cache=warm_cache)
    assert not warm.failures()
    # Worker processes' counters merge into the caller's cache.
    total = warm_cache.stats.hits + warm_cache.stats.misses
    assert total > 0
    assert warm_cache.stats.hits / total >= 0.9
    assert (sum(c.duration_s for c in warm.cells)
            < sum(c.duration_s for c in cold.cells))

    for seed in seeds:
        for name in ("top", "profile"):
            assert outcomes_identical(
                warm.outcome(setup.name, seed, name),
                cold.outcome(setup.name, seed, name),
            )
