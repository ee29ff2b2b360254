"""Error-path tests for the synthetic hierarchical generator.

Configuration mistakes must fail fast with a :class:`SynthError` whose
message names the offending parameter, its value, and the constraint —
these messages are what a user sees, so the tests pin them.
"""

import pytest

from repro.topology.synth import SynthConfig, SynthError, synth_network


@pytest.mark.parametrize("kwargs,match", [
    (dict(n_routers=1), r"n_routers must be >= 2, got 1"),
    (dict(n_routers=0), r"n_routers must be >= 2, got 0"),
    (dict(ba_m=0), r"ba_m must be >= 1, got 0"),
    (dict(as_m=0), r"as_m must be >= 1, got 0"),
    (dict(target_as_size=0), r"target_as_size must be >= 1, got 0"),
    (dict(plane_size_km=0.0), r"plane_size_km must be positive, got 0.0"),
    (dict(plane_size_km=-10.0),
     r"plane_size_km must be positive, got -10.0"),
    (dict(n_as=-1), r"n_as must be >= 1 \(or 0 to derive it\), got -1"),
    (dict(n_routers=10, n_as=5, ba_m=3),
     r"n_as=5 leaves fewer than ba_m\+1=4 routers per AS "
     r"\(n_routers=10\); lower n_as or ba_m"),
    (dict(n_hosts=-1), r"n_hosts must be >= 0, got -1"),
    (dict(hosts_per_router=-0.5),
     r"hosts_per_router must be >= 0, got -0.5"),
])
def test_bad_config_message(kwargs, match):
    with pytest.raises(SynthError, match=match):
        synth_network(**kwargs)


def test_synth_error_is_a_value_error():
    with pytest.raises(ValueError):
        synth_network(n_routers=1)


def test_config_object_and_overrides_agree():
    """Errors fire identically whether the bad value arrives via a config
    object or a keyword override."""
    with pytest.raises(SynthError, match="ba_m must be >= 1"):
        synth_network(SynthConfig(ba_m=0))
    with pytest.raises(SynthError, match="ba_m must be >= 1"):
        synth_network(SynthConfig(), ba_m=0)


def test_derived_n_as_respects_min_as_size():
    """When n_as is derived it never violates the per-AS minimum, so the
    default configuration can't be made to fail via n_routers alone."""
    for n in (2, 3, 5, 17, 51, 230):
        net = synth_network(n_routers=n, hosts_per_router=0.0)
        assert len(net.routers()) == n


def test_explicit_n_hosts_overrides_ratio():
    net = synth_network(n_routers=40, hosts_per_router=3.0, n_hosts=7)
    assert len(net.hosts()) == 7


def test_zero_hosts_allowed():
    net = synth_network(n_routers=30, hosts_per_router=0.0)
    assert len(net.hosts()) == 0
    net2 = synth_network(n_routers=30, n_hosts=0)
    assert len(net2.hosts()) == 0
