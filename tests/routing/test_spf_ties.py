"""Tied shortest paths: the certified next-hop fill against the oracle.

The dense build certifies each row of the transposed predecessor matrix
and resolves the rows that fail by pointer doubling.  Equal small-integer
latencies tie shortest paths, so the transposed candidate disagrees with
the source's own tree on some rows and the fallback must run; links that
are down leave some pairs unreachable.  Every table must equal the
scalar reference kernel's bit for bit, dense and blocked alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing._reference import compute_routing_reference
from repro.routing.perf import RoutingStats
from repro.routing.spf import build_routing
from repro.topology import synth_network
from tests.routing.ties import equal_latencies, tied_net


def test_tied_tables_match_reference():
    fallbacks = []

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        extra=st.integers(0, 40),
        down=st.integers(0, 6),
        levels=st.integers(1, 3),
        block_size=st.sampled_from((None, 17)),
    )
    def tied_build_matches(seed, n, extra, down, levels, block_size):
        net = tied_net(np.random.default_rng(seed), n, extra=extra,
                       down=down, levels=levels)
        stats = RoutingStats()
        tables = build_routing(net, "latency", block_size=block_size,
                               stats=stats)
        oracle = compute_routing_reference(net, "latency")
        assert np.array_equal(tables.dist, oracle.dist)
        assert np.array_equal(tables.next_hop, oracle.next_hop)
        fallbacks.append(stats.fallback_rows)

    tied_build_matches()
    # The property must not pass on certified rows alone.
    assert any(fallbacks)


def test_equal_latencies_tie_like_hops():
    """Flattened latencies tie exactly where ``hops`` does: the same next
    hops, and the same rows fall back."""
    net = equal_latencies(
        synth_network(n_routers=60, hosts_per_router=0.5, seed=2))
    lat_stats, hops_stats = RoutingStats(), RoutingStats()
    tables = build_routing(net, "latency", stats=lat_stats)
    hops = build_routing(net, "hops", stats=hops_stats)
    assert np.array_equal(tables.next_hop, hops.next_hop)
    assert lat_stats.fallback_rows == hops_stats.fallback_rows > 0
    oracle = compute_routing_reference(net, "latency")
    assert np.array_equal(tables.dist, oracle.dist)
    assert np.array_equal(tables.next_hop, oracle.next_hop)
