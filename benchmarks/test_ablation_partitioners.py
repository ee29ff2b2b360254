"""Ablation — the partitioning substrate itself.

The paper (§5) credits METIS-class multilevel partitioning and contrasts it
with the simple hierarchical and randomized greedy k-cluster schemes other
emulators use.  We run every algorithm in :mod:`repro.partition` on the
PROFILE-weighted Campus graph and on the raw BRITE graph, reporting cut and
balance; and we benchmark the multilevel partitioner on the largest graph.
"""

import numpy as np

from benchmarks.conftest import CAMPAIGN_SEED, run_once
from repro.core.graphbuild import (
    latency_objective_weights,
    link_weights_to_adjwgt,
    network_csr,
)
from repro.partition.api import ALGORITHMS, part_graph
from repro.topology.brite import brite_network
from repro.topology.campus import campus_network

QUALITY = ("multilevel", "recursive", "spectral")
BASELINE = ("random", "linear", "greedy-kcluster")


def sweep_algorithms():
    rows = {}
    for name, net, k in (
        ("campus", campus_network(), 3),
        ("brite", brite_network(n_routers=160, n_hosts=132,
                                seed=CAMPAIGN_SEED), 8),
    ):
        graph, link_index = network_csr(net)
        graph = graph.with_adjwgt(
            link_weights_to_adjwgt(latency_objective_weights(net), link_index)
        )
        for algo in sorted(ALGORITHMS):
            r = part_graph(graph, k, algorithm=algo, tolerance=1.2,
                           seed=CAMPAIGN_SEED)
            rows[(name, algo)] = (r.weighted_cut, r.max_imbalance)
    return rows


def test_ablation_partitioner_quality(benchmark):
    rows = run_once(benchmark, sweep_algorithms)
    print()
    print("graph    algorithm         weighted_cut   imbalance")
    for (name, algo), (cut, imb) in sorted(rows.items()):
        print(f"{name:8s} {algo:16s} {cut:12.3f}   {imb:9.3f}")

    for graph_name in ("campus", "brite"):
        best_quality = min(rows[(graph_name, a)][0] for a in QUALITY)
        worst_quality = max(rows[(graph_name, a)][0] for a in QUALITY)
        random_cut = rows[(graph_name, "random")][0]
        # Every quality algorithm beats random by a wide margin.
        assert worst_quality < random_cut * 0.7
        # Multilevel is at or near the best.
        assert rows[(graph_name, "multilevel")][0] <= best_quality * 2.0


def test_multilevel_speed_on_large_graph(benchmark):
    """Partitioning cost on the §4.2.3 graph (what a user pays per remap)."""
    net = brite_network(n_routers=200, n_hosts=364, seed=7)
    graph, link_index = network_csr(net)
    graph = graph.with_adjwgt(
        link_weights_to_adjwgt(latency_objective_weights(net), link_index)
    )

    result = benchmark(part_graph, graph, 20, algorithm="multilevel",
                       tolerance=1.2, seed=3)
    assert len(np.unique(result.parts)) == 20
