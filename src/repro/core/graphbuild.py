"""Building the partition input graph from the emulated network.

§2.2.1: "The input graph G is defined by two categories of parameters:
network structure and traffic information. ... Network traffic information
is used to define edge weights in the graph, and it may also affect vertex
weights."  This module provides the structure side — the CSR skeleton with a
CSR-slot → link-id index so any per-link weight vector can be dropped in —
and the individual weight recipes the approaches compose.  The skeleton is
built from :meth:`Network.link_endpoint_arrays` with one stable sort, in
the node-by-node order of :meth:`Network.neighbors`.
"""

from __future__ import annotations

import numpy as np

from repro.partition.csr import CSRGraph
from repro.routing.tables import memory_weights
from repro.topology.network import Network

__all__ = [
    "network_csr",
    "link_weights_to_adjwgt",
    "latency_objective_weights",
    "bandwidth_vertex_weights",
    "combine_compute_memory",
]


def network_csr(net: Network) -> tuple[CSRGraph, np.ndarray]:
    """Convert a network to a unit-weight CSR graph.

    Returns ``(graph, link_index)`` where ``link_index`` is parallel to
    ``graph.adjncy``: the link id behind each CSR adjacency slot.  Per-link
    weight vectors become CSR edge weights via
    :func:`link_weights_to_adjwgt`.

    Every node's slots list its links in link-id order, the order of
    :meth:`Network.neighbors` (links are appended to both endpoints as
    they are added, and a changed link keeps its place).  Link ``i``
    owns slots ``2i`` (at ``u``) and ``2i + 1`` (at ``v``) before one
    stable sort on the owner node, which keeps that order.
    """
    n = net.n_nodes
    u, v, _, _ = net.link_endpoint_arrays()
    owner = np.column_stack((u, v)).ravel()
    other = np.column_stack((v, u)).ravel()
    order = np.argsort(owner, kind="stable")
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=xadj[1:])
    graph = CSRGraph(
        xadj=xadj, adjncy=other[order],
        adjwgt=np.ones(len(order), dtype=np.float64),
        vwgt=np.ones((n, 1), dtype=np.float64),
    )
    return graph, order // 2


def link_weights_to_adjwgt(
    link_weights: np.ndarray, link_index: np.ndarray
) -> np.ndarray:
    """Expand a per-link weight vector into a CSR-parallel edge weight
    array (each undirected edge gets the same weight in both slots)."""
    link_weights = np.asarray(link_weights, dtype=np.float64)
    return link_weights[link_index]


def latency_objective_weights(net: Network, exponent: float = 2.0) -> np.ndarray:
    """Per-link weights for the *maximize cut latency* objective.

    Graph partitioners minimize the cut, so the objective is inverted:
    ``w = (min_latency / latency) ** exponent`` ∈ (0, 1].  Low-latency links
    become heavy (expensive to cut, i.e. kept inside a partition, where they
    cannot shrink the lookahead); high-latency links become cheap to cut.

    The conservative window is set by the *minimum* cut latency, so the
    penalty for cutting a short link must dominate any number of long-link
    cuts; the super-linear exponent (default 2) encodes that.
    """
    lats = np.array(
        [link.latency_s for link in net.links], dtype=np.float64
    )
    if len(lats) == 0:
        return lats
    return (lats.min() / lats) ** exponent


def bandwidth_vertex_weights(net: Network) -> np.ndarray:
    """TOP's vertex weight: total link bandwidth in and out of each node
    (§3.1), normalized to Gbit/s for conditioning."""
    out = np.array(
        [net.node_total_bandwidth(v) for v in range(net.n_nodes)],
        dtype=np.float64,
    )
    return out / 1e9


def combine_compute_memory(
    compute: np.ndarray,
    net: Network,
    memory_weight: float = 0.1,
    mode: str = "sum",
) -> np.ndarray:
    """Combine the compute and memory requirements into vertex weights.

    §2.2.2: the vertex weight is a "weighted sum of computation and memory
    requirement"; the paper also notes multi-constraint balancing as an
    alternative.  Both columns are normalized to mean 1 before combining so
    ``memory_weight`` is a unit-free priority (the second "magic number" of
    §5; small when engine nodes have plenty of RAM).

    Returns ``(n, 1)`` for ``mode="sum"`` or ``(n, 2)`` for
    ``mode="constraint"``.
    """
    compute = np.asarray(compute, dtype=np.float64)
    memory = memory_weights(net)

    def normalized(x: np.ndarray) -> np.ndarray:
        mean = x.mean()
        return x / mean if mean > 0 else x

    comp_n, mem_n = normalized(compute), normalized(memory)
    if mode == "sum":
        return (comp_n + memory_weight * mem_n)[:, None]
    if mode == "constraint":
        return np.stack([comp_n, memory_weight * mem_n], axis=1)
    raise ValueError(f"unknown memory mode {mode!r}")
