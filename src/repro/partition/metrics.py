"""Partition quality diagnostics: edge cut, part weights, imbalance.

These are the quantities the multilevel driver optimizes and the quantities
the experiment harness reports when comparing partitioners.
"""

from __future__ import annotations

import numpy as np

from repro.partition.csr import CSRGraph

__all__ = [
    "edge_cut",
    "weighted_edge_cut",
    "part_weights",
    "max_imbalance",
    "imbalance_vector",
    "is_balanced",
    "cut_edges",
]


def _check_parts(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    parts = np.asarray(parts, dtype=np.int64)
    if parts.shape != (graph.n,):
        raise ValueError(f"parts must have shape ({graph.n},), got {parts.shape}")
    return parts


def edge_cut(graph: CSRGraph, parts: np.ndarray) -> int:
    """Number of undirected edges whose endpoints lie in different parts."""
    parts = _check_parts(graph, parts)
    crossing = parts[graph.slot_src] != parts[graph.adjncy]
    return int(crossing.sum()) // 2


def weighted_edge_cut(graph: CSRGraph, parts: np.ndarray) -> float:
    """Total weight of undirected edges straddling parts.

    This is the objective the paper minimizes (with edge weights set per
    mapping approach — latency, predicted traffic, or profiled traffic).
    """
    parts = _check_parts(graph, parts)
    crossing = parts[graph.slot_src] != parts[graph.adjncy]
    return float(graph.adjwgt[crossing].sum()) / 2.0


def cut_edges(graph: CSRGraph, parts: np.ndarray) -> list[tuple[int, int, float]]:
    """The straddling edges themselves, each once with ``u < v``."""
    parts = _check_parts(graph, parts)
    out = []
    for u, v, w in graph.edge_list():
        if parts[u] != parts[v]:
            out.append((u, v, w))
    return out


def part_weights(graph: CSRGraph, parts: np.ndarray, k: int) -> np.ndarray:
    """Per-part vertex-weight sums, shape ``(k, ncon)``."""
    parts = _check_parts(graph, parts)
    out = np.zeros((k, graph.ncon), dtype=np.float64)
    np.add.at(out, parts, graph.vwgt)
    return out


def imbalance_vector(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """Per-constraint load imbalance: worst ratio of a part's weight to its
    target share (``total[i] / k`` for uniform targets).

    A perfectly balanced partition scores 1.0 in every constraint.
    Constraints whose total weight is zero score 1.0 by convention.
    ``target_fracs`` supports uneven (heterogeneous-capacity) targets.
    """
    weights = part_weights(graph, parts, k)
    totals = graph.total_vwgt()
    if target_fracs is None:
        fracs = np.full(k, 1.0 / k)
    else:
        fracs = np.asarray(target_fracs, dtype=np.float64)
        fracs = fracs / fracs.sum()
    out = np.ones(graph.ncon, dtype=np.float64)
    for i in range(graph.ncon):
        if totals[i] > 0:
            ratios = weights[:, i] / (totals[i] * fracs)
            out[i] = float(ratios.max())
    return out


def max_imbalance(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    target_fracs: np.ndarray | None = None,
) -> float:
    """Worst imbalance across all constraints (1.0 = perfect)."""
    return float(imbalance_vector(graph, parts, k, target_fracs).max())


def is_balanced(
    graph: CSRGraph, parts: np.ndarray, k: int, tolerance: float = 1.05
) -> bool:
    """Whether every constraint is within the multiplicative tolerance."""
    return max_imbalance(graph, parts, k) <= tolerance + 1e-12
