"""Spectral partitioning baseline.

Recursive spectral bisection on the weighted graph Laplacian: the Fiedler
vector orders vertices, and the split point is chosen at the target weight
fraction.  Included because spectral methods are the classic alternative the
graph-partitioning literature (Chaco et al.) compares against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.partition.csr import CSRGraph
from repro.partition.fm import fm_refine
from repro.partition.recursive import induced_subgraph

__all__ = ["spectral_bisection", "spectral_partition", "fiedler_vector"]

_DENSE_CUTOFF = 800  # use dense eigensolver below this size (more robust)


def _laplacian(graph: CSRGraph) -> sp.csr_matrix:
    n = graph.n
    rows = graph.slot_src
    adj = sp.csr_matrix(
        (graph.adjwgt, (rows, graph.adjncy)), shape=(n, n)
    )
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return sp.diags(deg) - adj


def fiedler_vector(graph: CSRGraph, rng: np.random.Generator) -> np.ndarray:
    """Second-smallest eigenvector of the weighted Laplacian.

    Falls back to a dense solve for small or ill-conditioned cases.
    """
    n = graph.n
    if n < 3:
        return np.arange(n, dtype=np.float64)
    lap = _laplacian(graph)
    if n <= _DENSE_CUTOFF:
        vals, vecs = np.linalg.eigh(lap.toarray())
        order = np.argsort(vals)
        return vecs[:, order[1]]
    v0 = rng.standard_normal(n)
    try:
        vals, vecs = spla.eigsh(lap, k=2, sigma=0, which="LM", v0=v0)
        order = np.argsort(vals)
        return vecs[:, order[1]]
    except Exception:
        vals, vecs = np.linalg.eigh(lap.toarray())
        order = np.argsort(vals)
        return vecs[:, order[1]]


def spectral_bisection(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    tolerance: float = 1.05,
    fm_passes: int = 4,
) -> np.ndarray:
    """0/1 bisection from the Fiedler ordering, FM-polished."""
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    fiedler = fiedler_vector(graph, rng)
    order = np.argsort(fiedler, kind="stable")
    norm = graph.vwgt / np.where(
        graph.total_vwgt() > 0, graph.total_vwgt(), 1.0
    )
    mean_share = norm.mean(axis=1)
    cum = np.cumsum(mean_share[order])
    split = int(np.searchsorted(cum, target_frac, side="left")) + 1
    split = min(max(split, 1), n - 1) if n > 1 else 0
    parts = np.ones(n, dtype=np.int64)
    parts[order[:split]] = 0
    return fm_refine(
        graph, parts, target_frac=target_frac, tolerance=tolerance,
        max_passes=fm_passes, rng=rng,
    )


def spectral_partition(
    graph: CSRGraph,
    k: int,
    tolerance: float = 1.05,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """k-way partition by recursive spectral bisection."""
    rng = rng or np.random.default_rng(0)
    parts = np.zeros(graph.n, dtype=np.int64)
    _recurse(graph, np.arange(graph.n, dtype=np.int64), k, 0, parts,
             tolerance, rng)
    return parts


def _recurse(graph, vertices, k, base, parts, tolerance, rng) -> None:
    if k == 1 or len(vertices) == 0:
        parts[vertices] = base
        return
    sub, back = induced_subgraph(graph, vertices)
    k_left = (k + 1) // 2
    if sub.n <= 1:
        parts[back] = base
        return
    bisect = spectral_bisection(sub, k_left / k, rng, tolerance=tolerance)
    left, right = back[bisect == 0], back[bisect == 1]
    if len(left) == 0 or len(right) == 0:
        order = rng.permutation(back)
        split = max(1, int(round(len(order) * k_left / k)))
        left, right = order[:split], order[split:]
    _recurse(graph, left, k_left, base, parts, tolerance, rng)
    _recurse(graph, right, k - k_left, base + k_left, parts, tolerance, rng)
