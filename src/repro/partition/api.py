"""Facade for all partitioners: :func:`part_graph`.

This mirrors the METIS entry point the paper calls: one function taking the
input graph (vertex weights = constraints, edge weights = objective), the
part count, and tolerance, and returning an assignment plus quality
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.partition.baselines import (
    greedy_kcluster,
    linear_partition,
    random_partition,
)
from repro.partition.csr import CSRGraph
from repro.partition.metrics import (
    edge_cut,
    imbalance_vector,
    max_imbalance,
    part_weights,
    weighted_edge_cut,
)
from repro.partition.multilevel import multilevel_kway
from repro.partition.recursive import recursive_bisection
from repro.partition.spectral import spectral_partition

__all__ = [
    "PartitionResult",
    "part_graph",
    "resolve_algorithm",
    "ALGORITHMS",
    "ALIASES",
]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a partitioning call.

    Attributes
    ----------
    parts:
        ``int64[n]`` assignment in ``0..k-1``.
    k, algorithm, seed:
        Echo of the request.
    edge_cut:
        Unweighted cut (number of crossing edges).
    weighted_cut:
        Weighted cut — the optimization objective.
    imbalance:
        Per-constraint imbalance factors (1.0 = perfect).
    part_weight:
        ``(k, ncon)`` per-part constraint sums.
    """

    parts: np.ndarray
    k: int
    algorithm: str
    seed: int
    edge_cut: int
    weighted_cut: float
    imbalance: np.ndarray
    part_weight: np.ndarray

    @property
    def max_imbalance(self) -> float:
        """Worst imbalance factor across constraints."""
        return float(self.imbalance.max()) if len(self.imbalance) else 1.0

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.algorithm}: k={self.k} cut={self.weighted_cut:.3f} "
            f"(edges={self.edge_cut}) imbalance={self.max_imbalance:.3f}"
        )


def _multilevel(graph, k, tolerance, rng, target_fracs):
    return multilevel_kway(graph, k, tolerance=tolerance, rng=rng,
                           target_fracs=target_fracs)


def _recursive(graph, k, tolerance, rng, target_fracs):
    return recursive_bisection(graph, k, tolerance=tolerance, rng=rng,
                               target_fracs=target_fracs)


def _spectral(graph, k, tolerance, rng, target_fracs):
    if target_fracs is not None:
        raise ValueError("spectral does not support target_fracs")
    return spectral_partition(graph, k, tolerance=tolerance, rng=rng)


def _random(graph, k, tolerance, rng, target_fracs):
    return random_partition(graph, k, rng=rng, target_fracs=target_fracs)


def _linear(graph, k, tolerance, rng, target_fracs):
    return linear_partition(graph, k, rng=rng, target_fracs=target_fracs)


def _kcluster(graph, k, tolerance, rng, target_fracs):
    if target_fracs is not None:
        raise ValueError("greedy-kcluster does not support target_fracs")
    return greedy_kcluster(graph, k, rng=rng)


ALGORITHMS: dict[str, Callable] = {
    "multilevel": _multilevel,
    "recursive": _recursive,
    "spectral": _spectral,
    "random": _random,
    "linear": _linear,
    "greedy-kcluster": _kcluster,
}

#: Accepted shorthands, resolved case-insensitively by :func:`part_graph`.
ALIASES: dict[str, str] = {
    "metis": "multilevel",
    "kway": "multilevel",
    "ml": "multilevel",
    "bisection": "recursive",
    "rb": "recursive",
    "hierarchical": "linear",
    "greedy": "greedy-kcluster",
    "kcluster": "greedy-kcluster",
}


def resolve_algorithm(algorithm: str) -> str:
    """Canonical algorithm name for ``algorithm`` (case-insensitive,
    ``_``/``-`` agnostic, aliases accepted); raises a ValueError listing
    the valid choices otherwise."""
    name = str(algorithm).strip().lower().replace("_", "-")
    name = ALIASES.get(name, name)
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; valid algorithms: "
            f"{', '.join(sorted(ALGORITHMS))} "
            f"(aliases: {', '.join(sorted(ALIASES))})"
        )
    return name


def part_graph(
    graph: CSRGraph,
    k: int,
    *,
    algorithm: str = "multilevel",
    tolerance: float = 1.05,
    seed: int = 0,
    target_fracs: np.ndarray | None = None,
    telemetry=None,
) -> PartitionResult:
    """Partition ``graph`` into ``k`` parts.

    Everything after the leading ``(graph, k)`` is keyword-only.

    Parameters
    ----------
    graph:
        Input graph; vertex-weight columns are the balance constraints and
        edge weights are the minimized objective.  Both must be finite.
    k:
        Number of parts (engine nodes in the emulation use case).
    algorithm:
        One of ``multilevel`` (default, METIS-like), ``recursive``,
        ``spectral``, ``random``, ``linear``, ``greedy-kcluster``.
        Matched case-insensitively; common aliases (``metis``, ``kway``,
        ``rb``, ...) are accepted.
    tolerance:
        Multiplicative balance envelope for the quality algorithms; finite
        and at least 1.0.
    seed:
        Seed for the dedicated RNG; identical calls are deterministic.
    target_fracs:
        Optional per-part weight shares (heterogeneous engine capacities),
        finite and positive, normalized to sum to 1; supported by
        ``multilevel``, ``recursive``, ``random`` and ``linear``.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`; records a
        ``partition/<algorithm>`` span plus call/vertex/edge counters.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    algorithm = resolve_algorithm(algorithm)
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (np.isfinite(tolerance) and tolerance >= 1.0):
        raise ValueError(f"tolerance must be finite and >= 1.0, got {tolerance!r}")
    # A NaN gain never equals itself, so FM would re-push it forever.
    for name, weights in (("adjwgt", graph.adjwgt), ("vwgt", graph.vwgt)):
        if not np.isfinite(weights).all():
            raise ValueError(f"graph {name} must be finite")
    if target_fracs is not None:
        target_fracs = np.asarray(target_fracs, dtype=np.float64)
        if target_fracs.shape != (k,):
            raise ValueError(f"target_fracs must have shape ({k},)")
        if not np.all(np.isfinite(target_fracs) & (target_fracs > 0)):
            raise ValueError("target_fracs must be finite and positive")
        target_fracs = target_fracs / target_fracs.sum()
    with tel.span(f"partition/{algorithm}"):
        if graph.n == 0:
            parts = np.zeros(0, dtype=np.int64)
        elif k == 1:
            parts = np.zeros(graph.n, dtype=np.int64)
        else:
            rng = np.random.default_rng(seed)
            parts = ALGORITHMS[algorithm](
                graph, k, tolerance, rng, target_fracs
            )
    parts = np.asarray(parts, dtype=np.int64)
    tel.count("partition.calls")
    tel.count("partition.vertices", graph.n)
    return PartitionResult(
        parts=parts,
        k=k,
        algorithm=algorithm,
        seed=seed,
        edge_cut=edge_cut(graph, parts) if graph.n else 0,
        weighted_cut=weighted_edge_cut(graph, parts) if graph.n else 0.0,
        imbalance=imbalance_vector(graph, parts, k, target_fracs)
        if graph.n
        else np.ones(graph.ncon),
        part_weight=part_weights(graph, parts, k),
    )
