"""Multi-objective edge-weight combination (§2.3).

The paper combines the latency objective and the traffic objective with the
algorithm of Schloegel, Karypis & Kumar [18]:

1. partition with the latency weights alone → optimal cut ``C_latency``;
2. partition with the traffic weights alone → optimal cut ``C_bandwidth``;
3. set every edge to
   ``w = p · w_latency / C_latency + (1 − p) · w_bandwidth / C_bandwidth``
   where ``p`` is the user-controllable latency priority (default 0.6 — the
   paper's 6:4 ratio);
4. partition once more with the combined weights.

Steps 1–3 live here; the caller runs step 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graphbuild import link_weights_to_adjwgt
from repro.partition.api import part_graph
from repro.partition.csr import CSRGraph

__all__ = ["MultiObjective", "combine_objectives"]

_EPS = 1e-12


@dataclass(frozen=True)
class MultiObjective:
    """Result of the combination.

    Attributes
    ----------
    link_weights:
        Combined per-link weights for the final partitioning run.
    c_latency, c_bandwidth:
        The single-objective optimal cuts used as normalizers.
    p:
        The latency priority used.
    """

    link_weights: np.ndarray
    c_latency: float
    c_bandwidth: float
    p: float


def combine_objectives(
    graph: CSRGraph,
    link_index: np.ndarray,
    latency_weights: np.ndarray,
    traffic_weights: np.ndarray,
    k: int,
    p: float = 0.6,
    algorithm: str = "multilevel",
    tolerance: float = 1.05,
    seed: int = 0,
    target_fracs: np.ndarray | None = None,
    telemetry=None,
) -> MultiObjective:
    """Compute the §2.3 combined per-link edge weights.

    ``graph`` must already carry the vertex weights (constraints) and
    ``target_fracs`` the per-part shares that the final partitioning will
    use, so the normalizing single-objective runs see the same balance
    problem.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("latency priority p must be in [0, 1]")
    latency_weights = np.asarray(latency_weights, dtype=np.float64)
    traffic_weights = np.asarray(traffic_weights, dtype=np.float64)
    if latency_weights.shape != traffic_weights.shape:
        raise ValueError("objective weight vectors must be parallel")

    opts = dict(algorithm=algorithm, tolerance=tolerance, seed=seed,
                target_fracs=target_fracs, telemetry=telemetry)
    g_lat = graph.with_adjwgt(
        link_weights_to_adjwgt(latency_weights, link_index)
    )
    r_lat = part_graph(g_lat, k, **opts)
    g_bw = graph.with_adjwgt(
        link_weights_to_adjwgt(traffic_weights, link_index)
    )
    r_bw = part_graph(g_bw, k, **opts)

    c_lat = max(r_lat.weighted_cut, _EPS)
    c_bw = max(r_bw.weighted_cut, _EPS)
    combined = p * latency_weights / c_lat + (1.0 - p) * traffic_weights / c_bw
    return MultiObjective(
        link_weights=combined, c_latency=float(r_lat.weighted_cut),
        c_bandwidth=float(r_bw.weighted_cut), p=p,
    )
