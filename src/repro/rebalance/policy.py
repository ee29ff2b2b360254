"""Pluggable rebalancing policies: static / hysteresis / kurve.

A policy answers one question at each trigger: *given the last observation
bin's per-node loads, which (neighborhood-local) migration set should run
next?*  All three work over the incremental-refinement machinery —
the CSR connectivity table and boundary tests of
:mod:`repro.partition.kwayrefine` — and all randomness flows through the
rebalancer's single seeded generator, so a run's decisions are a pure
function of (workload, seed).

- ``static`` — the paper's baseline: balance before the run, never move.
- ``hysteresis`` — :func:`repro.partition.kwayrefine.kway_refine` with the
  observed loads as vertex weights, adopted only when the predicted gain
  beats the migration bill by the hysteresis factor.
- ``kurve`` — game-theoretic iterative repartitioning (Kurve, Kothari &
  Ranka): boundary vertices play best-response rounds against a blended
  computation + communication + migration cost, until no player improves.

Every policy returns a full candidate assignment (or ``None`` to decline);
the monitor enforces the universal adoption gate — a candidate is executed
only if it *strictly* reduces the predicted imbalance signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.imbalance import load_imbalance
from repro.partition.csr import CSRGraph
from repro.partition.kwayrefine import kway_refine, part_connectivity
from repro.partition.perf import RefineStats

__all__ = [
    "ProposalState",
    "RebalancePolicy",
    "StaticPolicy",
    "HysteresisPolicy",
    "KurvePolicy",
    "POLICIES",
    "boundary_vertices",
]


def boundary_vertices(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbor in another part (ascending)."""
    n = graph.n
    if n == 0 or len(graph.adjncy) == 0:
        return np.zeros(0, dtype=np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cut = parts[src] != parts[graph.adjncy]
    mask = np.zeros(n, dtype=bool)
    mask[src[cut]] = True
    return np.nonzero(mask)[0]


@dataclass(frozen=True)
class ProposalState:
    """Everything a policy may look at when proposing a migration set.

    ``graph`` carries the observed bin loads as vertex weights (balance)
    and the latency-objective weights as edge weights (cut quality);
    ``parts`` is the live assignment — policies must copy, never mutate.
    """

    graph: CSRGraph
    parts: np.ndarray
    k: int
    node_loads: np.ndarray
    lp_loads: np.ndarray
    state_bytes: np.ndarray
    config: "object"
    rng: np.random.Generator
    stats: RefineStats


def _predicted_imbalance(state: ProposalState, cand: np.ndarray) -> float:
    loads = np.bincount(cand, weights=state.node_loads, minlength=state.k)
    return load_imbalance(loads)


class RebalancePolicy:
    """Base: propose a candidate assignment, or ``None`` to sit still."""

    name = "abstract"
    #: Static policies never trigger (the monitor skips evaluation).
    is_static = False

    def propose(self, state: ProposalState) -> np.ndarray | None:
        raise NotImplementedError


class StaticPolicy(RebalancePolicy):
    """Never migrate — the paper's pre-run PLACE/PROFILE baseline."""

    name = "static"
    is_static = True

    def propose(self, state: ProposalState) -> np.ndarray | None:
        return None


class HysteresisPolicy(RebalancePolicy):
    """Incremental k-way refinement behind a gain-vs-migration-bill gate.

    The candidate comes from :func:`kway_refine` over the observed loads
    (capped at ``max_moves`` — the neighborhood-local increment); it is
    adopted only when the predicted imbalance gain, scaled to one bin of
    virtual time, exceeds ``hysteresis ×`` the migration bill (payload
    bytes × per-byte cost).
    """

    name = "hysteresis"

    def propose(self, state: ProposalState) -> np.ndarray | None:
        cfg = state.config
        cand = kway_refine(
            state.graph, state.parts, state.k,
            tolerance=cfg.tolerance, max_passes=cfg.refine_passes,
            rng=state.rng, stats=state.stats, max_moves=cfg.max_moves,
        )
        moved = cand != state.parts
        if not moved.any():
            return None
        before = load_imbalance(state.lp_loads)
        after = _predicted_imbalance(state, cand)
        gain_s = max(before - after, 0.0) * cfg.bin_s
        bill_s = (
            float(state.state_bytes[moved].sum()) * cfg.migration_s_per_byte
        )
        if gain_s <= cfg.hysteresis * bill_s:
            return None
        return cand


class KurvePolicy(RebalancePolicy):
    """Game-theoretic best-response repartitioning.

    Each boundary vertex is a player minimizing its own blended cost —
    its LP's normalized load (computation), its external edge weight
    (communication), and its state size when it moves (migration).  Rounds
    repeat until no player improves or the move budget runs out; only
    parts the vertex has edges into are candidate strategies, so moves
    stay neighborhood-local.
    """

    name = "kurve"

    def propose(self, state: ProposalState) -> np.ndarray | None:
        cfg = state.config
        graph, k = state.graph, state.k
        total = float(state.lp_loads.sum())
        if total <= 0.0:
            return None
        target = total / k
        parts = state.parts.copy()
        lp = state.lp_loads.astype(np.float64).copy()
        counts = np.bincount(parts, minlength=k)
        bytes_norm = float(max(state.state_bytes.max(), 1))
        budget = np.inf if cfg.max_moves is None else int(cfg.max_moves)
        loads = state.node_loads
        moves = 0
        for _ in range(cfg.kurve_rounds):
            if moves >= budget:
                break
            state.stats.passes += 1
            boundary = boundary_vertices(graph, parts)
            order = boundary[state.rng.permutation(len(boundary))]
            round_moves = 0
            for v in order:
                if moves >= budget:
                    break
                v = int(v)
                w = float(loads[v])
                if w <= 0.0:
                    continue  # moving a load-less vertex balances nothing
                s = int(parts[v])
                if counts[s] <= 1:
                    continue
                conn = part_connectivity(graph, parts, v, k)
                state.stats.boundary_scans += 1
                tot = float(conn.sum())
                ext_norm = max(tot, 1e-30)
                cost_here = (
                    lp[s] / target
                    + cfg.kurve_comm * (tot - conn[s]) / ext_norm
                )
                mig_penalty = (
                    cfg.kurve_mig * float(state.state_bytes[v]) / bytes_norm
                )
                best_dest = -1
                best_cost = cost_here - 1e-12
                for d in np.nonzero(conn > 0.0)[0]:
                    d = int(d)
                    if d == s:
                        continue
                    cost_there = (
                        (lp[d] + w) / target
                        + cfg.kurve_comm * (tot - conn[d]) / ext_norm
                        + mig_penalty
                    )
                    if cost_there < best_cost - 1e-12:
                        best_cost = cost_there
                        best_dest = d
                if best_dest < 0:
                    continue
                lp[s] -= w
                lp[best_dest] += w
                counts[s] -= 1
                counts[best_dest] += 1
                parts[v] = best_dest
                state.stats.moves += 1
                moves += 1
                round_moves += 1
            if round_moves == 0:
                break
        if moves == 0:
            return None
        return parts


POLICIES: dict[str, type[RebalancePolicy]] = {
    "static": StaticPolicy,
    "hysteresis": HysteresisPolicy,
    "kurve": KurvePolicy,
}

