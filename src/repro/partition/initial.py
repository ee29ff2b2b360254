"""Initial bisection by greedy graph growing (GGG).

Used on the coarsest graph of the multilevel hierarchy and as the splitter
inside recursive bisection.  Starting from a random seed, part 0 is grown one
frontier vertex at a time — preferring the vertex with the highest cut gain —
until its share of the vertex weight reaches the target fraction.

The growth loop walks plain-list mirrors of the CSR arrays (built once per
call) instead of making numpy calls per vertex.  Its floats must still match
the numpy oracle (:func:`repro.partition._reference.grow_bisection_reference`)
bit for bit, so every sum follows numpy's order: ``np.sum`` adds left to
right below 8 terms and pairwise from 8 up.  So a frontier vertex with
fewer than 8 neighbours sums its gain in two ``+=`` accumulators inline,
the part's mean weight ``level`` is summed the same way, and longer rows
go to :func:`_np_sum`, which hands them to numpy.  The builtin ``sum()``
is never used: from Python 3.12 on it compensates.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.csr import CSRGraph

__all__ = ["greedy_graph_growing", "grow_bisection"]

#: Below this many terms ``np.sum`` is a plain left-to-right loop.
_PAIRWISE_MIN = 8


def _norm_weights(graph: CSRGraph) -> np.ndarray:
    """Vertex weights normalized so each constraint column sums to 1.

    Zero-total constraints contribute zero (they can never be unbalanced).
    """
    totals = graph.total_vwgt()
    safe = np.where(totals > 0, totals, 1.0)
    return graph.vwgt / safe


def _np_sum(values: list[float]) -> float:
    """``values`` summed in exactly the order ``np.sum`` would use."""
    if len(values) < _PAIRWISE_MIN:
        total = 0.0
        for x in values:
            total += x
        return total
    return float(np.asarray(values, dtype=np.float64).sum())


def _as_lists(
    graph: CSRGraph, norm: np.ndarray
) -> tuple[list, list, list, list]:
    """Plain-list mirrors of ``xadj``, ``adjncy``, ``adjwgt`` and the
    normalized vertex weights ``norm``."""
    return (graph.xadj.tolist(), graph.adjncy.tolist(),
            graph.adjwgt.tolist(), norm.tolist())


def grow_bisection(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow a single bisection from one seed.

    Returns a 0/1 part array in which part 0 holds roughly ``target_frac``
    of every vertex-weight constraint.  Growth stops when the *mean*
    normalized weight of part 0 across constraints reaches the target, which
    keeps multi-constraint weights jointly near the target without favouring
    any single column.
    """
    return _grow(_as_lists(graph, _norm_weights(graph)), target_frac, rng)


def _grow(
    lists: tuple[list, list, list, list],
    target_frac: float,
    rng: np.random.Generator,
) -> np.ndarray:
    xadj, adjncy, adjwgt, norm = lists
    n = len(xadj) - 1
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not 0.0 < target_frac < 1.0:
        raise ValueError("target_frac must be in (0, 1)")

    ncon = len(norm[0])
    rcon = range(ncon)
    short_rows = ncon < _PAIRWISE_MIN  # ``grown`` sums left to right
    side = [1] * n
    grown = [0.0] * ncon
    level = 0.0  # mean of ``grown``; changes only when a vertex joins
    limit = target_frac - 1e-9

    seed = int(rng.integers(n))
    counter = 0
    # Max-heap on gain (stored negated).  Gain of adding v to part 0 is
    # (edge weight to part 0) - (edge weight to part 1): classic GGG.
    heap: list[tuple[float, int, int]] = [(0.0, counter, seed)]
    in_heap = [False] * n
    in_heap[seed] = True

    while heap and level < limit:
        _, _, v = heapq.heappop(heap)
        if side[v] == 0:
            continue
        side[v] = 0
        row = norm[v]
        if short_rows:
            total = 0.0
            for c in rcon:
                grown[c] += row[c]
                total += grown[c]
        else:
            for c in rcon:
                grown[c] += row[c]
            total = _np_sum(grown)
        level = total / ncon
        for u in adjncy[xadj[v]:xadj[v + 1]]:
            if side[u] == 1 and not in_heap[u]:
                in_heap[u] = True
                counter += 1
                lo, hi = xadj[u], xadj[u + 1]
                if hi - lo < _PAIRWISE_MIN:
                    to_zero = to_one = 0.0
                    for x, w in zip(adjncy[lo:hi], adjwgt[lo:hi]):
                        if side[x]:
                            to_one += w
                        else:
                            to_zero += w
                    gain = to_zero - to_one
                else:
                    zeros: list[float] = []
                    ones: list[float] = []
                    for x, w in zip(adjncy[lo:hi], adjwgt[lo:hi]):
                        (ones if side[x] else zeros).append(w)
                    gain = _np_sum(zeros) - _np_sum(ones)
                heapq.heappush(heap, (-gain, counter, u))
        # A disconnected graph can exhaust the frontier early; restart the
        # growth from a fresh unassigned seed.
        if not heap and level < limit:
            remaining = [x for x in range(n) if side[x]]
            if not remaining:
                break
            seed = int(rng.choice(remaining))
            counter += 1
            heapq.heappush(heap, (0.0, counter, seed))
            in_heap[seed] = True
    return np.array(side, dtype=np.int64)


def greedy_graph_growing(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    n_tries: int = 4,
) -> np.ndarray:
    """Best-of-``n_tries`` greedy graph growing bisection.

    Each try grows from a different random seed; the bisection with the
    smallest weighted cut (breaking ties toward better balance) wins.
    """
    from repro.partition.metrics import weighted_edge_cut

    best: np.ndarray | None = None
    best_key: tuple[float, float] | None = None
    norm = _norm_weights(graph)
    lists = _as_lists(graph, norm)
    for _ in range(max(1, n_tries)):
        parts = _grow(lists, target_frac, rng)
        cut = weighted_edge_cut(graph, parts)
        share = norm[parts == 0].sum(axis=0)
        balance_err = float(np.abs(share - target_frac).max()) if graph.n else 0.0
        key = (cut, balance_err)
        if best_key is None or key < best_key:
            best, best_key = parts, key
    assert best is not None
    return best
