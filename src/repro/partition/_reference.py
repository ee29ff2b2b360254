"""Reference (pre-optimization) partitioning kernels — test oracles.

These are the original implementations, kept verbatim (the growth oracle
without its never-passed ``seed_vertex`` parameter) so the differential
parity suites can prove the optimized kernels produce *identical*
assignments and leave the RNG in the identical state under fixed seeds:

- :func:`fm_refine_reference` and :func:`kway_refine_reference` — FM and
  greedy k-way refinement recomputing gains / connectivity from scratch
  (O(n) and O(n·k) per pass), the twins of :mod:`repro.partition.fm` and
  :mod:`repro.partition.kwayrefine`;
- :func:`grow_bisection_reference` and
  :func:`greedy_graph_growing_reference` — greedy graph growing with a
  numpy gain per pushed vertex, the twins of
  :mod:`repro.partition.initial` (which walks plain lists and must
  reproduce numpy's float summation order);
- :func:`heavy_edge_matching_reference` — heavy-edge matching with numpy
  candidate selection per visited vertex, the twin of
  :func:`repro.partition.coarsen.heavy_edge_matching`.

The refinement oracles agree bit for bit on graphs with exactly
representable weights; the growing and matching oracles on any weights.
They scale exactly the way the optimized kernels exist to avoid; never
call them from production code.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.csr import CSRGraph

__all__ = [
    "fm_refine_reference",
    "kway_refine_reference",
    "grow_bisection_reference",
    "greedy_graph_growing_reference",
    "heavy_edge_matching_reference",
]


# --------------------------------------------------------------------- #
# FM bisection refinement (original)
# --------------------------------------------------------------------- #
def _bisection_gains_reference(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    """Per-vertex flip gains, recomputed from scratch (O(n) python loop)."""
    n = graph.n
    gains = np.zeros(n, dtype=np.float64)
    for v in range(n):
        weights = graph.neighbor_weights(v)
        same = parts[graph.neighbors(v)] == parts[v]
        gains[v] = float(weights[~same].sum() - weights[same].sum())
    return gains


def _part_weights(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    pw = np.zeros((2, graph.ncon), dtype=np.float64)
    np.add.at(pw, parts, graph.vwgt)
    return pw


def fm_refine_reference(
    graph: CSRGraph,
    parts: np.ndarray,
    target_frac: float = 0.5,
    tolerance: float = 1.05,
    max_passes: int = 8,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Original FM refinement — full gain rescan at every pass start."""
    parts = np.asarray(parts, dtype=np.int64).copy()
    n = graph.n
    if n == 0:
        return parts
    rng = rng or np.random.default_rng(0)

    totals = graph.total_vwgt()
    share = np.array([target_frac, 1.0 - target_frac])
    cap = (
        tolerance * share[:, None] * totals[None, :]
        + graph.vwgt.max(axis=0)[None, :]
    )

    pw = _part_weights(graph, parts)
    counts = np.bincount(parts, minlength=2)

    def admissible(v: int, dest: int) -> bool:
        if counts[1 - dest] <= 1:  # never empty a side
            return False
        new = pw[dest] + graph.vwgt[v]
        return bool(np.all(new <= cap[dest] + 1e-9))

    def apply_move(v: int, dest: int) -> None:
        src = parts[v]
        pw[src] -= graph.vwgt[v]
        pw[dest] += graph.vwgt[v]
        counts[src] -= 1
        counts[dest] += 1
        parts[v] = dest

    # Balance repair pre-pass (recomputes all gains per repaired vertex).
    for _ in range(n):
        over = [
            p for p in (0, 1) if np.any(pw[p] > cap[p] + 1e-9)
        ]
        if not over:
            break
        src = over[0]
        gains = _bisection_gains_reference(graph, parts)
        candidates = np.nonzero(parts == src)[0]
        if len(candidates) == 0:
            break
        best_v = int(candidates[np.argmax(gains[candidates])])
        if not admissible(best_v, 1 - src):
            break
        apply_move(best_v, 1 - src)

    for _ in range(max_passes):
        gains = _bisection_gains_reference(graph, parts)
        locked = np.zeros(n, dtype=bool)
        heap: list[tuple[float, float, int]] = []
        for v in range(n):
            heapq.heappush(heap, (-gains[v], rng.random(), v))

        moves: list[tuple[int, int]] = []  # (vertex, previous part)
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        stale_limit = n  # whole pass

        while heap and len(moves) < stale_limit:
            neg_gain, _, v = heapq.heappop(heap)
            if locked[v]:
                continue
            if -neg_gain != gains[v]:  # stale entry
                heapq.heappush(heap, (-gains[v], rng.random(), v))
                continue
            dest = 1 - parts[v]
            if not admissible(v, dest):
                locked[v] = True
                continue
            prev = parts[v]
            apply_move(v, dest)
            locked[v] = True
            moves.append((v, prev))
            cum += gains[v]
            if cum > best_cum + 1e-12:
                best_cum = cum
                best_len = len(moves)
            for u, w in zip(graph.neighbors(v), graph.neighbor_weights(v)):
                u = int(u)
                if locked[u]:
                    continue
                delta = 2.0 * float(w) if parts[u] == prev else -2.0 * float(w)
                gains[u] += delta
                heapq.heappush(heap, (-gains[u], rng.random(), u))
            gains[v] = -gains[v]

        for v, prev in reversed(moves[best_len:]):
            apply_move(v, prev)
        if best_len == 0:
            break
    return parts


# --------------------------------------------------------------------- #
# Greedy k-way refinement (original)
# --------------------------------------------------------------------- #
def _part_connectivity_reference(
    graph: CSRGraph, parts: np.ndarray, v: int, k: int
) -> np.ndarray:
    conn = np.zeros(k, dtype=np.float64)
    np.add.at(conn, parts[graph.neighbors(v)], graph.neighbor_weights(v))
    return conn


def kway_refine_reference(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    target_fracs: np.ndarray | None = None,
    tolerance: float = 1.05,
    max_passes: int = 8,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Original greedy k-way refinement — per-vertex connectivity rescan."""
    parts = np.asarray(parts, dtype=np.int64).copy()
    n = graph.n
    if n == 0 or k <= 1:
        return parts
    rng = rng or np.random.default_rng(0)
    if target_fracs is None:
        target_fracs = np.full(k, 1.0 / k)
    target_fracs = np.asarray(target_fracs, dtype=np.float64)

    totals = graph.total_vwgt()
    cap = tolerance * target_fracs[:, None] * totals[None, :]
    if graph.n:
        cap = np.maximum(cap, graph.vwgt.max(axis=0)[None, :])
    pw = np.zeros((k, graph.ncon), dtype=np.float64)
    np.add.at(pw, parts, graph.vwgt)
    counts = np.bincount(parts, minlength=k)
    safe_totals = np.where(totals > 0, totals, 1.0)

    def admissible(v: int, dest: int) -> bool:
        if counts[parts[v]] <= 1:  # never empty a part
            return False
        return bool(np.all(pw[dest] + graph.vwgt[v] <= cap[dest] + 1e-9))

    def norm_load(weights: np.ndarray) -> float:
        return float((weights / safe_totals).max())

    def move(v: int, dest: int) -> None:
        pw[parts[v]] -= graph.vwgt[v]
        pw[dest] += graph.vwgt[v]
        counts[parts[v]] -= 1
        counts[dest] += 1
        parts[v] = dest

    # Balance repair.
    for _ in range(n):
        over = np.nonzero(np.any(pw > cap + 1e-9, axis=1))[0]
        if len(over) == 0:
            break
        src = int(over[0])
        members = np.nonzero(parts == src)[0]
        best_key: tuple[float, float] | None = None
        best_move: tuple[int, int] | None = None
        for v in members:
            conn = _part_connectivity_reference(graph, parts, int(v), k)
            for dest in range(k):
                if dest == src or not admissible(int(v), dest):
                    continue
                gain = conn[dest] - conn[src]
                key = (-gain, rng.random())
                if best_key is None or key < best_key:
                    best_key = key
                    best_move = (int(v), dest)
        if best_move is None:
            break
        move(*best_move)

    # Gain passes.
    for _ in range(max_passes):
        moved = 0
        order = rng.permutation(n)
        for v in order:
            v = int(v)
            conn = _part_connectivity_reference(graph, parts, v, k)
            src = parts[v]
            if np.all(conn[np.arange(k) != src] == 0):
                continue  # interior vertex
            best_dest = -1
            best_gain = 0.0
            best_load = norm_load(pw[src])
            for dest in range(k):
                if dest == src or conn[dest] <= 0.0:
                    continue
                if not admissible(v, dest):
                    continue
                gain = conn[dest] - conn[src]
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_dest = dest
                elif (
                    abs(gain - best_gain) <= 1e-12
                    and gain >= -1e-12
                    and norm_load(pw[dest] + graph.vwgt[v]) < best_load - 1e-12
                ):
                    best_dest = dest
                    best_load = norm_load(pw[dest] + graph.vwgt[v])
            if best_dest >= 0 and (best_gain > 1e-12 or best_dest != src):
                if best_gain > 1e-12 or norm_load(
                    pw[best_dest] + graph.vwgt[v]
                ) < norm_load(pw[src]):
                    move(v, best_dest)
                    moved += 1
        if moved == 0:
            break
    return parts


# --------------------------------------------------------------------- #
# Greedy graph growing (original)
# --------------------------------------------------------------------- #
def _norm_weights_reference(graph: CSRGraph) -> np.ndarray:
    totals = graph.total_vwgt()
    safe = np.where(totals > 0, totals, 1.0)
    return graph.vwgt / safe


def grow_bisection_reference(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Original single-seed growth — numpy gain per pushed vertex."""
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if not 0.0 < target_frac < 1.0:
        raise ValueError("target_frac must be in (0, 1)")

    norm = _norm_weights_reference(graph)
    parts = np.ones(n, dtype=np.int64)
    grown = np.zeros(graph.ncon, dtype=np.float64)

    seed = int(rng.integers(n))
    counter = 0
    heap: list[tuple[float, int, int]] = [(0.0, counter, seed)]
    in_heap = np.zeros(n, dtype=bool)
    in_heap[seed] = True

    def gain(v: int) -> float:
        weights = graph.neighbor_weights(v)
        to_zero = parts[graph.neighbors(v)] == 0
        return float(weights[to_zero].sum() - weights[~to_zero].sum())

    while heap and grown.mean() < target_frac - 1e-9:
        _, _, v = heapq.heappop(heap)
        if parts[v] == 0:
            continue
        parts[v] = 0
        grown += norm[v]
        for u in graph.neighbors(v):
            u = int(u)
            if parts[u] == 1 and not in_heap[u]:
                in_heap[u] = True
                counter += 1
                heapq.heappush(heap, (-gain(u), counter, u))
        if not heap and grown.mean() < target_frac - 1e-9:
            remaining = np.nonzero(parts == 1)[0]
            if len(remaining) == 0:
                break
            seed = int(rng.choice(remaining))
            counter += 1
            heapq.heappush(heap, (0.0, counter, seed))
            in_heap[seed] = True
    return parts


def greedy_graph_growing_reference(
    graph: CSRGraph,
    target_frac: float,
    rng: np.random.Generator,
    n_tries: int = 4,
) -> np.ndarray:
    """Original best-of-``n_tries`` greedy graph growing."""
    from repro.partition.metrics import weighted_edge_cut

    best: np.ndarray | None = None
    best_key: tuple[float, float] | None = None
    norm = _norm_weights_reference(graph)
    for _ in range(max(1, n_tries)):
        parts = grow_bisection_reference(graph, target_frac, rng)
        cut = weighted_edge_cut(graph, parts)
        share = norm[parts == 0].sum(axis=0)
        balance_err = float(np.abs(share - target_frac).max()) if graph.n else 0.0
        key = (cut, balance_err)
        if best_key is None or key < best_key:
            best, best_key = parts, key
    assert best is not None
    return best


# --------------------------------------------------------------------- #
# Heavy-edge matching (original)
# --------------------------------------------------------------------- #
def heavy_edge_matching_reference(
    graph: CSRGraph, rng: np.random.Generator, two_hop: bool = True
) -> np.ndarray:
    """Original heavy-edge matching — numpy candidate scan per vertex."""
    n = graph.n
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    for v in order:
        if match[v] != -1:
            continue
        nbrs = graph.neighbors(v)
        avail = np.flatnonzero(match[nbrs] == -1)
        if len(avail):
            weights = graph.neighbor_weights(v)[avail]
            best = int(nbrs[avail[np.argmax(weights)]])
            match[v] = best
            match[best] = v

    if two_hop:
        for center in order:
            nbrs = graph.neighbors(int(center))
            avail = np.flatnonzero(match[nbrs] == -1)
            if len(avail) < 2:
                continue
            leaves = nbrs[avail]
            weights = graph.neighbor_weights(int(center))[avail]
            ranked = leaves[np.lexsort((-leaves, -weights))]
            for a, b in zip(ranked[0::2], ranked[1::2]):
                if match[a] == -1 and match[b] == -1:
                    match[a] = b
                    match[b] = a

    unset = match == -1
    match[unset] = np.nonzero(unset)[0]
    return match
