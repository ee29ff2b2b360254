"""Fiduccia–Mattheyses (FM) bisection refinement.

Given a 0/1 partition, FM performs passes of locked single-vertex moves in
best-gain order, keeping the best prefix of each pass.  Moves must respect a
per-constraint balance envelope; a pre-pass restores balance when the input
partition violates it (which happens after projecting a coarse partition to
a finer level).

The gain table is built **once** per call (a vectorized O(m) sweep over the
CSR arrays) and maintained incrementally from then on: every move — repair
moves, pass moves, and best-prefix rollbacks alike — touches only the moved
vertex's neighborhood.  Everything after that build runs on plain-list
mirrors of the CSR arrays and the per-side state.  The heap's random
tie-breaks are drawn from the generator in vector blocks, and the
generator is rewound and advanced by exactly the draws used before the
call returns.  The original per-pass full-rescan kernel, one scalar draw
per heap push, survives as
:func:`repro.partition._reference.fm_refine_reference`, the oracle the
differential parity suite checks this implementation against: equal
parts and an equal generator state.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.csr import CSRGraph
from repro.partition.perf import RefineStats

__all__ = ["fm_refine", "bisection_gains"]


def bisection_gains(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    """Cut gain of flipping each vertex to the other side.

    ``gain[v] = external(v) - internal(v)`` where external/internal are the
    incident edge weights crossing / not crossing the cut.  Computed in one
    vectorized sweep over the CSR arrays.
    """
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    cross = parts[graph.adjncy] != parts[src]
    signed = np.where(cross, graph.adjwgt, -graph.adjwgt)
    return np.bincount(src, weights=signed, minlength=n)


def _part_weights(graph: CSRGraph, parts: np.ndarray) -> np.ndarray:
    pw = np.zeros((2, graph.ncon), dtype=np.float64)
    np.add.at(pw, parts, graph.vwgt)
    return pw


def fm_refine(
    graph: CSRGraph,
    parts: np.ndarray,
    target_frac: float = 0.5,
    tolerance: float = 1.05,
    max_passes: int = 8,
    rng: np.random.Generator | None = None,
    stats: RefineStats | None = None,
) -> np.ndarray:
    """Refine a bisection in place-free style (returns a new array).

    Parameters
    ----------
    graph, parts:
        The graph and the current 0/1 assignment.
    target_frac:
        Desired fraction of each weight constraint in part 0.
    tolerance:
        Multiplicative balance envelope: part ``p`` may hold at most
        ``tolerance * target_share[p]`` of each constraint.
    max_passes:
        FM passes; each pass stops improving when its best prefix is empty.
    stats:
        Optional :class:`~repro.partition.perf.RefineStats` filled with
        operation counts (the perf-guard tests assert exactly one full
        gain-table build per call).
    """
    parts = np.asarray(parts, dtype=np.int64).copy()
    n = graph.n
    if n == 0:
        return parts
    rng = rng or np.random.default_rng(0)
    stats = stats if stats is not None else RefineStats()

    totals = graph.total_vwgt()
    share = np.array([target_frac, 1.0 - target_frac])
    # Max allowed weight per (part, constraint).  The additive heaviest-
    # vertex slack is essential: classic FM escapes local optima through
    # alternating moves that transiently exceed the envelope by one vertex.
    cap = (
        tolerance * share[:, None] * totals[None, :]
        + graph.vwgt.max(axis=0)[None, :]
    )

    pw = _part_weights(graph, parts)
    counts = np.bincount(parts, minlength=2)

    # The hot path runs on python scalars.  FM makes hundreds of thousands
    # of single-vertex moves (including rollbacks), and per-move numpy
    # overhead on length-ncon rows and degree-sized slices costs ~50x the
    # identical python float arithmetic.  Every mirrored update below is an
    # element-wise IEEE add/subtract applied in the same order as the numpy
    # reference, so the arithmetic — and therefore every decision — matches
    # the reference kernel bit-for-bit.
    ncon = graph.ncon
    rcon = range(ncon)
    vw_list: list[list[float]] = graph.vwgt.tolist()
    pw_list: list[list[float]] = pw.tolist()
    counts_list: list[int] = counts.tolist()
    cap_eps: list[list[float]] = (cap + 1e-9).tolist()
    parts_l: list[int] = parts.tolist()
    xadj_l: list[int] = graph.xadj.tolist()
    adjncy_l: list[int] = graph.adjncy.tolist()
    adjwgt_l: list[float] = graph.adjwgt.tolist()

    # The only full gain-table build of the call; every move below updates
    # it through the moved vertex's neighborhood.
    gains: list[float] = bisection_gains(graph, parts).tolist()
    stats.full_gain_builds += 1

    def admissible(v: int, dest: int) -> bool:
        if counts_list[1 - dest] <= 1:  # never empty a side
            return False
        pd = pw_list[dest]
        wv = vw_list[v]
        ce = cap_eps[dest]
        for c in rcon:
            if pd[c] + wv[c] > ce[c]:
                return False
        return True

    def apply_move(v: int, dest: int) -> None:
        """Move ``v`` and repair the gain table in its neighborhood."""
        src = parts_l[v]
        wv = vw_list[v]
        ps, pd = pw_list[src], pw_list[dest]
        for c in rcon:
            ps[c] -= wv[c]
            pd[c] += wv[c]
        counts_list[src] -= 1
        counts_list[dest] += 1
        parts_l[v] = dest
        # Edge (v, u) flips internal/external: neighbors left behind on the
        # source side gain 2w, neighbors on the destination side lose 2w.
        lo, hi = xadj_l[v], xadj_l[v + 1]
        for i in range(lo, hi):
            u = adjncy_l[i]
            if parts_l[u] == src:
                gains[u] += 2.0 * adjwgt_l[i]
            else:
                gains[u] -= 2.0 * adjwgt_l[i]
        gains[v] = -gains[v]
        stats.moves += 1
        stats.neighbor_updates += hi - lo

    # --- balance repair pre-pass -------------------------------------- #
    # Projected partitions may start outside the envelope; FM's best-prefix
    # rule would undo the (negative-gain) moves needed to repair them, so
    # repair explicitly first: repeatedly move the least-damaging vertex out
    # of the overloaded side.
    for _ in range(n):
        over = [
            p
            for p in (0, 1)
            if any(pw_list[p][c] > cap_eps[p][c] for c in rcon)
        ]
        if not over:
            break
        src = over[0]
        best_v = -1
        best_gain = 0.0
        for v in range(n):  # first-max, like np.argmax over the candidates
            if parts_l[v] == src and (best_v < 0 or gains[v] > best_gain):
                best_v, best_gain = v, gains[v]
        if best_v < 0:
            break
        if not admissible(best_v, 1 - src):
            # Receiving side is also at capacity; moving would just swap the
            # violation, so stop.
            break
        apply_move(best_v, 1 - src)

    # Heap tie-breaks: one uniform draw per push, in push order.  They
    # come from ``rng`` in vector blocks (a vector draw is the same stream
    # as scalar draws), held reversed so ``ties.pop()`` yields the next.
    # On return the generator is rewound and advances by exactly the draws
    # used, so it ends where one scalar ``rng.random()`` per push leaves it.
    state0 = rng.bit_generator.state
    block = 2 * n + 64
    ties: list[float] = []
    drawn = 0

    def refill() -> float:
        nonlocal drawn
        ties[:] = rng.random(block).tolist()[::-1]
        drawn += block
        return ties.pop()

    heappush, heappop = heapq.heappush, heapq.heappop
    for _ in range(max_passes):
        stats.passes += 1
        locked = [False] * n
        # Keys are unique (the vertex id breaks every tie), so heapify pops
        # in the same order as n successive pushes.
        heap = [(-gains[v], ties.pop() if ties else refill(), v)
                for v in range(n)]
        heapq.heapify(heap)

        moves: list[tuple[int, int]] = []  # (vertex, previous part)
        cum = 0.0
        best_cum = 0.0
        best_len = 0
        stale_limit = n  # whole pass

        while heap and len(moves) < stale_limit:
            neg_gain, _, v = heappop(heap)
            if locked[v]:
                continue
            if -neg_gain != gains[v]:  # stale entry
                heappush(heap, (-gains[v], ties.pop() if ties else refill(),
                                v))
                continue
            dest = 1 - parts_l[v]
            if not admissible(v, dest):
                locked[v] = True  # cannot move this pass
                continue
            moved_gain = gains[v]
            prev = parts_l[v]
            apply_move(v, dest)
            locked[v] = True
            moves.append((v, prev))
            cum += moved_gain
            if cum > best_cum + 1e-12:
                best_cum = cum
                best_len = len(moves)
            # apply_move already updated every neighbor's gain; re-enqueue
            # the unlocked ones (locked vertices stay out of this pass but
            # their table entries are now current, so no pass-start rescan
            # is ever needed).
            for i in range(xadj_l[v], xadj_l[v + 1]):
                u = adjncy_l[i]
                if locked[u]:
                    continue
                heappush(heap, (-gains[u], ties.pop() if ties else refill(),
                                u))

        # Roll back moves beyond the best prefix (gain table follows along).
        for v, prev in reversed(moves[best_len:]):
            apply_move(v, prev)
        if best_len == 0:
            break

    if drawn:
        rng.bit_generator.state = state0
        rng.random(drawn - len(ties))
    return np.array(parts_l, dtype=np.int64)
