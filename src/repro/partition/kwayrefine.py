"""Greedy k-way boundary refinement (multi-constraint aware).

After projecting a coarse k-way partition one level down, boundary vertices
are scanned in random order and moved to the adjacent part with the best cut
gain, subject to a per-constraint balance envelope.  Zero-gain moves are
taken when they reduce the worst normalized part load, which lets refinement
trade cut for balance the way METIS's k-way refinement does.

The hot path is incremental: a per-vertex connectivity table (``(n, k)``
edge weight into each part) is built **once** per call with a vectorized
sweep over the CSR arrays, then invalidated only in the neighborhood of
each moved vertex.  A cached external-weight vector makes the interior-
vertex test O(1), so passes cost O(boundary) instead of O(n · k).

The balance-repair pre-pass (move vertices out of an over-envelope part
until every part fits) scores all ``members × k`` candidates of the
overloaded part in one numpy pass per move, drawing every tie-break in
one vector call.  The original rescan-everything kernel survives as
:func:`repro.partition._reference.kway_refine_reference`, the differential
parity suite's oracle: both kernels return the same parts and leave the
RNG in the same state.
"""

from __future__ import annotations

import numpy as np

from repro.partition.csr import CSRGraph
from repro.partition.perf import RefineStats

__all__ = ["kway_refine", "part_connectivity", "connectivity_table"]


def part_connectivity(
    graph: CSRGraph, parts: np.ndarray, v: int, k: int
) -> np.ndarray:
    """Edge weight from ``v`` into each part, shape ``(k,)``."""
    conn = np.zeros(k, dtype=np.float64)
    np.add.at(conn, parts[graph.neighbors(v)], graph.neighbor_weights(v))
    return conn


def connectivity_table(
    graph: CSRGraph, parts: np.ndarray, k: int
) -> np.ndarray:
    """Full ``(n, k)`` connectivity table in one vectorized sweep.

    ``table[v, p]`` is the edge weight from ``v`` into part ``p`` — row
    ``v`` equals :func:`part_connectivity` for every vertex at once.
    """
    n = graph.n
    conn = np.zeros((n, k), dtype=np.float64)
    if n == 0 or len(graph.adjncy) == 0:
        return conn
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.xadj))
    np.add.at(conn, (src, parts[graph.adjncy]), graph.adjwgt)
    return conn


def _caps(
    graph: CSRGraph, k: int, target_fracs: np.ndarray, tolerance: float
) -> np.ndarray:
    totals = graph.total_vwgt()
    cap = tolerance * target_fracs[:, None] * totals[None, :]
    # A part must always be able to hold at least its heaviest single vertex.
    if graph.n:
        cap = np.maximum(cap, graph.vwgt.max(axis=0)[None, :])
    return cap


def kway_refine(
    graph: CSRGraph,
    parts: np.ndarray,
    k: int,
    target_fracs: np.ndarray | None = None,
    tolerance: float = 1.05,
    max_passes: int = 8,
    rng: np.random.Generator | None = None,
    stats: RefineStats | None = None,
    max_moves: int | None = None,
) -> np.ndarray:
    """Refine a k-way partition; returns a new assignment array.

    Parameters
    ----------
    target_fracs:
        Desired weight share per part (defaults to uniform ``1/k``).
    tolerance:
        Multiplicative envelope over the target share, per constraint.
    stats:
        Optional :class:`~repro.partition.perf.RefineStats`; the perf-guard
        tests assert exactly one connectivity-table build per call.
    max_moves:
        Optional cap on the total moves this call may make (balance repair
        plus gain passes) — the online rebalancer's incremental-migration
        knob.  ``None`` (the default) leaves behaviour bit-identical to
        the reference kernel.
    """
    parts = np.asarray(parts, dtype=np.int64).copy()
    n = graph.n
    if n == 0 or k <= 1:
        return parts
    rng = rng or np.random.default_rng(0)
    stats = stats if stats is not None else RefineStats()
    budget = float("inf") if max_moves is None else int(max_moves)
    if budget <= 0:
        return parts
    if target_fracs is None:
        target_fracs = np.full(k, 1.0 / k)
    target_fracs = np.asarray(target_fracs, dtype=np.float64)

    cap = _caps(graph, k, target_fracs, tolerance)
    vwgt = graph.vwgt
    pw = np.zeros((k, graph.ncon), dtype=np.float64)
    np.add.at(pw, parts, vwgt)
    counts = np.bincount(parts, minlength=k)
    totals = graph.total_vwgt()
    safe_totals = np.where(totals > 0, totals, 1.0)

    # Python-scalar mirrors of the small per-part state.  The gain passes
    # run the admissibility and load tests once per boundary candidate;
    # tiny-array numpy reductions dominate wall time there, while python
    # float arithmetic performs the *same IEEE operations* bit-for-bit, so
    # mirrored tests decide identically to the reference kernel.
    ncon = graph.ncon
    rcon = range(ncon)
    cap_eps = cap + 1e-9
    vw_list: list[list[float]] = vwgt.tolist()
    pw_list: list[list[float]] = pw.tolist()
    counts_list: list[int] = counts.tolist()
    cap_eps_list: list[list[float]] = cap_eps.tolist()
    safe_list: list[float] = safe_totals.tolist()

    # --- incremental state: built once, invalidated per-neighborhood --- #
    conn = connectivity_table(graph, parts, k)
    stats.conn_builds += 1
    # Total incident weight never changes with reassignment, so the
    # external weight (the boundary test) is tot - conn[v, parts[v]].
    tot = conn.sum(axis=1)
    ext = tot - conn[np.arange(n), parts]

    def admissible(v: int, dest: int) -> bool:
        if counts_list[parts[v]] <= 1:  # never empty a part
            return False
        pd = pw_list[dest]
        wv = vw_list[v]
        ce = cap_eps_list[dest]
        for c in rcon:
            if pd[c] + wv[c] > ce[c]:
                return False
        return True

    def norm_load_part(p: int) -> float:
        """Worst normalized load of part ``p`` as currently weighted."""
        row = pw_list[p]
        return max(row[c] / safe_list[c] for c in rcon)

    def norm_load_with(dest: int, v: int) -> float:
        """Worst normalized load of ``dest`` if ``v`` moved into it."""
        row = pw_list[dest]
        wv = vw_list[v]
        return max((row[c] + wv[c]) / safe_list[c] for c in rcon)

    def move(v: int, dest: int) -> None:
        """Move ``v`` and repair conn/ext in its neighborhood only."""
        src = parts[v]
        pw[src] -= vwgt[v]
        pw[dest] += vwgt[v]
        wv = vw_list[v]
        ps, pd = pw_list[src], pw_list[dest]
        for c in rcon:
            ps[c] -= wv[c]
            pd[c] += wv[c]
        counts[src] -= 1
        counts[dest] += 1
        counts_list[src] -= 1
        counts_list[dest] += 1
        parts[v] = dest
        nbrs = graph.neighbors(v)
        w = graph.neighbor_weights(v)
        np.subtract.at(conn, (nbrs, src), w)
        np.add.at(conn, (nbrs, dest), w)
        ext[nbrs] = tot[nbrs] - conn[nbrs, parts[nbrs]]
        ext[v] = tot[v] - conn[v, dest]
        stats.moves += 1
        stats.neighbor_updates += len(nbrs)

    # --- balance repair ------------------------------------------------ #
    # One numpy pass per move over (overloaded part's members x parts), in
    # the reference's member-major order.  Each admissible candidate draws
    # one tie-break from a single vector draw — for numpy's bit generators
    # the same stream as the reference's per-candidate scalar draws — and
    # the move taken is the first lexicographic minimum of (-gain, draw).
    for _ in range(n):
        if budget <= 0:
            break
        over = np.nonzero(np.any(pw > cap_eps, axis=1))[0]
        if len(over) == 0:
            break
        src = int(over[0])
        if counts[src] <= 1:  # never empty a part
            break
        members = np.nonzero(parts == src)[0]
        fits = np.all(pw + vwgt[members][:, None, :] <= cap_eps, axis=2)
        fits[:, src] = False
        vi, di = np.nonzero(fits)
        if len(vi) == 0:
            break
        cand = members[vi]
        neg_gain = -(conn[cand, di] - conn[cand, src])
        draws = rng.random(len(vi))
        ties = np.flatnonzero(neg_gain == neg_gain.min())
        best = ties[np.argmin(draws[ties])]
        move(int(cand[best]), int(di[best]))
        budget -= 1

    # --- gain passes ----------------------------------------------------#
    for _ in range(max_passes):
        if budget <= 0:
            break
        stats.passes += 1
        moved = 0
        order = rng.permutation(n)
        for v in order:
            if budget <= 0:
                break
            v = int(v)
            if ext[v] <= 0.0:
                continue  # interior vertex: no external connectivity
            stats.boundary_scans += 1
            src = int(parts[v])
            conn_v = conn[v]
            best_dest = -1
            best_gain = 0.0
            best_load = norm_load_part(src)  # load of own part pre-move
            for dest in np.nonzero(conn_v > 0.0)[0]:
                dest = int(dest)
                if dest == src:
                    continue
                if not admissible(v, dest):
                    continue
                gain = conn_v[dest] - conn_v[src]
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_dest = dest
                elif (
                    abs(gain - best_gain) <= 1e-12
                    and gain >= -1e-12
                    and norm_load_with(dest, v) < best_load - 1e-12
                ):
                    # Zero-gain balance-improving move.
                    best_dest = dest
                    best_load = norm_load_with(dest, v)
            if best_dest >= 0 and (best_gain > 1e-12 or best_dest != src):
                if best_gain > 1e-12 or norm_load_with(
                    best_dest, v
                ) < norm_load_part(src):
                    move(v, best_dest)
                    moved += 1
                    budget -= 1
        if moved == 0:
            break
    return parts
