"""Greedy k-way boundary refinement (multi-constraint aware).

After projecting a coarse k-way partition one level down, boundary vertices
are scanned in random order and moved to the adjacent part with the best cut
gain, subject to a per-constraint balance envelope.  Zero-gain moves are
taken when they reduce the worst normalized part load, which lets refinement
trade cut for balance the way METIS's k-way refinement does.

The hot path is incremental: a per-vertex connectivity table (``(n, k)``
edge weight into each part) is built **once** per call with a vectorized
sweep over the CSR arrays, then updated only in the neighborhood of each
moved vertex.  A cached external-weight vector makes the interior-vertex
test O(1), so passes cost O(boundary) instead of O(n · k).

The balance-repair pre-pass (move vertices out of an over-envelope part
until every part fits) scores all ``members × k`` candidates of the
overloaded part in one numpy pass per move, drawing every tie-break in
one vector call.  The gain passes then convert the table and the per-part
state to plain lists once and walk them vertex by vertex.  The original
rescan-everything kernel survives as
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
    cap_eps = cap + 1e-9
    vwgt = graph.vwgt
    pw = np.zeros((k, graph.ncon), dtype=np.float64)
    np.add.at(pw, parts, vwgt)
    counts = np.bincount(parts, minlength=k)
    totals = graph.total_vwgt()
    safe_totals = np.where(totals > 0, totals, 1.0)

    # --- incremental state: built once, updated per-neighborhood ------- #
    conn = connectivity_table(graph, parts, k)
    stats.conn_builds += 1

    # --- balance repair ------------------------------------------------ #
    # One numpy pass per move over (overloaded part's members x parts);
    # the boolean mask yields the candidates in the reference's
    # member-major order, and conn[v, src] - conn[v, dest] is exactly
    # -(gain).  Each admissible candidate draws one tie-break from a
    # single vector draw — for numpy's bit generators the same stream as
    # the reference's per-candidate scalar draws — and the move taken is
    # the first lexicographic minimum of (-gain, draw).  The calls are
    # ndarray methods: a move makes ~30 calls on small arrays, and the
    # np.* wrappers' dispatch was a measurable share of each.
    for _ in range(n):
        if budget <= 0:
            break
        over = (pw > cap_eps).any(axis=1).nonzero()[0]
        if len(over) == 0:
            break
        src = int(over[0])
        if counts[src] <= 1:  # never empty a part
            break
        members = (parts == src).nonzero()[0]
        cm = conn[members]
        fits = (pw + vwgt[members][:, None, :] <= cap_eps).all(axis=2)
        fits[:, src] = False
        neg_gain = (cm[:, src, None] - cm)[fits]
        if len(neg_gain) == 0:
            break
        draws = rng.random(len(neg_gain))
        ties = (neg_gain == neg_gain.min()).nonzero()[0]
        best = fits.ravel().nonzero()[0][ties[draws[ties].argmin()]]
        v, dest = int(members[best // k]), int(best % k)
        wv = vwgt[v]
        pw[src] -= wv
        pw[dest] += wv
        counts[src] -= 1
        counts[dest] += 1
        parts[v] = dest
        nbrs = graph.neighbors(v)
        w = graph.neighbor_weights(v)
        np.subtract.at(conn, (nbrs, src), w)
        np.add.at(conn, (nbrs, dest), w)
        stats.moves += 1
        stats.neighbor_updates += len(nbrs)
        budget -= 1
    if budget <= 0 or max_passes <= 0:
        return parts

    # --- gain passes, on plain lists ------------------------------------ #
    # A boundary scan or a move touches a handful of scalars, and numpy's
    # per-call overhead on them costs several times the same python float
    # arithmetic.  Every list update is the same element-wise IEEE
    # operation, in the same order, as the reference kernel's numpy
    # arithmetic, so each test decides identically.  Total incident
    # weight never changes with reassignment, so the external weight (the
    # boundary test) is tot[v] - conn[v][parts[v]].  A row of ``conn``
    # becomes a list when first read and numpy's row is not used again;
    # a pass reads the rows of boundary vertices and moved neighbourhoods
    # only, so converting the rest would be wasted.
    tot = conn.sum(axis=1)
    ext_l: list[float] = (tot - conn[np.arange(n), parts]).tolist()
    tot_l: list[float] = tot.tolist()
    rows: list[list[float] | None] = [None] * n
    parts_l: list[int] = parts.tolist()
    xadj_l: list[int] = graph.xadj.tolist()
    adjncy, adjwgt = graph.adjncy, graph.adjwgt
    rcon = range(graph.ncon)
    vw_list: list[list[float]] = vwgt.tolist()
    pw_list: list[list[float]] = pw.tolist()
    counts_list: list[int] = counts.tolist()
    cap_eps_list: list[list[float]] = cap_eps.tolist()
    safe_list: list[float] = safe_totals.tolist()

    def admissible(v: int, dest: int) -> bool:
        """Whether ``dest`` stays inside its envelope with ``v`` added
        (the never-empty-a-part test is made once per vertex)."""
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

    def move(v: int, src: int, dest: int) -> None:
        """Move ``v`` and update conn/ext in its neighborhood only (one
        sweep in CSR order: row ``u`` of ``conn`` is touched only by
        ``u``'s own entries, so ext[u] is final at its last one)."""
        wv = vw_list[v]
        ps, pd = pw_list[src], pw_list[dest]
        for c in rcon:
            ps[c] -= wv[c]
            pd[c] += wv[c]
        counts_list[src] -= 1
        counts_list[dest] += 1
        parts_l[v] = dest
        lo, hi = xadj_l[v], xadj_l[v + 1]
        for u, w in zip(adjncy[lo:hi].tolist(), adjwgt[lo:hi].tolist()):
            cu = rows[u]
            if cu is None:
                cu = rows[u] = conn[u].tolist()
            cu[src] -= w
            cu[dest] += w
            ext_l[u] = tot_l[u] - cu[parts_l[u]]
        ext_l[v] = tot_l[v] - rows[v][dest]
        stats.moves += 1
        stats.neighbor_updates += hi - lo

    for _ in range(max_passes):
        if budget <= 0:
            break
        stats.passes += 1
        moved = 0
        for v in rng.permutation(n).tolist():
            if budget <= 0:
                break
            if ext_l[v] <= 0.0:
                continue  # interior vertex: no external connectivity
            stats.boundary_scans += 1
            src = parts_l[v]
            if counts_list[src] <= 1:  # never empty a part
                continue
            conn_v = rows[v]
            if conn_v is None:
                conn_v = rows[v] = conn[v].tolist()
            own = conn_v[src]
            best_dest = -1
            best_gain = 0.0
            best_load = None  # own part's load pre-move, read on demand
            for dest, cd in enumerate(conn_v):  # first of equal gains wins
                if not cd > 0.0 or dest == src or not admissible(v, dest):
                    continue
                gain = cd - own
                if gain > best_gain + 1e-12:
                    best_gain = gain
                    best_dest = dest
                elif abs(gain - best_gain) <= 1e-12 and gain >= -1e-12:
                    if best_load is None:
                        best_load = norm_load_part(src)
                    load = norm_load_with(dest, v)
                    if load < best_load - 1e-12:
                        # Zero-gain balance-improving move.
                        best_dest = dest
                        best_load = load
            if best_dest >= 0 and (best_gain > 1e-12 or best_dest != src):
                if best_gain > 1e-12 or norm_load_with(
                    best_dest, v
                ) < norm_load_part(src):
                    move(v, src, best_dest)
                    moved += 1
                    budget -= 1
        if moved == 0:
            break
    return np.array(parts_l, dtype=np.int64)
