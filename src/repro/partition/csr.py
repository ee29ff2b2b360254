"""Compressed-sparse-row graph representation for partitioning.

All partitioning algorithms in :mod:`repro.partition` operate on
:class:`CSRGraph`, an undirected weighted graph in CSR (adjacency-array)
form, the same layout METIS uses:

- ``xadj``   — ``int64[n + 1]``; the neighbours of vertex ``v`` are
  ``adjncy[xadj[v]:xadj[v + 1]]``.
- ``adjncy`` — ``int64[2m]``; each undirected edge appears twice.
- ``adjwgt`` — ``float64[2m]``; symmetric edge weights.
- ``vwgt``   — ``float64[n, ncon]``; one column per balance constraint.

Vertex and edge weights are floats (the emulation weights are bandwidth and
latency figures, not counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["CSRGraph"]


@dataclass
class CSRGraph:
    """Undirected weighted graph in CSR form.

    Instances are conceptually immutable: algorithms build new graphs rather
    than mutating ``xadj``/``adjncy`` in place.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    def __post_init__(self) -> None:
        self.xadj = np.ascontiguousarray(self.xadj, dtype=np.int64)
        self.adjncy = np.ascontiguousarray(self.adjncy, dtype=np.int64)
        self.adjwgt = np.ascontiguousarray(self.adjwgt, dtype=np.float64)
        vwgt = np.ascontiguousarray(self.vwgt, dtype=np.float64)
        if vwgt.ndim == 1:
            vwgt = vwgt[:, None]
        self.vwgt = vwgt

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    @property
    def ncon(self) -> int:
        """Number of balance constraints (vertex-weight columns)."""
        return self.vwgt.shape[1]

    @cached_property
    def slot_src(self) -> np.ndarray:
        """Vertex owning each adjacency slot: ``adjncy[i]`` is a neighbour
        of ``slot_src[i]``.  Built once per graph (graphs are not mutated
        in place); the cut metrics and the refinement tables of one graph
        share it."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.xadj))

    def degree(self, v: int) -> int:
        """Number of neighbours of ``v``."""
        return int(self.xadj[v + 1] - self.xadj[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View of the neighbour ids of ``v``."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """View of the edge weights incident to ``v`` (parallel to
        :meth:`neighbors`)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def total_vwgt(self) -> np.ndarray:
        """Column sums of the vertex weights, shape ``(ncon,)``."""
        return self.vwgt.sum(axis=0)

    def total_adjwgt(self) -> float:
        """Total undirected edge weight (each edge counted once)."""
        return float(self.adjwgt.sum()) / 2.0

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raise :class:`ValueError` on failure.

        Invariants: monotone ``xadj``; neighbour ids in range; no self
        loops; symmetric adjacency with symmetric weights; ``vwgt`` has one
        row per vertex and is non-negative.  Runs vectorized (sort-based
        symmetry check), so validating 10k-vertex graphs is cheap.
        """
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("xadj does not span adjncy")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        if len(self.adjwgt) != len(self.adjncy):
            raise ValueError("adjwgt length mismatch")
        if self.vwgt.shape[0] != self.n:
            raise ValueError("vwgt must have one row per vertex")
        if np.any(self.vwgt < 0):
            raise ValueError("vertex weights must be non-negative")
        n = self.n
        if len(self.adjncy) == 0:
            return
        if self.adjncy.min() < 0 or self.adjncy.max() >= n:
            raise ValueError("neighbour id out of range")
        src = self.slot_src
        loops = np.nonzero(src == self.adjncy)[0]
        if len(loops):
            raise ValueError(f"self loop at vertex {int(src[loops[0]])}")
        # Symmetry: the multiset of directed slots must equal its reverse,
        # with matching weights.  Sort both key sets and compare.
        fwd_keys = src * n + self.adjncy
        order_f = np.argsort(fwd_keys, kind="stable")
        sorted_f = fwd_keys[order_f]
        dup = np.nonzero(np.diff(sorted_f) == 0)[0]
        if len(dup):
            key = int(sorted_f[dup[0]])
            raise ValueError(f"duplicate edge {(key // n, key % n)}")
        bwd_keys = self.adjncy * n + src
        order_b = np.argsort(bwd_keys, kind="stable")
        sorted_b = bwd_keys[order_b]
        mismatch = np.nonzero(sorted_f != sorted_b)[0]
        if len(mismatch):
            key = int(sorted_f[mismatch[0]])
            raise ValueError(f"edge ({key // n},{key % n}) missing reverse")
        w_f = self.adjwgt[order_f]
        w_b = self.adjwgt[order_b]
        bad = np.nonzero(~np.isclose(w_f, w_b))[0]
        if len(bad):
            key = int(sorted_f[bad[0]])
            raise ValueError(f"asymmetric weight on edge ({key // n},{key % n})")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edge_arrays(
        cls,
        n: int,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        vwgt: np.ndarray | Sequence[float] | None = None,
        first_appearance: bool = False,
    ) -> "CSRGraph":
        """Build a graph from parallel endpoint/weight arrays, vectorized.

        Same semantics as :meth:`from_edges` — each undirected edge listed
        once, parallel edges merged by summing weights, self loops dropped —
        but O(m log m) numpy work with no python-level edge loop, which is
        what keeps contraction cheap on 10k-router topologies.

        ``first_appearance`` selects the adjacency slot order.  The default
        is canonical sorted order.  With ``first_appearance=True`` the slots
        replicate :meth:`from_edges` exactly: merged edges rank by first
        occurrence in the input, and both directions of edge ``i`` enqueue
        at step ``i`` (the dict-plus-cursor construction).  Seed-dependent
        algorithms tie-break through CSR order, so the coarsening and
        subgraph paths use this mode to stay bit-identical with the
        python-loop constructors they replaced.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must be parallel")
        if len(u):
            lo = min(int(u.min()), int(v.min()))
            hi = max(int(u.max()), int(v.max()))
            if lo < 0 or hi >= n:
                bad = np.nonzero((u < 0) | (u >= n) | (v < 0) | (v >= n))[0][0]
                raise ValueError(
                    f"edge ({int(u[bad])},{int(v[bad])}) out of range for n={n}"
                )
        keep = u != v  # drop self loops
        a = np.minimum(u[keep], v[keep])
        b = np.maximum(u[keep], v[keep])
        w = w[keep]

        # Merge parallel edges: sum weights per packed undirected key.
        keys = a * n + b
        uniq, first_idx, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        merged_w = np.bincount(inverse, weights=w, minlength=len(uniq))
        a = uniq // n
        b = uniq % n

        if first_appearance:
            rank = np.argsort(first_idx, kind="stable")
            a, b, merged_w = a[rank], b[rank], merged_w[rank]
            seq = np.arange(len(a), dtype=np.int64)
            all_u = np.concatenate([a, b])
            all_v = np.concatenate([b, a])
            all_w = np.concatenate([merged_w, merged_w])
            # Per-source slots in global insertion-step order.
            order = np.lexsort((np.concatenate([seq, seq]), all_u))
        else:
            all_u = np.concatenate([a, b])
            all_v = np.concatenate([b, a])
            all_w = np.concatenate([merged_w, merged_w])
            order = np.lexsort((all_v, all_u))
        adjncy = all_v[order]
        adjwgt = all_w[order]
        deg = np.bincount(all_u, minlength=n)
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=xadj[1:])

        if vwgt is None:
            vw = np.ones((n, 1), dtype=np.float64)
        else:
            vw = np.asarray(vwgt, dtype=np.float64)
            if vw.ndim == 1:
                vw = vw[:, None]
            if vw.shape[0] != n:
                raise ValueError("vwgt must have one row per vertex")
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vw)

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        vwgt: np.ndarray | Sequence[float] | None = None,
    ) -> "CSRGraph":
        """Build a graph from an undirected edge list.

        Parameters
        ----------
        n:
            Number of vertices (ids ``0..n-1``).
        edges:
            ``(u, v, weight)`` triples; each undirected edge listed once.
            Parallel edges are merged by summing weights; self loops are
            dropped.
        vwgt:
            Vertex weights, shape ``(n,)`` or ``(n, ncon)``; defaults to
            all-ones.
        """
        # Note: adjacency slots keep first-appearance order (dict insertion
        # order of the merged edge keys), NOT sorted order.  Seed-dependent
        # algorithms tie-break through CSR order, so this ordering is part
        # of the constructor's observable behaviour; the vectorized
        # :meth:`from_edge_arrays` (sorted adjacency) is for internal
        # coarsening/subgraph paths that define their own canonical order.
        merged: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + float(w)

        deg = np.zeros(n, dtype=np.int64)
        for u, v in merged:
            deg[u] += 1
            deg[v] += 1
        xadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=xadj[1:])
        adjncy = np.zeros(xadj[-1], dtype=np.int64)
        adjwgt = np.zeros(xadj[-1], dtype=np.float64)
        cursor = xadj[:-1].copy()
        for (u, v), w in merged.items():
            adjncy[cursor[u]] = v
            adjwgt[cursor[u]] = w
            cursor[u] += 1
            adjncy[cursor[v]] = u
            adjwgt[cursor[v]] = w
            cursor[v] += 1

        if vwgt is None:
            vw = np.ones((n, 1), dtype=np.float64)
        else:
            vw = np.asarray(vwgt, dtype=np.float64)
            if vw.ndim == 1:
                vw = vw[:, None]
            if vw.shape[0] != n:
                raise ValueError("vwgt must have one row per vertex")
        return cls(xadj=xadj, adjncy=adjncy, adjwgt=adjwgt, vwgt=vw)

    @classmethod
    def from_networkx(
        cls,
        graph,
        weight: str = "weight",
        vwgt_attr: str | None = None,
    ) -> tuple["CSRGraph", list]:
        """Convert a :mod:`networkx` graph.

        Returns the CSR graph and the node list giving CSR-id → node mapping.
        Edge weights default to 1.0 when the attribute is absent; vertex
        weights come from ``vwgt_attr`` when given.
        """
        nodes = list(graph.nodes())
        index: Mapping = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[u], index[v], float(data.get(weight, 1.0)))
            for u, v, data in graph.edges(data=True)
        ]
        vwgt = None
        if vwgt_attr is not None:
            vwgt = np.array(
                [float(graph.nodes[node].get(vwgt_attr, 1.0)) for node in nodes]
            )
        return cls.from_edges(len(nodes), edges, vwgt=vwgt), nodes

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def with_vwgt(self, vwgt: np.ndarray) -> "CSRGraph":
        """Copy of this graph with replaced vertex weights."""
        vw = np.asarray(vwgt, dtype=np.float64)
        if vw.ndim == 1:
            vw = vw[:, None]
        if vw.shape[0] != self.n:
            raise ValueError("vwgt must have one row per vertex")
        return CSRGraph(self.xadj, self.adjncy, self.adjwgt, vw)

    def with_adjwgt(self, adjwgt: np.ndarray) -> "CSRGraph":
        """Copy of this graph with replaced edge weights (CSR-parallel)."""
        aw = np.asarray(adjwgt, dtype=np.float64)
        if aw.shape != self.adjncy.shape:
            raise ValueError("adjwgt must be parallel to adjncy")
        return CSRGraph(self.xadj, self.adjncy, aw, self.vwgt)

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Undirected edge list, each edge once with ``u < v``."""
        out: list[tuple[int, int, float]] = []
        for v in range(self.n):
            for u, w in zip(self.neighbors(v), self.neighbor_weights(v)):
                if v < u:
                    out.append((v, int(u), float(w)))
        return out

    def connected_components(self) -> list[np.ndarray]:
        """Connected components as arrays of vertex ids (BFS)."""
        seen = np.zeros(self.n, dtype=bool)
        comps: list[np.ndarray] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = [start]
            while stack:
                v = stack.pop()
                for u in self.neighbors(v):
                    if not seen[u]:
                        seen[u] = True
                        comp.append(int(u))
                        stack.append(int(u))
            comps.append(np.array(sorted(comp), dtype=np.int64))
        return comps

    def is_connected(self) -> bool:
        """True when the graph has a single connected component."""
        return self.n <= 1 or len(self.connected_components()) == 1
