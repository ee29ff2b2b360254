"""Baseline partitioners from the paper's related-work discussion.

- :func:`random_partition` — uniform random balanced assignment.
- :func:`linear_partition` — BFS ("hierarchical") ordering chopped into k
  weight-balanced chunks; stands in for the simple hierarchical partitioners
  several emulation projects use.
- :func:`greedy_kcluster` — the randomized greedy k-cluster algorithm used
  by ModelNet/Netbed [10]: pick k random seed nodes, then in round-robin
  fashion each cluster greedily claims an unassigned vertex adjacent to its
  current component.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.partition.csr import CSRGraph

__all__ = ["random_partition", "linear_partition", "greedy_kcluster"]


def random_partition(
    graph: CSRGraph,
    k: int,
    rng: np.random.Generator | None = None,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """Shuffled assignment: balanced in vertex count (or the requested
    count shares), oblivious to weights and edges."""
    rng = rng or np.random.default_rng(0)
    order = rng.permutation(graph.n)
    parts = np.zeros(graph.n, dtype=np.int64)
    if target_fracs is None:
        parts[order] = np.arange(graph.n) % k
        return parts
    fracs = np.asarray(target_fracs, dtype=np.float64)
    fracs = fracs / fracs.sum()
    bounds = np.floor(np.cumsum(fracs) * graph.n + 0.5).astype(np.int64)
    labels = np.searchsorted(bounds, np.arange(graph.n), side="right")
    parts[order] = np.minimum(labels, k - 1)
    return parts


def _bfs_order(graph: CSRGraph, start: int) -> np.ndarray:
    """BFS visitation order covering all components (restarts at the lowest
    unvisited id)."""
    seen = np.zeros(graph.n, dtype=bool)
    order: list[int] = []
    queue: deque[int] = deque()
    for root in [start] + list(range(graph.n)):
        if seen[root]:
            continue
        seen[root] = True
        queue.append(root)
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in sorted(int(x) for x in graph.neighbors(v)):
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return np.array(order, dtype=np.int64)


def linear_partition(
    graph: CSRGraph,
    k: int,
    rng: np.random.Generator | None = None,
    target_fracs: np.ndarray | None = None,
) -> np.ndarray:
    """Chop a BFS ordering into ``k`` chunks of roughly equal vertex weight.

    Uses the mean of the normalized constraint columns as the chunking
    weight, so multi-constraint graphs are handled gracefully.
    """
    rng = rng or np.random.default_rng(0)
    if graph.n == 0:
        return np.zeros(0, dtype=np.int64)
    start = int(rng.integers(graph.n))
    order = _bfs_order(graph, start)
    totals = graph.total_vwgt()
    norm = graph.vwgt / np.where(totals > 0, totals, 1.0)
    weight = norm.mean(axis=1)
    cum = np.cumsum(weight[order])
    total = cum[-1] if len(cum) else 0.0
    parts = np.zeros(graph.n, dtype=np.int64)
    if total <= 0:
        parts[order] = np.arange(graph.n) * k // max(1, graph.n)
        return parts
    if target_fracs is None:
        # Vertex i (in BFS order) goes to the chunk its weight's midpoint
        # lands in, so a vertex ending exactly on a chunk boundary stays
        # in the chunk it closes.
        mid = cum - weight[order] / 2.0
        assignment = np.minimum((mid / total * k).astype(np.int64), k - 1)
    else:
        fracs = np.asarray(target_fracs, dtype=np.float64)
        bounds = np.cumsum(fracs / fracs.sum()) * total
        assignment = np.minimum(
            np.searchsorted(bounds, cum, side="left"), k - 1
        )
    parts[order] = assignment
    return parts


def greedy_kcluster(
    graph: CSRGraph, k: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Randomized greedy k-cluster (ModelNet-style).

    Selects ``k`` random seeds, then grows the clusters round-robin: on its
    turn a cluster claims the unassigned neighbour reached by the heaviest
    frontier edge.  A cluster with an empty frontier steals a random
    unassigned vertex, so every vertex is eventually assigned.
    """
    rng = rng or np.random.default_rng(0)
    n = graph.n
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if k > n:
        raise ValueError(f"cannot build {k} clusters from {n} vertices")
    parts = np.full(n, -1, dtype=np.int64)
    seeds = rng.choice(n, size=k, replace=False)
    frontiers: list[list[tuple[float, int]]] = [[] for _ in range(k)]
    for c, s in enumerate(seeds):
        parts[s] = c
        for u, w in zip(graph.neighbors(int(s)), graph.neighbor_weights(int(s))):
            frontiers[c].append((float(w), int(u)))
    unassigned = int((parts == -1).sum())
    while unassigned > 0:
        progressed = False
        for c in range(k):
            if unassigned == 0:
                break
            # Pop heaviest frontier edge leading to an unassigned vertex.
            frontier = frontiers[c]
            frontier.sort()  # ascending; take from the back
            claimed = -1
            while frontier:
                _, v = frontier.pop()
                if parts[v] == -1:
                    claimed = v
                    break
            if claimed == -1:
                free = np.nonzero(parts == -1)[0]
                if len(free) == 0:
                    break
                claimed = int(rng.choice(free))
            parts[claimed] = c
            unassigned -= 1
            progressed = True
            for u, w in zip(
                graph.neighbors(claimed), graph.neighbor_weights(claimed)
            ):
                if parts[u] == -1:
                    frontiers[c].append((float(w), int(u)))
        if not progressed:
            break
    # Safety: anything left goes round-robin.
    left = np.nonzero(parts == -1)[0]
    parts[left] = np.arange(len(left)) % k
    return parts
