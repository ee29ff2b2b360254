"""Routing tables: path queries and the memory model.

§2.2.2 of the paper: "The memory requirement is mainly based on the routing
table size.  The routing table size is in the order of O(n²), where n is the
number of routers in an AS" and §5: "we use m = 10 + x·x as the memory
requirement for a router, where x is the size of an AS."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.elements import Link
from repro.topology.network import Network

__all__ = [
    "RoutingTables",
    "memory_weights",
    "HOST_MEMORY_WEIGHT",
    "METRICS",
    "link_cost",
    "link_cost_array",
]

HOST_MEMORY_WEIGHT = 1.0  # hosts keep a default route only

METRICS = ("latency", "hops", "inv-bandwidth")


def link_cost(link: Link, metric: str) -> float:
    """Cost of one link under a routing metric."""
    if metric == "latency":
        return link.latency_s
    if metric == "hops":
        return 1.0
    if metric == "inv-bandwidth":
        # OSPF-style reference-bandwidth cost (reference 100 Gbps).
        return 1e11 / link.bandwidth_bps
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def link_cost_array(
    latency_s: np.ndarray, bandwidth_bps: np.ndarray, metric: str
) -> np.ndarray:
    """Vectorized :func:`link_cost` over parallel link-attribute arrays."""
    if metric == "latency":
        return np.asarray(latency_s, dtype=np.float64)
    if metric == "hops":
        return np.ones(len(latency_s), dtype=np.float64)
    if metric == "inv-bandwidth":
        return 1e11 / np.asarray(bandwidth_bps, dtype=np.float64)
    raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


@dataclass
class RoutingTables:
    """All-pairs routing state for one network.

    Attributes
    ----------
    net:
        The routed network.
    metric:
        Link-cost metric the routes were computed with.
    dist:
        ``float64[n, n]`` metric distance matrix.
    next_hop:
        ``int32[n, n]``; ``next_hop[i, j]`` is the neighbour ``i`` forwards
        to when heading for ``j`` (``-1`` on the diagonal / unreachable).
    """

    net: Network
    metric: str
    dist: np.ndarray
    next_hop: np.ndarray

    def __post_init__(self) -> None:
        # (u, v) -> Link lookup used in the emulator's forwarding fast path.
        # Parallel links between the same pair are routed over the min-cost
        # one (ties: first inserted), matching the shortest-path graph.
        use_cost = self.metric in METRICS
        best: dict[tuple[int, int], tuple[float, Link]] = {}
        for link in self.net.links:
            if not link.up:
                continue
            cost = link_cost(link, self.metric) if use_cost else 0.0
            for pair in ((link.u, link.v), (link.v, link.u)):
                cur = best.get(pair)
                if cur is None or cost < cur[0]:
                    best[pair] = (cost, link)
        self._link_of: dict[tuple[int, int], Link] = {
            pair: link for pair, (_, link) in best.items()
        }
        self._pair_lookup: tuple[np.ndarray, np.ndarray] | None = None

    def refresh_pairs(self, links) -> None:
        """Re-derive the lookup for the node pairs of ``links`` only, by
        the construction rule (min cost among up links, first on ties)."""
        use_cost = self.metric in METRICS
        for u, v in sorted({(link.u, link.v) for link in links}):
            best: tuple[float, Link] | None = None
            for nbr, link in self.net.neighbors(u):
                if nbr != v or not link.up:
                    continue
                cost = link_cost(link, self.metric) if use_cost else 0.0
                if best is None or cost < best[0]:
                    best = (cost, link)
            for pair in ((u, v), (v, u)):
                if best is None:
                    self._link_of.pop(pair, None)
                else:
                    self._link_of[pair] = best[1]
        self._pair_lookup = None

    def hop(self, src: int, dst: int) -> int:
        """Next hop from ``src`` toward ``dst`` (-1 when src == dst)."""
        return int(self.next_hop[src, dst])

    def link_between(self, u: int, v: int) -> Link:
        """The link connecting two adjacent nodes (min-cost on parallels)."""
        try:
            return self._link_of[(u, v)]
        except KeyError:
            raise ValueError(f"nodes {u} and {v} are not adjacent") from None

    def _lookup_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``u * n + v`` keys and the channel ``2 * link_id +
        direction`` behind each adjacent pair (both directions; direction
        0 sends from the link's ``u`` end), consistent with
        :meth:`link_between`."""
        if self._pair_lookup is None:
            n = self.net.n_nodes
            u, v, lat, bw = self.net.link_endpoint_arrays()
            ids = np.arange(len(u))
            upm = self.net.link_up_array()
            if not upm.all():
                u, v, lat, bw = u[upm], v[upm], lat[upm], bw[upm]
                ids = ids[upm]
            m = len(u)
            if self.metric in METRICS:
                cost = link_cost_array(lat, bw, self.metric)
            else:
                cost = np.zeros(m, dtype=np.float64)
            keys = np.concatenate([u * n + v, v * n + u])
            costs = np.concatenate([cost, cost])
            # Ordering by channel orders by link id first (ties: lowest).
            chans = np.concatenate([2 * ids, 2 * ids + 1])
            order = np.lexsort((chans, costs, keys))
            keys, chans = keys[order], chans[order]
            first = np.ones(keys.size, dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            self._pair_lookup = (keys[first], chans[first])
        return self._pair_lookup

    def pair_channels(self, pairs: np.ndarray) -> np.ndarray:
        """The channel ``2 * link_id + direction`` each adjacent pair sends
        on, given as int64 codes ``u * n_nodes + v`` (direction 0 when
        ``u`` is the link's ``u`` end).  One sorted lookup, quicker on
        sorted codes: the window drain's FIFO keys, and
        :meth:`link_ids_of` shifted."""
        keys_s, chans_s = self._lookup_arrays()
        if keys_s.size:
            # Methods, not np.searchsorted / np.take: the window drain
            # calls this once per window.
            pos = keys_s.searchsorted(pairs)
            bad = keys_s.take(pos, mode="clip") != pairs
        else:
            pos, bad = pairs, np.ones(pairs.shape, dtype=bool)
        if np.count_nonzero(bad):
            u, v = divmod(int(pairs[int(np.argmax(bad))]), self.net.n_nodes)
            raise ValueError(f"nodes {u} and {v} are not adjacent")
        return chans_s[pos]

    def link_ids_of(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized ``link_between(u, v).link_id`` over adjacent pairs."""
        pairs = (np.asarray(us, dtype=np.int64) * self.net.n_nodes
                 + np.asarray(vs, dtype=np.int64))
        return self.pair_channels(pairs) >> 1

    def path(self, src: int, dst: int, max_hops: int = 10_000) -> list[int]:
        """Node id sequence from ``src`` to ``dst`` inclusive."""
        if src == dst:
            return [src]
        path = [src]
        cur = src
        for _ in range(max_hops):
            nxt = self.hop(cur, dst)
            if nxt < 0:
                raise ValueError(f"no route {src} -> {dst}")
            path.append(nxt)
            if nxt == dst:
                return path
            cur = nxt
        raise RuntimeError("routing loop detected")

    def path_links(self, src: int, dst: int) -> list[Link]:
        """The links along the path from ``src`` to ``dst``."""
        nodes = self.path(src, dst)
        return [self.link_between(u, v) for u, v in zip(nodes, nodes[1:])]

    def table_size(self, node_id: int) -> int:
        """Number of distinct destinations with a concrete next hop."""
        return int((self.next_hop[node_id] >= 0).sum())


def memory_weights(net: Network) -> np.ndarray:
    """Per-node memory requirement (the paper's magic formula).

    Routers: ``10 + x²`` where ``x`` is the number of routers in the node's
    AS.  Hosts: a small constant (:data:`HOST_MEMORY_WEIGHT`).
    """
    as_sizes = net.as_sizes()
    out = np.empty(net.n_nodes, dtype=np.float64)
    for node in net.nodes:
        if node.is_router:
            x = as_sizes.get(node.as_id, 0)
            out[node.node_id] = 10.0 + float(x) * float(x)
        else:
            out[node.node_id] = HOST_MEMORY_WEIGHT
    return out
