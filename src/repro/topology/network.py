"""The :class:`Network` container: virtual nodes + links + queries.

A ``Network`` is the emulated (virtual) network: the input to routing, to
traffic generation, to the emulation engine, and — via
:mod:`repro.core.graphbuild` — to the partitioner.
"""

from __future__ import annotations

import math

import numpy as np

from repro.topology.elements import Link, NetNode, NodeKind

__all__ = ["Network"]


class Network:
    """Mutable builder + immutable-ish queries for a virtual network.

    Node and link ids are dense and assigned in insertion order, which keeps
    them stable across runs (determinism) and directly usable as array
    indices everywhere else in the package.
    """

    def __init__(self, name: str = "net") -> None:
        self.name = name
        self._nodes: list[NetNode] = []
        self._links: list[Link] = []
        self._by_name: dict[str, int] = {}
        # adjacency: node id -> list of (neighbor id, link)
        self._adj: list[list[tuple[int, Link]]] = []
        # lazily-built derived state, invalidated on mutation
        self._link_arrays: tuple[np.ndarray, ...] | None = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        name: str,
        kind: NodeKind,
        as_id: int = 0,
        site: str = "",
    ) -> NetNode:
        """Add a node; names must be unique."""
        if name in self._by_name:
            raise ValueError(f"duplicate node name {name!r}")
        node = NetNode(
            node_id=len(self._nodes), name=name, kind=kind, as_id=as_id,
            site=site,
        )
        self._fingerprint = None
        self._nodes.append(node)
        self._by_name[name] = node.node_id
        self._adj.append([])
        return node

    def add_host(self, name: str, as_id: int = 0, site: str = "") -> NetNode:
        """Add a host node."""
        return self.add_node(name, NodeKind.HOST, as_id=as_id, site=site)

    def add_router(self, name: str, as_id: int = 0, site: str = "") -> NetNode:
        """Add a router node."""
        return self.add_node(name, NodeKind.ROUTER, as_id=as_id, site=site)

    def add_link(
        self,
        u: int | str | NetNode,
        v: int | str | NetNode,
        bandwidth_bps: float,
        latency_s: float,
    ) -> Link:
        """Add an undirected link between two existing nodes."""
        uid, vid = self._resolve(u), self._resolve(v)
        if uid == vid:
            raise ValueError("self-links are not allowed")
        if not (0 < bandwidth_bps < math.inf and 0 < latency_s < math.inf):
            raise ValueError(
                f"bandwidth and latency must be positive and finite; got "
                f"bandwidth_bps={bandwidth_bps!r}, latency_s={latency_s!r}"
            )
        if vid < uid:
            uid, vid = vid, uid
        link = Link(
            link_id=len(self._links), u=uid, v=vid,
            bandwidth_bps=float(bandwidth_bps), latency_s=float(latency_s),
        )
        self._link_arrays = None
        self._fingerprint = None
        self._links.append(link)
        self._adj[uid].append((vid, link))
        self._adj[vid].append((uid, link))
        return link

    # ------------------------------------------------------------------ #
    # Mutation (link attribute / admin-state changes)
    # ------------------------------------------------------------------ #
    def _link_to_change(self, link_id: int) -> Link:
        # A negative id would silently address a link from the end.
        if not 0 <= link_id < len(self._links):
            raise ValueError(f"link id {link_id} out of range")
        return self._links[link_id]

    def _swap_link(self, old: Link, new: Link) -> None:
        """Replace a frozen link record everywhere it is referenced."""
        self._links[new.link_id] = new
        for nid in (new.u, new.v):
            adj = self._adj[nid]
            for i, (nbr, link) in enumerate(adj):
                if link is old:
                    adj[i] = (nbr, new)
        self._link_arrays = None
        self._fingerprint = None

    def set_link(
        self,
        link_id: int,
        *,
        bandwidth_bps: float | None = None,
        latency_s: float | None = None,
    ) -> Link:
        """Change a link's attributes in place (topology change stream).

        Endpoint ids and the link id are immutable; only the cost-bearing
        attributes change.  Invalidate-on-mutation keeps
        :meth:`fingerprint` and :meth:`link_endpoint_arrays` consistent,
        so cached artifacts keyed on the fingerprint never go stale.
        Returns the new :class:`Link` record.
        """
        from dataclasses import replace

        old = self._link_to_change(link_id)
        kw: dict[str, float] = {}
        if bandwidth_bps is not None:
            if not 0 < bandwidth_bps < math.inf:
                raise ValueError(
                    f"bandwidth must be positive and finite; got "
                    f"{bandwidth_bps!r}"
                )
            kw["bandwidth_bps"] = float(bandwidth_bps)
        if latency_s is not None:
            if not 0 < latency_s < math.inf:
                raise ValueError(
                    f"latency must be positive and finite; got {latency_s!r}"
                )
            kw["latency_s"] = float(latency_s)
        if not kw:
            return old
        new = replace(old, **kw)
        self._swap_link(old, new)
        return new

    def set_link_up(self, link_id: int, up: bool) -> Link:
        """Mark a link up or down (down = removed from routing's view).

        The link keeps its dense id so every per-link array stays
        index-stable; :meth:`link_up_array`, the routing cost graph and
        the pair lookup all honour the flag.  Returns the new record.
        """
        from dataclasses import replace

        old = self._link_to_change(link_id)
        if old.up == bool(up):
            return old
        new = replace(old, up=bool(up))
        self._swap_link(old, new)
        return new

    def _resolve(self, ref: int | str | NetNode) -> int:
        if isinstance(ref, NetNode):
            return ref.node_id
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise KeyError(f"no node named {ref!r}") from None
        node_id = int(ref)
        if not 0 <= node_id < len(self._nodes):
            raise IndexError(f"node id {node_id} out of range")
        return node_id

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def nodes(self) -> list[NetNode]:
        return list(self._nodes)

    @property
    def links(self) -> list[Link]:
        return list(self._links)

    def node(self, ref: int | str) -> NetNode:
        """Node by id or name."""
        return self._nodes[self._resolve(ref)]

    def link(self, link_id: int) -> Link:
        return self._links[link_id]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def neighbors(self, ref: int | str) -> list[tuple[int, Link]]:
        """``(neighbor id, link)`` pairs incident to a node."""
        return list(self._adj[self._resolve(ref)])

    def degree(self, ref: int | str) -> int:
        return len(self._adj[self._resolve(ref)])

    def hosts(self) -> list[NetNode]:
        """All host nodes, in id order."""
        return [n for n in self._nodes if n.is_host]

    def routers(self) -> list[NetNode]:
        """All router nodes, in id order."""
        return [n for n in self._nodes if n.is_router]

    def as_sizes(self) -> dict[int, int]:
        """Router count per AS (the ``x`` in the memory model 10 + x²)."""
        sizes: dict[int, int] = {}
        for node in self._nodes:
            if node.is_router:
                sizes[node.as_id] = sizes.get(node.as_id, 0) + 1
        return sizes

    def node_total_bandwidth(self, ref: int | str) -> float:
        """Sum of incident link capacities — the TOP vertex weight."""
        return float(
            sum(
                link.bandwidth_bps
                for _, link in self._adj[self._resolve(ref)]
                if link.up
            )
        )

    def link_endpoint_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, latency_s, bandwidth_bps)`` arrays over links, in
        link-id order.  Built lazily and cached; every mutation
        (:meth:`add_link`, :meth:`set_link`, :meth:`set_link_up`)
        invalidates the cache, so a caller that re-reads it after a change
        sees the new values — the emulation kernel reads it live at every
        segment.  The arrays back the vectorized hot paths (kernel,
        lookahead, cut analysis) — do not mutate them in place."""
        if self._link_arrays is None:
            m = len(self._links)
            u = np.empty(m, dtype=np.int64)
            v = np.empty(m, dtype=np.int64)
            lat = np.empty(m, dtype=np.float64)
            bw = np.empty(m, dtype=np.float64)
            for i, link in enumerate(self._links):
                u[i] = link.u
                v[i] = link.v
                lat[i] = link.latency_s
                bw[i] = link.bandwidth_bps
            self._link_arrays = (u, v, lat, bw)
        return self._link_arrays

    def link_up_array(self) -> np.ndarray:
        """``bool[n_links]`` administrative state, in link-id order."""
        return np.fromiter(
            (link.up for link in self._links), dtype=bool,
            count=len(self._links),
        )

    def fingerprint(self) -> str:
        """Stable content hash of the network's structure.

        Two networks built the same way hash identically across processes
        and interpreter runs; any :meth:`add_node` / :meth:`add_link`
        invalidates the cached value.  This is the cache key component the
        artifact cache (:mod:`repro.runtime.cache`) uses for routing tables
        and emulation runs.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(self.name.encode("utf-8"))
            for node in self._nodes:
                h.update(
                    f"|n:{node.name}:{node.kind.value}:{node.as_id}:"
                    f"{node.site}".encode("utf-8")
                )
            for link in self._links:
                # Down links append a marker; fingerprints of all-up
                # networks are unchanged from previous releases, and a
                # down-then-up round trip restores the original hash
                # (which is what makes change-then-revert streams hit
                # the artifact cache).
                h.update(
                    f"|l:{link.u}:{link.v}:{link.bandwidth_bps!r}:"
                    f"{link.latency_s!r}"
                    f"{'' if link.up else ':down'}".encode("utf-8")
                )
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def cache_token(self) -> tuple:
        """Token consumed by :func:`repro.runtime.fingerprint.stable_hash`."""
        return ("Network", self.fingerprint())

    def find_link(self, u: int | str, v: int | str) -> Link | None:
        """Link between two nodes, or None."""
        uid, vid = self._resolve(u), self._resolve(v)
        for nbr, link in self._adj[uid]:
            if nbr == vid:
                return link
        return None

    # ------------------------------------------------------------------ #
    # Validation / conversion
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the network is non-empty, connected, and well-formed."""
        if self.n_nodes == 0:
            raise ValueError("empty network")
        seen_pairs: set[tuple[int, int]] = set()
        for link in self._links:
            if not link.up:
                continue
            pair = (link.u, link.v)
            if pair in seen_pairs:
                raise ValueError(f"parallel link between {pair}")
            seen_pairs.add(pair)
        for host in self.hosts():
            if self.degree(host.node_id) == 0:
                raise ValueError(f"host {host.name} is disconnected")
        if not self.is_connected():
            raise ValueError("network is not connected")

    def is_connected(self) -> bool:
        if self.n_nodes <= 1:
            return True
        seen = np.zeros(self.n_nodes, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for u, link in self._adj[v]:
                if link.up and not seen[u]:
                    seen[u] = True
                    stack.append(u)
        return bool(seen.all())

    def summary(self) -> str:
        """Table-1-style one-liner."""
        return (
            f"{self.name}: {len(self.routers())} routers, "
            f"{len(self.hosts())} hosts, {self.n_links} links"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network {self.summary()}>"
