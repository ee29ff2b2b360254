"""Warm in-memory caches shared across service requests.

The perf core of service mode: a long-running process keeps the
expensive intermediate objects *live* between requests, layered over the
on-disk :class:`~repro.runtime.cache.ArtifactCache` (which keeps them
across restarts, but still pays unpickling per process).  Three layers,
all under one LRU with a configurable byte budget:

- **topologies** — canonical spec → built
  :class:`~repro.topology.network.Network` (no re-parse / re-generate);
- **routing** — ``(fingerprint, metric)`` →
  :class:`~repro.routing.delta.RoutingState`.  A miss first tries to
  **delta-derive** from any warm state over the same node universe via
  :func:`repro.routing.delta.derive_routing` (bit-identical to a cold
  build, at incremental-SPF cost) before falling back to
  :func:`~repro.routing.spf.build_routing`;
- **responses** — canonical request → finished result dict, so an exact
  repeat is served without touching the pipeline at all.

Everything is guarded by one lock; computations run *outside* it, so a
slow cold build never blocks warm hits for other jobs.  Entries are
inserted only by fully-successful jobs — a failing or cancelled job
cannot poison warm state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["WarmCache", "WarmStats"]

#: Default in-memory budget: enough for a handful of 1k-router routing
#: states (each ~12 MB of dist + next_hop).
DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024


@dataclass
class WarmStats:
    """Per-layer hit/miss/eviction accounting for the metrics endpoint."""

    layers: dict = field(default_factory=dict)
    delta_derives: int = 0
    cold_builds: int = 0
    evictions: int = 0

    def _layer(self, name: str) -> dict:
        return self.layers.setdefault(name, {"hits": 0, "misses": 0})

    def hit(self, layer: str) -> None:
        self._layer(layer)["hits"] += 1

    def miss(self, layer: str) -> None:
        self._layer(layer)["misses"] += 1

    def hit_rate(self, layer: str) -> float:
        per = self._layer(layer)
        total = per["hits"] + per["misses"]
        return per["hits"] / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "layers": {k: dict(v) for k, v in self.layers.items()},
            "delta_derives": self.delta_derives,
            "cold_builds": self.cold_builds,
            "evictions": self.evictions,
        }


def _network_nbytes(net) -> int:
    """Rough live size of a built Network (links dominate)."""
    return 256 * getattr(net, "n_links", 0) + 128 * getattr(net, "n_nodes", 0)


def _routing_nbytes(state) -> int:
    tables = state.tables
    graph = state.graph
    if hasattr(graph, "nbytes"):          # dense ndarray
        graph_nbytes = int(graph.nbytes)
    else:                                  # scipy CSR cost graph
        graph_nbytes = sum(
            int(getattr(graph, name).nbytes)
            for name in ("data", "indices", "indptr")
            if hasattr(graph, name)
        )
    return int(tables.dist.nbytes + tables.next_hop.nbytes) + graph_nbytes


class WarmCache:
    """LRU of topologies / routing states / response memos under a byte
    budget.

    Parameters
    ----------
    budget_bytes:
        Total in-memory budget across all layers; least-recently-used
        entries are evicted past it (a single entry larger than the
        budget is still admitted — the budget bounds *retention*, not
        request size).
    disk:
        The shared on-disk :class:`~repro.runtime.cache.ArtifactCache`
        (or ``None``); handed to cold builds so disk hits still skip
        recomputation.
    max_delta_changes:
        Ceiling on the canonical change set size for which a routing miss
        is served by delta-derivation instead of a full rebuild.
    """

    def __init__(
        self,
        *,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        disk=None,
        max_delta_changes: int = 64,
        telemetry=None,
    ) -> None:
        self.budget_bytes = int(budget_bytes)
        self.disk = disk
        self.max_delta_changes = int(max_delta_changes)
        self._telemetry = telemetry
        # (layer, key) -> (value, nbytes); insertion/recency order.
        self._entries: OrderedDict[tuple, tuple[object, int]] = OrderedDict()
        self._nbytes = 0
        self._lock = threading.RLock()
        self.stats = WarmStats()

    # ------------------------------------------------------------------ #
    # Generic LRU plumbing
    # ------------------------------------------------------------------ #
    def _get(self, layer: str, key, *, count_miss: bool = True
             ) -> tuple[bool, object]:
        with self._lock:
            entry = self._entries.get((layer, key))
            if entry is None:
                if count_miss:
                    self.stats.miss(layer)
                return False, None
            self._entries.move_to_end((layer, key))
            self.stats.hit(layer)
            return True, entry[0]

    def _put(self, layer: str, key, value, nbytes: int) -> None:
        with self._lock:
            old = self._entries.pop((layer, key), None)
            if old is not None:
                self._nbytes -= old[1]
            self._entries[(layer, key)] = (value, int(nbytes))
            self._nbytes += int(nbytes)
            while self._nbytes > self.budget_bytes and len(self._entries) > 1:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._nbytes -= dropped
                self.stats.evictions += 1
                if self._telemetry is not None:
                    self._telemetry.count("service.warm_evictions")

    def keys(self, layer: str) -> list:
        """The layer's live keys, LRU → MRU (test/introspection aid)."""
        with self._lock:
            return [k for (lay, k) in self._entries if lay == layer]

    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    # ------------------------------------------------------------------ #
    # Topology layer
    # ------------------------------------------------------------------ #
    @staticmethod
    def topology_key(spec: dict) -> tuple:
        from repro.service.requests import canonical_value

        return canonical_value(spec or {})

    def topology(self, spec: dict):
        """The built Network for a canonical topology spec."""
        key = self.topology_key(spec)
        found, net = self._get("topology", key)
        if found:
            return net
        net = build_topology(spec)
        self._put("topology", key, net, _network_nbytes(net))
        return net

    # ------------------------------------------------------------------ #
    # Routing layer
    # ------------------------------------------------------------------ #
    def routing(self, net, metric: str = "latency"):
        """A warm :class:`RoutingState` for ``net`` (never mutated here).

        Resolution order: exact fingerprint hit → delta-derivation from a
        warm sibling (≤ ``max_delta_changes`` canonically-changed edges;
        bit-identical to a cold build) → cold
        :func:`~repro.routing.spf.build_routing` through the disk cache.
        """
        from repro.routing.delta import derive_routing, routing_state
        from repro.routing.spf import build_routing

        key = (net.fingerprint(), metric)
        found, state = self._get("routing", key)
        if found:
            return state

        # Delta path: scan warm candidates MRU-first outside the lock
        # (a candidate evicted mid-scan just fails the derive harmlessly).
        with self._lock:
            candidates = [
                entry[0]
                for (layer, k), entry in reversed(self._entries.items())
                if layer == "routing" and k[1] == metric
            ]
        for candidate in candidates:
            if candidate.tables.net.n_nodes != net.n_nodes:
                continue
            derived = derive_routing(
                candidate, net, max_changes=self.max_delta_changes,
                cache=self.disk, telemetry=self._telemetry,
            )
            if derived is None:
                continue
            state, _touched = derived
            self.stats.delta_derives += 1
            if self._telemetry is not None:
                self._telemetry.count("service.warm_delta_derives")
            self._put("routing", key, state, _routing_nbytes(state))
            return state

        tables = build_routing(
            net, metric, cache=self.disk, telemetry=self._telemetry
        )
        state = routing_state(tables)
        self.stats.cold_builds += 1
        self._put("routing", key, state, _routing_nbytes(state))
        return state

    # ------------------------------------------------------------------ #
    # Response memo layer
    # ------------------------------------------------------------------ #
    def memo_get(self, canon: tuple, *, count_miss: bool = True
                 ) -> tuple[bool, dict | None]:
        """Look ``canon`` up; ``count_miss=False`` for a second look at a
        request whose miss was already counted."""
        found, value = self._get("response", canon, count_miss=count_miss)
        return (True, value) if found else (False, None)  # type: ignore

    def memo_put(self, canon: tuple, result: dict) -> None:
        # Rough: responses are small JSON-ish dicts.
        self._put("response", canon, result, 64 * 1024)


def build_topology(spec: dict):
    """Build a Network from a canonical topology spec dict.

    ``source`` selects :func:`repro.topology.synth.synth_network`
    (``"synth"``) or :func:`repro.api.load_topology` (built-in names and
    DML paths); remaining keys are factory kwargs.  ``changes`` (a list
    of change dicts) is applied after the build via
    :func:`repro.routing.delta.apply_changes`.
    """
    from repro.api import load_topology
    from repro.routing.delta import apply_changes
    from repro.service.requests import decode_changes
    from repro.topology.synth import synth_network

    spec = dict(spec or {})
    source = str(spec.pop("source", "synth")).strip().lower()
    changes = spec.pop("changes", None)
    if source == "synth":
        net = synth_network(**spec)
    else:
        net = load_topology(source, **spec)
    if changes:
        apply_changes(net, decode_changes(changes))
    return net
