"""PLACE — application-placement-based mapping (§3.2).

Traffic is estimated in two parts and summed:

- **Background**: each generator supplies its average-bandwidth prediction
  per endpoint pair ("all traffic generators can provide some prediction of
  their generated traffic load").
- **Foreground**: the placement approximation — every injection point is
  assumed to fully utilize its access link, talking to all other endpoints
  with evenly distributed bandwidth.

Each predicted flow is routed by *traceroute inside the emulator* (ICMP over
the instantiated routing tables), optionally with one representative
endpoint per sub-network to cut the number of traceroute executions.  The
aggregated per-link load becomes the traffic objective; per-node
through-traffic becomes the compute term of the vertex weight.

The estimation hot path is batched: flows dedupe to distinct endpoint
pairs with one vectorized pass, routes are discovered by batched TTL
stepping (:func:`repro.routing.icmp.batched_walks`), and per-link /
per-node rates accumulate through ``np.add.at`` in route order — so the
result is bit-identical to the preserved scalar reference
(:func:`repro.routing._reference.estimate_traffic_reference`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregate import (
    accumulate_rates,
    balance_inputs,
    flatten_route_rates,
)
from repro.routing.icmp import batched_walks, plan_routes
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.apps.base import ForegroundApp
from repro.traffic.flows import PredictedFlow, TrafficGenerator

__all__ = [
    "PlaceInputs",
    "TrafficEstimate",
    "foreground_placement_flows",
    "estimate_traffic",
    "build_place_inputs",
]


@dataclass(frozen=True)
class TrafficEstimate:
    """Routed and aggregated predicted traffic.

    ``link_rate`` / ``node_rate`` are bytes/s per link and through-node;
    ``n_routes`` counts distinct routed pairs (the traceroute budget).
    """

    link_rate: np.ndarray
    node_rate: np.ndarray
    n_routes: int


@dataclass(frozen=True)
class PlaceInputs:
    """Partition inputs of the PLACE approach."""

    vwgt: np.ndarray
    link_weights_latency: np.ndarray
    link_weights_traffic: np.ndarray
    estimate: TrafficEstimate
    diagnostics: dict


def foreground_placement_flows(
    net: Network,
    app: ForegroundApp,
    burst_factor: float = 2.0,
) -> list[PredictedFlow]:
    """The §3.2 placement approximation for one application.

    Each injection point is assumed to fully utilize its access link,
    "and every node talks to all other nodes with evenly distributed
    bandwidth".  When the application supplies a coarse aggregate-volume
    hint (:meth:`ForegroundApp.offered_bytes` — e.g. the matrix or dataflow
    sizes a user certainly knows), the per-endpoint rate is capped at
    ``burst_factor ×`` the implied average: on hosts whose NICs are far
    faster than the application, the literal full-utilization assumption
    would drown the (accurate) background prediction and misdirect the
    partition.  Without a hint, the paper's literal assumption applies.
    """
    endpoints = app.endpoints
    if len(endpoints) < 2:
        return []
    hint = app.offered_bytes()
    hint_rate = None
    if hint is not None and app.duration > 0:
        hint_rate = burst_factor * hint / (len(endpoints) * app.duration)
    flows: list[PredictedFlow] = []
    for src in endpoints:
        access_rate = net.node_total_bandwidth(src) / 8.0  # bytes/s
        src_rate = access_rate
        if hint_rate is not None:
            src_rate = min(access_rate, hint_rate)
        share = src_rate / (len(endpoints) - 1)
        for dst in endpoints:
            if dst != src:
                flows.append(PredictedFlow(src, dst, share))
    return flows


def _dedupe_flows(
    flows: list[PredictedFlow], n_nodes: int
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Merge flows into (sorted distinct pairs, per-pair summed rates).

    One vectorized pass: duplicate pairs sum their rates in flow order
    (``np.add.at``), matching the scalar dict accumulation bit-for-bit.
    """
    m = len(flows)
    src = np.fromiter((f.src for f in flows), dtype=np.int64, count=m)
    dst = np.fromiter((f.dst for f in flows), dtype=np.int64, count=m)
    rate = np.fromiter(
        (f.bytes_per_s for f in flows), dtype=np.float64, count=m
    )
    keys = src * n_nodes + dst
    uniq, inv = np.unique(keys, return_inverse=True)
    pair_rates = accumulate_rates(inv, rate, uniq.size)
    pairs = [
        (int(k) // n_nodes, int(k) % n_nodes) for k in uniq.tolist()
    ]
    return pairs, pair_rates


def estimate_traffic(
    net: Network,
    tables: RoutingTables,
    flows: list[PredictedFlow],
    use_representatives: bool = True,
    *,
    telemetry=None,
    stats=None,
) -> TrafficEstimate:
    """Route predicted flows (traceroute) and aggregate per link/node.

    ``stats`` (a :class:`repro.routing.perf.RoutingStats`) collects walk
    counters.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    with tel.span("place/estimate"):
        if not flows:
            return TrafficEstimate(
                link_rate=np.zeros(net.n_links, dtype=np.float64),
                node_rate=np.zeros(net.n_nodes, dtype=np.float64),
                n_routes=0,
            )
        pairs, pair_rates = _dedupe_flows(flows, net.n_nodes)
        n_pairs = len(pairs)
        if stats is not None:
            stats.routed_pairs += n_pairs
        plan = plan_routes(
            tables, pairs, use_representatives=use_representatives,
            stats=stats,
        )
        # Routes the plan already resolved are reused; the rest are walked.
        walk_idx = [i for i in range(n_pairs) if i not in plan.known]
        walked = batched_walks(
            tables, [pairs[i] for i in walk_idx], stats=stats
        )
        path_of = dict(plan.known)
        path_of.update(zip(walk_idx, walked))
        estimate = _aggregate_paths(
            net, tables, [path_of[i] for i in range(n_pairs)], pair_rates,
            n_routes=plan.n_walks,
        )
    tel.count("place.flows", len(flows))
    tel.count("place.pairs", n_pairs)
    tel.count("place.walks", plan.n_walks)
    return estimate


def _aggregate_paths(
    net: Network, tables: RoutingTables, paths, pair_rates, n_routes: int
) -> TrafficEstimate:
    """Flatten all paths and accumulate per link/node in pair order: one
    unbuffered pass, bit-identical to the scalar per-pair loop."""
    nodes, node_rates, us, vs, edge_rates = flatten_route_rates(
        paths, pair_rates
    )
    link_rate = accumulate_rates(
        tables.link_ids_of(us, vs), edge_rates, net.n_links
    )
    node_rate = accumulate_rates(nodes, node_rates, net.n_nodes)
    return TrafficEstimate(
        link_rate=link_rate, node_rate=node_rate, n_routes=n_routes
    )


def build_place_inputs(
    net: Network,
    tables: RoutingTables,
    background: list[TrafficGenerator],
    apps: list[ForegroundApp],
    memory_weight: float = 0.1,
    memory_mode: str = "sum",
    use_representatives: bool = True,
    *,
    telemetry=None,
) -> PlaceInputs:
    """Compute PLACE vertex/edge weights.

    ``background`` generators must already be prepared (populations fixed)
    so their predictions are available.
    """
    flows: list[PredictedFlow] = []
    for gen in background:
        flows.extend(gen.predicted_flows(net, tables))
    for app in apps:
        flows.extend(foreground_placement_flows(net, app))
    estimate = estimate_traffic(
        net, tables, flows, use_representatives=use_representatives,
        telemetry=telemetry,
    )
    vwgt, link_weights_latency = balance_inputs(
        estimate.node_rate, net, memory_weight=memory_weight,
        memory_mode=memory_mode,
    )
    return PlaceInputs(
        vwgt=vwgt,
        link_weights_latency=link_weights_latency,
        link_weights_traffic=estimate.link_rate,
        estimate=estimate,
        diagnostics={
            "approach": "place",
            "n_predicted_flows": len(flows),
            "n_routes": estimate.n_routes,
            "total_predicted_mbytes_per_s": float(estimate.link_rate.sum() / 1e6),
        },
    )
