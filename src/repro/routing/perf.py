"""Operation counters for the routing / traffic-estimation hot paths.

The PR-3 pattern (:mod:`repro.partition.perf`) applied to the §3.2 PLACE
pipeline: the vectorized kernels promise *batched* work — a next-hop table
certified in one whole-matrix gather (O(log n) doubling rounds for tied
rows only) instead of one Python iteration per (source, destination),
traceroutes stepped for all pairs at once, and one route walk per
*distinct* endpoint pair regardless of how many predicted flows share it.
:class:`RoutingStats` counts the operations that would betray a regression
to per-pair Python work, and the perf-guard test
(``tests/routing/test_perf_guard.py``) asserts the bounds so the build
fails if someone reintroduces a scalar loop.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RoutingStats"]


@dataclass
class RoutingStats:
    """Counters filled in by :func:`~repro.routing.spf.build_routing`,
    :func:`~repro.routing.icmp.discover_routes` and
    :func:`~repro.core.place.estimate_traffic`.

    Attributes
    ----------
    dijkstra_calls:
        Per-source-block ``scipy`` Dijkstra invocations (one in full mode,
        ``ceil(n / block_size)`` in blocked mode).
    nexthop_rounds:
        Pointer-doubling gather rounds of the next-hop fallback — rows
        that fail the build's certificate, blocked-mode blocks and delta
        recomputes; O(log diameter) per block, never O(n).
    python_dest_fills:
        Per-(source, destination) Python next-hop assignments.  Only the
        reference kernel performs these; the vectorized kernel must report
        exactly zero.
    walks:
        Traceroute executions (each batched walk counts once per pair, the
        paper's traceroute budget).
    walk_rounds:
        Batched stepping rounds — bounded by the longest route walked, not
        by the sum of path lengths.
    python_walk_steps:
        Per-hop Python ``next_hop`` lookups.  Only the reference walker
        performs these.
    routed_pairs:
        Distinct endpoint pairs routed by ``estimate_traffic`` — the guard
        asserts ``walks`` scales with this, not with the flow count.
    spliced_pairs:
        Pairs resolved by splicing a representative path (no walk).
    delta_updates:
        :func:`~repro.routing.delta.update_routing` invocations.
    affected_sources:
        Sources the delta predicate flagged as possibly changed — the
        set an incremental update *must* recompute.
    touched_sources:
        Source rows actually recomputed and spliced by the delta engine.
        The perf guard asserts ``touched_sources == affected_sources``
        exactly: recomputing fewer breaks correctness, recomputing more
        (e.g. a silent full-table rebuild) breaks the perf contract.
    resettled_cells:
        (source, destination) cells the delta engine re-settled and spliced.
    fallback_rows:
        Rows resolved by a fallback: dense-build rows whose transposed
        next hops failed the certificate (pointer doubling instead), and
        touched delta rows recomputed whole (tied tree or failed
        certificate).
    """

    dijkstra_calls: int = 0
    nexthop_rounds: int = 0
    python_dest_fills: int = 0
    walks: int = 0
    walk_rounds: int = 0
    python_walk_steps: int = 0
    routed_pairs: int = 0
    spliced_pairs: int = 0
    delta_updates: int = 0
    affected_sources: int = 0
    touched_sources: int = 0
    resettled_cells: int = 0
    fallback_rows: int = 0
