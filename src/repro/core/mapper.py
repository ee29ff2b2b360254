"""The Mapper facade: one entry point for TOP / PLACE / PROFILE.

Implements Figure 1's pipeline: network structure + traffic information →
input graph (vertex constraints, edge objectives) → graph partitioning →
node-to-engine mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graphbuild import link_weights_to_adjwgt, network_csr
from repro.core.multi_objective import combine_objectives
from repro.core.place import build_place_inputs
from repro.core.profile_map import build_profile_inputs
from repro.core.top import build_top_inputs
from repro.partition.api import PartitionResult, part_graph
from repro.profiling.aggregate import ProfileData
from repro.routing.spf import build_routing
from repro.routing.tables import RoutingTables
from repro.topology.network import Network
from repro.traffic.apps.base import ForegroundApp
from repro.traffic.flows import TrafficGenerator

__all__ = ["MapperConfig", "MappingResult", "Mapper"]


@dataclass(frozen=True)
class MapperConfig:
    """Tunables shared by the three approaches.

    Attributes
    ----------
    algorithm, tolerance, seed:
        Passed to the partitioner.
    latency_priority:
        The §2.3 ``p`` — tradeoff between the maximize-cut-latency and
        minimize-cut-traffic objectives.  Default 0.6 (the paper's 6:4).
    memory_weight, memory_mode:
        The §5 compute/memory tradeoff; ``mode`` is ``"sum"`` (weighted sum,
        the paper's default) or ``"constraint"`` (multi-constraint).
    use_segments, max_segments:
        §3.3 segment clustering for PROFILE.
    use_representatives:
        PLACE's traceroute-reduction optimization.
    """

    algorithm: str = "multilevel"
    # Balance envelope: looser than METIS's classic 1.03 because the
    # emulation weights are lumpy (hub routers, whole subnets) — a tight
    # envelope forces cuts through low-latency subnets, which costs far
    # more emulation time than a few percent of weight imbalance.
    tolerance: float = 1.20
    seed: int = 0
    latency_priority: float = 0.6
    memory_weight: float = 0.1
    memory_mode: str = "sum"
    use_segments: bool = True
    max_segments: int = 3
    use_representatives: bool = True


@dataclass
class MappingResult:
    """A node → engine-node assignment plus provenance."""

    approach: str
    parts: np.ndarray
    k: int
    partition: PartitionResult
    diagnostics: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"{self.approach.upper()}: {self.partition.summary()} "
            f"({self.diagnostics.get('n_segments', 0)} segments)"
        )


class Mapper:
    """Maps one network onto ``n_parts`` engine nodes.

    Builds the CSR skeleton and routing once; each ``map_*`` call assembles
    approach-specific weights and partitions.
    """

    def __init__(
        self,
        net: Network,
        n_parts: int,
        tables: RoutingTables | None = None,
        config: MapperConfig | None = None,
        engine_capacities: np.ndarray | None = None,
        telemetry=None,
    ) -> None:
        """``engine_capacities`` (shape ``(n_parts,)``) requests an uneven
        weight split for a heterogeneous engine cluster — the extension the
        paper's §5 leaves open ("currently assumes homogeneous physical
        resources").  ``telemetry`` (a
        :class:`repro.obs.telemetry.Telemetry`) records per-approach
        ``map/<approach>`` spans and the partitioner's own spans."""
        from repro.obs.telemetry import ensure_telemetry

        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        self.net = net
        self.n_parts = n_parts
        self.telemetry = ensure_telemetry(telemetry)
        self.tables = (
            tables if tables is not None
            else build_routing(net, telemetry=self.telemetry)
        )
        self.config = config or MapperConfig()
        if engine_capacities is not None:
            caps = np.asarray(engine_capacities, dtype=np.float64)
            if caps.shape != (n_parts,):
                raise ValueError(
                    f"engine_capacities must have shape ({n_parts},)"
                )
            if np.any(caps <= 0):
                raise ValueError("engine capacities must be positive")
            self.target_fracs = caps / caps.sum()
        else:
            self.target_fracs = None
        self._graph, self._link_index = network_csr(net)

    # ------------------------------------------------------------------ #
    def _partition(
        self, vwgt: np.ndarray, link_weights: np.ndarray
    ) -> PartitionResult:
        graph = self._graph.with_vwgt(vwgt).with_adjwgt(
            link_weights_to_adjwgt(link_weights, self._link_index)
        )
        return part_graph(
            graph, self.n_parts, algorithm=self.config.algorithm,
            tolerance=self.config.tolerance, seed=self.config.seed,
            target_fracs=self.target_fracs, telemetry=self.telemetry,
        )

    def _partition_multi_objective(
        self,
        vwgt: np.ndarray,
        latency_weights: np.ndarray,
        traffic_weights: np.ndarray,
    ) -> tuple[PartitionResult, dict]:
        graph = self._graph.with_vwgt(vwgt)
        combo = combine_objectives(
            graph, self._link_index, latency_weights, traffic_weights,
            self.n_parts, p=self.config.latency_priority,
            algorithm=self.config.algorithm, tolerance=self.config.tolerance,
            seed=self.config.seed, target_fracs=self.target_fracs,
            telemetry=self.telemetry,
        )
        result = self._partition(vwgt, combo.link_weights)
        return result, {
            "c_latency": combo.c_latency,
            "c_bandwidth": combo.c_bandwidth,
            "latency_priority": combo.p,
        }

    # ------------------------------------------------------------------ #
    def map_top(self) -> MappingResult:
        """TOP: static topology, latency objective only (§3.1)."""
        with self.telemetry.span("map/top"):
            inputs = build_top_inputs(
                self.net, memory_weight=self.config.memory_weight,
                memory_mode=self.config.memory_mode,
            )
            result = self._partition(inputs.vwgt, inputs.link_weights)
        return MappingResult(
            approach="top", parts=result.parts, k=self.n_parts,
            partition=result, diagnostics=dict(inputs.diagnostics),
        )

    def map_place(
        self,
        background: list[TrafficGenerator],
        apps: list[ForegroundApp],
    ) -> MappingResult:
        """PLACE: predicted background + placement-approximated foreground
        traffic, multi-objective partitioning (§3.2)."""
        with self.telemetry.span("map/place"):
            inputs = build_place_inputs(
                self.net, self.tables, background, apps,
                memory_weight=self.config.memory_weight,
                memory_mode=self.config.memory_mode,
                use_representatives=self.config.use_representatives,
                telemetry=self.telemetry,
            )
            result, mo_diag = self._partition_multi_objective(
                inputs.vwgt, inputs.link_weights_latency,
                inputs.link_weights_traffic,
            )
        diag = dict(inputs.diagnostics)
        diag.update(mo_diag)
        return MappingResult(
            approach="place", parts=result.parts, k=self.n_parts,
            partition=result, diagnostics=diag,
        )

    def map_profile(
        self,
        profile: ProfileData,
        initial_parts: np.ndarray | None = None,
    ) -> MappingResult:
        """PROFILE: measured NetFlow loads with segment clustering (§3.3)."""
        with self.telemetry.span("map/profile"):
            inputs = build_profile_inputs(
                self.net, profile, initial_parts=initial_parts,
                use_segments=self.config.use_segments,
                max_segments=self.config.max_segments,
                memory_weight=self.config.memory_weight,
                memory_mode=self.config.memory_mode,
            )
            result, mo_diag = self._partition_multi_objective(
                inputs.vwgt, inputs.link_weights_latency,
                inputs.link_weights_traffic,
            )
        diag = dict(inputs.diagnostics)
        diag.update(mo_diag)
        return MappingResult(
            approach="profile", parts=result.parts, k=self.n_parts,
            partition=result, diagnostics=diag,
        )

    def map_network(
        self,
        approach: str,
        background: list[TrafficGenerator] | None = None,
        apps: list[ForegroundApp] | None = None,
        profile: ProfileData | None = None,
        initial_parts: np.ndarray | None = None,
    ) -> MappingResult:
        """Dispatch by approach name ("top" | "place" | "profile")."""
        approach = approach.lower()
        if approach == "top":
            return self.map_top()
        if approach == "place":
            return self.map_place(background or [], apps or [])
        if approach == "profile":
            if profile is None:
                raise ValueError("PROFILE requires profile data")
            return self.map_profile(profile, initial_parts=initial_parts)
        raise ValueError(f"unknown approach {approach!r}")
