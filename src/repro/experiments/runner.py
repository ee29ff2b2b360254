"""End-to-end experiment runner.

The full pipeline for one setup (mirroring the paper's methodology):

1. Build the network and routing; prepare the workload (fix populations).
2. **Profiling run** — emulate once under the TOP partition with NetFlow
   collection enabled, using different arrival randomness than the
   evaluation run (the paper profiles an *initial* experiment, then runs
   the real one; traffic structure repeats, exact arrivals do not).
3. Build the TOP / PLACE / PROFILE mappings.
4. **Evaluation run** — emulate once (the virtual traffic is mapping
   independent) and score every mapping against its trace: load imbalance,
   application emulation time, isolated network emulation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.mapper import Mapper, MapperConfig, MappingResult
from repro.engine.costmodel import CostModel
from repro.engine.kernel import run_kernel
from repro.engine.parallel import EmulationMetrics, evaluate_mapping
from repro.engine.trace import EventTrace
from repro.experiments.setups import ExperimentSetup
from repro.experiments.workloads import Workload
from repro.metrics.summary import ApproachOutcome
from repro.profiling.aggregate import ProfileData
from repro.profiling.netflow import NetFlowCollector
from repro.routing.spf import build_routing
from repro.routing.tables import RoutingTables

__all__ = [
    "RunnerConfig",
    "EmulationRun",
    "ApproachEvaluation",
    "run_emulation",
    "evaluate_setup",
    "evaluate_workload",
]

#: Seed offset separating the profiling run's arrivals from the evaluation
#: run's (same workload structure, different randomness).
PROFILE_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class RunnerConfig:
    """Harness-wide knobs.

    ``engine`` selects the execution engine for *evaluation* emulations:
    ``"sequential"`` (the batched single-process kernel) or ``"parallel"``
    (one logical process per partition, see
    :class:`repro.engine.lp.ParallelEmulationKernel`).  Profiling runs
    always stay sequential — NetFlow collection is coupled to global
    arrival order.  Both engines produce bit-identical traces, so the
    choice affects wall time only; it still participates in cache keys
    (the config is part of every run's key).
    """

    train_packets: int = 16
    profile_interval: float = 5.0
    cost: CostModel = field(default_factory=CostModel)
    mapper: MapperConfig = field(default_factory=MapperConfig)
    netflow_granularity: str = "flow"
    engine: str = "sequential"

    def __post_init__(self) -> None:
        if self.engine not in ("sequential", "parallel"):
            raise ValueError(
                f"unknown engine {self.engine!r}; choose 'sequential' or "
                "'parallel'"
            )


@dataclass
class EmulationRun:
    """One kernel execution's artifacts."""

    trace: EventTrace
    profile: ProfileData | None


def run_emulation(
    net,
    tables: RoutingTables,
    workload: Workload,
    seed: int,
    config: RunnerConfig | None = None,
    collect_netflow: bool = False,
    cache=None,
    telemetry=None,
    parts=None,
) -> EmulationRun:
    """Execute one emulation of ``workload`` (prepared already).

    With a ``cache`` (:class:`repro.runtime.cache.ArtifactCache`), the run
    is content-addressed by (network, routing metric, prepared workload,
    seed, config, netflow flag): a repeated identical call returns the
    stored artifacts instead of re-simulating, bit-for-bit.  ``telemetry``
    records an ``emulate/{profile-run,eval-run}`` span around the actual
    simulation (cache hits record nothing) plus the kernel's counters.

    ``parts`` is the parallel engine's logical-process partition when
    ``config.engine == "parallel"`` (profiling runs ignore it — NetFlow
    collection forces the sequential engine).  Both engines produce
    bit-identical traces, so ``parts`` is deliberately *not* part of the
    cache key.
    """
    from repro.obs.telemetry import ensure_telemetry

    config = config or RunnerConfig()
    if cache is not None:
        kind = "profile-run" if collect_netflow else "eval-run"
        key_parts = (
            net.fingerprint(), tables.metric, workload, int(seed), config,
            bool(collect_netflow),
        )
        return cache.get_or_compute(
            kind,
            key_parts,
            lambda: run_emulation(
                net, tables, workload, seed, config=config,
                collect_netflow=collect_netflow, telemetry=telemetry,
                parts=parts,
            ),
        )
    tel = ensure_telemetry(telemetry)
    with tel.span(
        "emulate/profile-run" if collect_netflow else "emulate/eval-run"
    ):
        collector = (
            NetFlowCollector(config.netflow_granularity)
            if collect_netflow else None
        )
        trace, _ = run_kernel(
            net, tables, workload, seed=seed,
            train_packets=config.train_packets, collector=collector,
            telemetry=tel,
            engine="sequential" if collect_netflow else config.engine,
            parts=parts,
        )
        profile = None
        if collector is not None:
            profile = ProfileData.from_run(
                collector, trace, net, interval=config.profile_interval,
            )
        return EmulationRun(trace=trace, profile=profile)


@dataclass
class ApproachEvaluation:
    """Everything measured for one approach in one setup."""

    mapping: MappingResult
    metrics: EmulationMetrics
    outcome: ApproachOutcome


def evaluate_setup(
    setup: ExperimentSetup,
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    seed: int = 0,
    config: RunnerConfig | None = None,
    cache=None,
    telemetry=None,
) -> dict[str, ApproachEvaluation]:
    """Run the full pipeline for one setup; returns approach → evaluation."""
    workload = setup.build_workload(seed)
    return evaluate_workload(
        setup.network, workload, setup.n_engine_nodes,
        approaches=approaches, seed=seed, config=config, cache=cache,
        telemetry=telemetry, setup_name=setup.name,
    )


def evaluate_workload(
    net,
    workload: Workload,
    k: int,
    *,
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    seed: int = 0,
    config: RunnerConfig | None = None,
    tables: RoutingTables | None = None,
    cache=None,
    telemetry=None,
    setup_name: str | None = None,
) -> dict[str, ApproachEvaluation]:
    """Run the profiling → mapping → evaluation pipeline for any network +
    workload pair (the spec-file / CLI entry point).

    All arguments after the leading ``(net, workload, k)`` are
    keyword-only.  ``cache`` shares routing tables and profiling /
    evaluation emulations across calls (see :mod:`repro.runtime.cache`).
    ``telemetry`` records the full phase breakdown (routing, mapping per
    approach, profiling/evaluation emulations, scoring) plus per-approach
    load timelines; ``setup_name`` labels those timelines.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    label_base = {"setup": setup_name or getattr(net, "name", "?"),
                  "seed": int(seed)}
    config = config or RunnerConfig()
    if tables is None:
        tables = build_routing(net, cache=cache, telemetry=tel)

    with tel.span("workload/prepare"):
        workload.prepare(net, np.random.default_rng(seed))

    mapper = Mapper(net, n_parts=k, tables=tables, config=config.mapper,
                    telemetry=tel)
    mappings: dict[str, MappingResult] = {}
    compute = workload.compute_profile()

    top_mapping = mapper.map_top()
    if "top" in approaches:
        mappings["top"] = top_mapping
    if "place" in approaches:
        mappings["place"] = mapper.map_place(workload.background, workload.apps)
    if "profile" in approaches:
        profile_run = run_emulation(
            net, tables, workload, seed + PROFILE_SEED_OFFSET,
            config=config, collect_netflow=True, cache=cache, telemetry=tel,
        )
        assert profile_run.profile is not None
        # Model selection on the profiling data: §3.3's segment clustering
        # helps when the run has genuine stages, and amplifies noise when
        # it does not.  When it finds at least two segments, the mappings
        # with and without them are both scored against the profiling
        # run's own trace (the only data PROFILE may look at) and the
        # better one ships, the first on a tie.  With fewer segments (or
        # segments disabled) both candidates would be the same problem,
        # so the first is the only one mapped.
        candidates: list[tuple[float, MappingResult]] = []
        for use_segments in (config.mapper.use_segments, False):
            cand_mapper = Mapper(
                net, n_parts=k, tables=tables,
                config=replace(config.mapper, use_segments=use_segments),
                telemetry=tel,
            )
            cand = cand_mapper.map_profile(
                profile_run.profile, initial_parts=top_mapping.parts
            )
            score = evaluate_mapping(
                profile_run.trace, net, cand.parts, cost=config.cost,
                compute=compute,
            ).wall_app
            cand.diagnostics["profiling_run_score"] = score
            candidates.append((score, cand))
            if cand.diagnostics["n_segments"] < 2:
                break
        candidates.sort(key=lambda item: item[0])
        mappings["profile"] = candidates[0][1]

    eval_run = run_emulation(
        net, tables, workload, seed, config=config, cache=cache,
        telemetry=tel,
        parts=(
            top_mapping.parts if config.engine == "parallel" else None
        ),
    )

    results: dict[str, ApproachEvaluation] = {}
    for name in approaches:
        mapping = mappings[name]
        with tel.span(f"score/{name}"):
            metrics = evaluate_mapping(
                eval_run.trace, net, mapping.parts, cost=config.cost,
                compute=compute, telemetry=tel,
                timeline_label={**label_base, "approach": name},
            )
        results[name] = ApproachEvaluation(
            mapping=mapping,
            metrics=metrics,
            outcome=ApproachOutcome(
                approach=name,
                load_imbalance=metrics.load_imbalance,
                app_emulation_time=metrics.wall_app,
                network_emulation_time=metrics.wall_network,
                edge_cut=mapping.partition.weighted_cut,
                remote_packets=metrics.remote_packets,
                lookahead=metrics.lookahead,
                diagnostics=dict(mapping.diagnostics),
            ),
        )
    return results
