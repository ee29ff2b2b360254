"""The ``repro.api`` facade: the whole pipeline in five calls.

Quickstart::

    import repro

    net = repro.load_topology("campus")
    results = repro.run_experiment("campus", seed=1)
    stats = repro.sweep("campus", seeds=(1, 2, 3, 4), workers=4)
    run = repro.emulate("campus", workload=wl, engine="parallel", k=3)

The facade wraps the experiment harness (:mod:`repro.experiments`), the
mapper (:mod:`repro.core`), the emulation engines (:mod:`repro.engine`)
and the parallel runtime (:mod:`repro.runtime`) behind five functions:

- :func:`load_topology` — a built-in topology by name, or a DML file.
- :func:`build_mapping` — one TOP / PLACE / PROFILE mapping.
- :func:`emulate` — one emulation run (sequential, or seen through a
  partition of logical processes), returning an :class:`EmulationResult`.
- :func:`run_experiment` — the full profile → map → evaluate pipeline.
- :func:`sweep` — repeat :func:`run_experiment` across seeds, optionally
  fanned out over worker processes with artifact caching.

All are re-exported from the top-level :mod:`repro` package.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

__all__ = [
    "load_topology",
    "build_mapping",
    "emulate",
    "EmulationResult",
    "apply_changes",
    "run_experiment",
    "sweep",
    "TOPOLOGIES",
]

#: Built-in topology names accepted by :func:`load_topology`.
TOPOLOGIES = ("campus", "teragrid", "brite", "brite-large")


def load_topology(source: str, **kwargs):
    """Build a virtual network.

    Parameters
    ----------
    source:
        A built-in topology name (:data:`TOPOLOGIES`, case-insensitive) or
        a path to a DML network description file.
    kwargs:
        Extra factory arguments (e.g. ``seed=...`` / ``n_routers=...`` for
        the BRITE-like generators).  Rejected for DML files.

    Returns
    -------
    repro.topology.network.Network
    """
    from repro.topology.brite import brite_network
    from repro.topology.campus import campus_network
    from repro.topology.teragrid import teragrid_network

    name = str(source).strip().lower()
    factories: dict[str, Callable] = {
        "campus": campus_network,
        "teragrid": teragrid_network,
        "brite": lambda **kw: brite_network(
            **{"n_routers": 160, "n_hosts": 132, **kw}
        ),
        "brite-large": lambda **kw: brite_network(
            **{"n_routers": 200, "n_hosts": 364, **kw}
        ),
    }
    if name in factories:
        return factories[name](**kwargs)
    if os.path.exists(source):
        if kwargs:
            raise TypeError(
                "keyword arguments are not accepted when loading a DML "
                f"file ({sorted(kwargs)})"
            )
        from repro.topology import dml

        return dml.load(source)
    raise ValueError(
        f"unknown topology {source!r}: not one of {', '.join(TOPOLOGIES)} "
        "and not an existing DML file"
    )


def build_mapping(
    net,
    k: int,
    approach: str = "top",
    *,
    workload=None,
    profile=None,
    tables=None,
    config=None,
    runner_config=None,
    seed: int = 0,
    cache=None,
):
    """Build one node → engine-node mapping.

    Parameters
    ----------
    net, k:
        The virtual network and the engine-node count.
    approach:
        ``"top"`` (topology only), ``"place"`` (needs ``workload`` for its
        traffic predictions), or ``"profile"`` (needs ``profile`` data, or
        a ``workload`` to run the profiling emulation with).
    workload:
        A :class:`repro.experiments.workloads.Workload`; prepared here if
        its populations are not fixed yet.
    profile:
        Pre-aggregated :class:`repro.profiling.aggregate.ProfileData`; when
        omitted for PROFILE, a profiling emulation runs under the TOP
        partition (the paper's initial experiment).
    tables, config, runner_config, seed, cache:
        Routing tables (built on demand), a
        :class:`repro.core.mapper.MapperConfig`, the
        :class:`repro.experiments.runner.RunnerConfig` for the profiling
        emulation, the seed for preparation/profiling, and an optional
        artifact cache.

    Returns
    -------
    repro.core.mapper.MappingResult
    """
    from repro.core.mapper import Mapper
    from repro.experiments.runner import (
        PROFILE_SEED_OFFSET,
        RunnerConfig,
        run_emulation,
    )
    from repro.routing.spf import build_routing
    from repro.runtime.cache import resolve_cache

    cache = resolve_cache(cache)
    approach = str(approach).strip().lower()
    if approach not in ("top", "place", "profile"):
        raise ValueError(
            f"unknown approach {approach!r}; choose from top, place, "
            "profile"
        )
    if tables is None:
        tables = build_routing(net, cache=cache)
    mapper = Mapper(net, n_parts=k, tables=tables, config=config)
    if workload is not None:
        workload.prepare(net, np.random.default_rng(seed))
    if approach == "top":
        return mapper.map_top()
    if approach == "place":
        if workload is None:
            raise ValueError("PLACE needs a workload (traffic predictions)")
        return mapper.map_place(workload.background, workload.apps)
    if profile is None:
        if workload is None:
            raise ValueError(
                "PROFILE needs profile data or a workload to profile"
            )
        run = run_emulation(
            net, tables, workload, seed + PROFILE_SEED_OFFSET,
            config=runner_config or RunnerConfig(), collect_netflow=True,
            cache=cache,
        )
        profile = run.profile
    return mapper.map_profile(
        profile, initial_parts=mapper.map_top().parts
    )


@dataclass
class EmulationResult:
    """Everything one :func:`emulate` call produced.

    Attributes
    ----------
    trace:
        The :class:`~repro.engine.trace.EventTrace` (bit-identical across
        engines for the same seed and workload).
    stats:
        The kernel's :class:`~repro.engine.perf.KernelStats` operation
        counters.
    engine:
        ``"sequential"`` or ``"parallel"``.
    wall_s:
        Wall-clock seconds spent inside the kernel run.
    link_packets, link_bytes, link_busy_s, link_max_backlog_s:
        Per-link accounting arrays (indexed by link id).
    transfer_log:
        ``(time, src, dst, nbytes, flow, tag)`` tuples, submission order.
    lp_events:
        Train events dispatched per logical process (parallel engine
        only; ``None`` for sequential runs).
    migration_log:
        The online rebalancer's
        :class:`~repro.rebalance.log.MigrationLog` (``None`` unless the
        run was started with ``rebalance=``).
    link_change_log:
        ``(time, n_changes, n_touched)`` per mid-run change batch applied
        (empty unless the run was started with ``link_changes=``).
    final_tables:
        The routing tables as repaired by the last mid-run change
        (``None`` unless ``link_changes=`` was given; the tables passed
        in are never mutated — the kernel runs on a private copy).
    """

    trace: "object"
    stats: "object"
    engine: str
    wall_s: float
    link_packets: np.ndarray
    link_bytes: np.ndarray
    link_busy_s: np.ndarray
    link_max_backlog_s: np.ndarray
    transfer_log: list = field(default_factory=list)
    lp_events: np.ndarray | None = None
    migration_log: "object | None" = None
    link_change_log: list = field(default_factory=list)
    final_tables: "object | None" = None

    @property
    def events_per_second(self) -> float:
        """Trace events executed per wall-clock second."""
        if self.wall_s <= 0:
            return float("inf")
        return self.trace.n_events / self.wall_s

    @property
    def lp_imbalance(self) -> float:
        """Max/mean ratio of per-LP event counts (1.0 when sequential)."""
        if self.lp_events is None or not len(self.lp_events):
            return 1.0
        mean = float(self.lp_events.mean())
        if mean == 0:
            return 1.0
        return float(self.lp_events.max()) / mean


def emulate(
    net,
    tables=None,
    workload=None,
    *,
    until: float | None = None,
    engine: str = "sequential",
    k: int | None = None,
    parts=None,
    train_packets: int = 32,
    seed: int = 0,
    telemetry=None,
    cache=None,
    rebalance=None,
    link_changes=None,
    processes=None,
) -> EmulationResult:
    """Run one emulation and return its artifacts — the engine-level
    sibling of :func:`run_experiment` (which scores mappings; this just
    emulates).

    Parameters
    ----------
    net:
        A built-in topology name (:data:`TOPOLOGIES`), a DML path, or a
        prebuilt :class:`~repro.topology.network.Network`.
    tables:
        Routing tables; built on demand (cache-aware) when omitted.
    workload:
        Anything with ``install(kernel, rng)`` and a ``duration``
        attribute — e.g. a :class:`repro.experiments.workloads.Workload`
        (its ``prepare`` hook runs first when present).
    until:
        Virtual horizon (defaults to ``workload.duration``).
    engine:
        ``"sequential"`` (the batched kernel) or ``"parallel"`` (the same
        kernel seen through a node partition, one logical process per
        partition: per-LP event counts and live migration on top).
        Traces and link accounting are bit-identical either way.
    k, parts:
        The parallel engine's partition: an explicit integer per-node
        partition array, or an engine-node count ``k`` from which a TOP
        partition is derived via :func:`build_mapping` — one or the
        other, never both.  Ignored when sequential.
    train_packets, seed:
        Fidelity knob and the workload RNG seed.
    telemetry, cache:
        Optional :class:`repro.obs.Telemetry` and artifact-cache spec
        (used for routing tables and the derived partition).
    rebalance:
        Attach an online rebalancer (parallel engine only): a
        :class:`repro.rebalance.RebalanceConfig` naming its policy
        (``static`` / ``hysteresis`` / ``kurve``).  The run's
        :class:`~repro.rebalance.log.MigrationLog` lands on
        ``result.migration_log``.
    link_changes:
        Mid-run link-cost schedule: ``(time, SetLinkCost-or-list)``
        pairs, applied at window barriers through the incremental
        routing engine (see :func:`repro.engine.changes.install_link_changes`).
        The batches applied land on ``result.link_change_log`` and the
        repaired tables on ``result.final_tables``.
    processes:
        No effect; warns when passed (nothing forks any more).  Kept only
        for the benchmark's scale-emulate workload, which still passes
        it; ROADMAP item 1(e)'s benchmark change deletes the keyword
        together with that call.

    Returns
    -------
    EmulationResult
    """
    from repro.engine.kernel import run_kernel
    from repro.routing.spf import build_routing
    from repro.runtime.cache import resolve_cache
    from repro.topology.network import Network

    if workload is None:
        raise TypeError("emulate() needs a workload (install + duration)")
    if engine not in ("sequential", "parallel"):
        raise ValueError(
            f"unknown engine {engine!r}; choose 'sequential' or 'parallel'"
        )
    if k is not None and parts is not None:
        raise ValueError(
            "pass parts= or k=, not both: k derives a partition, parts "
            "is one"
        )
    if processes is not None:
        warnings.warn(
            "emulate(processes=) has no effect: the parallel engine runs "
            "in-process; drop the keyword",
            DeprecationWarning, stacklevel=2,
        )
    cache = resolve_cache(cache)
    if not isinstance(net, Network):
        net = load_topology(net)
    if tables is None:
        tables = build_routing(net, cache=cache)
    if engine == "parallel" and parts is None:
        if k is None:
            raise ValueError(
                "engine='parallel' needs parts= (a per-node partition "
                "array) or k= (an engine-node count to derive a TOP "
                "partition from)"
            )
        parts = build_mapping(
            net, k, "top", tables=tables, cache=cache
        ).parts
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare(net, np.random.default_rng(seed))
    start = time.perf_counter()
    trace, kernel = run_kernel(
        net, tables, workload, seed=seed, until=until,
        train_packets=train_packets, telemetry=telemetry, engine=engine,
        parts=parts, rebalance=rebalance,
        link_changes=link_changes, cache=cache,
    )
    wall = time.perf_counter() - start
    rebalancer = getattr(kernel, "rebalancer", None)
    return EmulationResult(
        trace=trace,
        stats=kernel.stats,
        engine=engine,
        wall_s=wall,
        link_packets=kernel.link_packets,
        link_bytes=kernel.link_bytes,
        link_busy_s=kernel.link_busy_s,
        link_max_backlog_s=kernel.link_max_backlog_s,
        transfer_log=list(kernel.transfer_log),
        lp_events=getattr(kernel, "lp_events", None),
        migration_log=rebalancer.log if rebalancer is not None else None,
        link_change_log=list(getattr(kernel, "link_change_log", ())),
        final_tables=kernel.tables if link_changes is not None else None,
    )


def apply_changes(
    net,
    tables,
    changes,
    *,
    cache=None,
    telemetry=None,
):
    """Apply topology changes and incrementally repair routing tables.

    The facade over :func:`repro.routing.delta.update_routing` for
    one-shot use: ``net`` is mutated in place (link costs, up/down state,
    added links), ``tables`` is **not** — the repaired tables are a
    private copy, bit-identical to a from-scratch
    :func:`~repro.routing.spf.build_routing` on the mutated network.

    Parameters
    ----------
    net, tables:
        The network to mutate and the routing tables built on it.
    changes:
        An iterable of :class:`repro.routing.delta.SetLinkCost` /
        :class:`~repro.routing.delta.LinkUp` /
        :class:`~repro.routing.delta.LinkDown` /
        :class:`~repro.routing.delta.AddLink`.
    cache, telemetry:
        Optional artifact-cache spec and telemetry sink.

    Returns
    -------
    (RoutingTables, ndarray)
        The repaired tables and the (sorted) recomputed source ids.
        For repeated change streams keep a
        :class:`repro.routing.delta.RoutingState` and call
        :func:`~repro.routing.delta.update_routing` directly instead of
        paying the wrap cost per call.
    """
    from repro.routing.delta import routing_state, update_routing
    from repro.runtime.cache import resolve_cache

    if tables.net is not net:
        raise ValueError("routing tables were built for another network")
    state = routing_state(tables)
    touched = update_routing(
        state, changes, cache=resolve_cache(cache), telemetry=telemetry,
    )
    return state.tables, touched


def _identity(net):
    """Picklable network "factory" for prebuilt networks."""
    return net


def _as_setup(topology, *, app, intensity, duration, k, workload_kwargs):
    """Normalize ``topology`` into an ExperimentSetup."""
    from repro.experiments.setups import (
        ExperimentSetup,
        brite_setup,
        campus_setup,
        large_brite_setup,
        teragrid_setup,
    )
    from repro.topology.network import Network

    if isinstance(topology, ExperimentSetup):
        # A copy: the caller's setup keeps its own engine-node count.
        return topology if k is None else replace(topology, n_engine_nodes=k)
    kwargs = dict(workload_kwargs=dict(workload_kwargs or {}))
    if intensity is not None:
        kwargs["intensity"] = intensity
    if duration is not None:
        kwargs.setdefault("workload_kwargs", {})["duration"] = duration
    if isinstance(topology, Network):
        if k is None:
            raise ValueError("k is required with a prebuilt Network")
        net = topology
        # partial keeps the setup picklable for the parallel runtime (the
        # network ships by value to the workers).
        setup = ExperimentSetup(
            name=net.name, network_factory=partial(_identity, net),
            n_engine_nodes=k, app_name=app, **kwargs,
        )
        setup._network = net
        return setup
    name = str(topology).strip().lower()
    factories = {
        "campus": campus_setup,
        "teragrid": teragrid_setup,
        "brite": brite_setup,
        "brite-large": large_brite_setup,
    }
    if name not in factories:
        raise ValueError(
            f"unknown topology {topology!r}; choose from "
            f"{', '.join(TOPOLOGIES)} or pass a Network / ExperimentSetup"
        )
    setup = factories[name](app, **kwargs)
    if k is not None:
        setup.n_engine_nodes = k
    return setup


def run_experiment(
    topology,
    *,
    app: str = "scalapack",
    k: int | None = None,
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    seed: int = 1,
    intensity: str | None = None,
    duration: float | None = None,
    workload_kwargs=None,
    config=None,
    engine: str | None = None,
    cache=None,
    telemetry=None,
):
    """Run the full profile → map → evaluate pipeline once.

    Parameters
    ----------
    topology:
        A built-in name (:data:`TOPOLOGIES`), a prebuilt
        :class:`~repro.topology.network.Network` (requires ``k``), or an
        :class:`~repro.experiments.setups.ExperimentSetup`.
    app, intensity, duration, workload_kwargs:
        Workload selection (ignored when an ExperimentSetup is given,
        except that they default from it).
    k:
        Engine-node count override (defaults to the setup's Table 1 value).
    approaches, seed, config:
        Forwarded to :func:`repro.experiments.runner.evaluate_setup`.
    engine:
        Execution engine for the evaluation emulation — ``"sequential"``
        or ``"parallel"`` (bit-identical traces; see :func:`emulate`).
        Overrides ``config.engine`` when given.
    cache:
        Artifact cache spec — ``True``/``"default"`` for the default disk
        cache, a path, an :class:`~repro.runtime.cache.ArtifactCache`, or
        ``None`` for no caching.
    telemetry:
        Optional :class:`repro.obs.Telemetry` collecting the run's phase
        breakdown, counters and load timelines.

    Returns
    -------
    dict[str, repro.experiments.runner.ApproachEvaluation]
    """
    from repro.experiments.runner import evaluate_setup
    from repro.runtime.cache import resolve_cache

    setup = _as_setup(
        topology, app=app, intensity=intensity, duration=duration, k=k,
        workload_kwargs=workload_kwargs,
    )
    config = _with_engine(config, engine)
    return evaluate_setup(
        setup, approaches=tuple(approaches), seed=seed, config=config,
        cache=resolve_cache(cache), telemetry=telemetry,
    )


def _with_engine(config, engine):
    """Overlay an ``engine=`` override onto a RunnerConfig (or build one)."""
    if engine is None:
        return config
    from repro.experiments.runner import RunnerConfig

    return replace(config or RunnerConfig(), engine=engine)


def sweep(
    topology,
    *,
    seeds=(1, 2, 3, 4),
    app: str = "scalapack",
    k: int | None = None,
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    intensity: str | None = None,
    duration: float | None = None,
    workload_kwargs=None,
    config=None,
    engine: str | None = None,
    workers: int | None = None,
    runtime=None,
    cache=None,
    progress=None,
    telemetry=None,
):
    """Sweep :func:`run_experiment` across seeds.

    By default the (seed × approach) grid fans out over worker processes
    (auto-sized to the machine) through :func:`repro.runtime.executor.run_grid`
    with deterministic per-cell seeding — results are bit-for-bit identical
    to the serial path.  ``workers=0`` forces in-process serial execution.

    Parameters
    ----------
    engine:
        Execution engine for the evaluation emulations (see
        :func:`run_experiment`); overrides ``config.engine``.
    workers:
        Worker process count (``None`` = auto, ``0`` = serial in-process).
        Ignored when an explicit ``runtime``
        (:class:`~repro.runtime.executor.RuntimeConfig`) is given.
    cache:
        Artifact cache spec (see :func:`run_experiment`); a repeated sweep
        with a disk cache reuses routing tables and emulation runs instead
        of re-simulating.
    progress:
        ``progress(cell_result, done, total)`` callback.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  Collects phase spans,
        executor/cache counters, per-cell records (worker processes
        included) and per-engine-node load timelines; export the snapshot
        with :func:`repro.obs.write_json` or render it with
        :func:`repro.obs.render_report` (``massf stats``).

    Returns
    -------
    repro.experiments.sweep.SweepResult
    """
    from repro.experiments.sweep import sweep_setup
    from repro.runtime.cache import resolve_cache
    from repro.runtime.executor import RuntimeConfig

    setup = _as_setup(
        topology, app=app, intensity=intensity, duration=duration, k=k,
        workload_kwargs=workload_kwargs,
    )
    if runtime is None:
        runtime = RuntimeConfig(workers=workers)
    config = _with_engine(config, engine)
    return sweep_setup(
        setup, seeds=tuple(seeds), approaches=tuple(approaches),
        config=config, runtime=runtime, cache=resolve_cache(cache),
        progress=progress, telemetry=telemetry,
    )
