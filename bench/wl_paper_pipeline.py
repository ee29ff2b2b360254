"""``paper-pipeline``: what the paper's user does, on three Table-1 cells.

One pass is ``repro.run_experiment`` (profile -> map -> evaluate, TOP +
PLACE + PROFILE, sequential engine, no cache) on Campus/ScaLapack,
TeraGrid/GridNPB and Brite/ScaLapack under moderate HTTP background.  It
carries the paper's quality numbers: PROFILE's load imbalance and
modelled application emulation time relative to TOP's.

A traced pass cannot see inside ``run_experiment``, so it composes the
same stages itself from public functions -- one span each -- and the
run fails unless its imbalances equal the untraced ones exactly.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

NAME = "paper-pipeline"
MIN_PASSES = 3

APPROACHES = ("top", "place", "profile")

#: (cell, application, workload duration in virtual seconds).
SIZES = {
    "full": dict(cells=(("campus", "scalapack", 2.5),
                        ("teragrid", "gridnpb", 2.0),
                        ("brite", "scalapack", 1.5)),
                 check_ordering=True),
    # ScaLapack on Brite and GridNPB on TeraGrid submit their whole
    # schedule whatever the duration, so the toy cells drop those apps.
    "toy": dict(cells=(("campus", "scalapack", 0.5),
                       ("teragrid", "none", 0.5),
                       ("brite", "none", 0.5)),
                check_ordering=False),
}


def setup(seed: int, size: dict, rec) -> dict:
    from repro.experiments.setups import (
        brite_setup,
        campus_setup,
        teragrid_setup,
    )

    factories = {
        "campus": campus_setup,
        "teragrid": teragrid_setup,
        "brite": brite_setup,  # Table 1's graph (generator seed 0)
    }
    cells = []
    for name, app, duration in size["cells"]:
        cell = factories[name](
            app, intensity="moderate",
            workload_kwargs=dict(duration=float(duration)))
        cell.network  # build now: topology generation is set-up
        cells.append(cell)
    return {"seed": seed, "size": size, "cells": cells}


def _quality(outcomes: list[dict]) -> dict:
    """PROFILE over TOP, means across the cells (the paper's headline)."""
    def mean(approach, field):
        return float(np.mean([o[approach][field] for o in outcomes]))

    return {
        "imbalance_profile_over_top":
            mean("profile", "imbalance") / mean("top", "imbalance"),
        "emutime_profile_over_top":
            mean("profile", "emutime") / mean("top", "emutime"),
    }


def _record(inputs, cell_s, outcomes, layer=None) -> dict:
    quality = _quality(outcomes)
    failures = []
    if (inputs["size"]["check_ordering"]
            and not quality["imbalance_profile_over_top"] < 1.0):
        failures.append(
            "paper-pipeline: PROFILE did not beat TOP on load imbalance "
            f"(ratio {quality['imbalance_profile_over_top']:.4f})")
    return {
        "values": {
            "pass_s": sum(cell_s), "part1_s": cell_s[0],
            "part2_s": cell_s[1], "part3_s": cell_s[2],
        },
        "ops": len(cell_s) + 1,
        "failures": failures,
        "imbalances": [
            o[a]["imbalance"] for o in outcomes for a in APPROACHES],
        "named": quality,
        "layer": {
            **{f"experiments.{k}": v for k, v in quality.items()},
            **(layer or {}),
        },
    }


def run_pass(inputs: dict, rec, telemetry=None) -> dict:
    import repro

    cell_s, outcomes = [], []
    for cell in inputs["cells"]:
        start = time.perf_counter()
        results = repro.run_experiment(
            cell, approaches=APPROACHES, seed=inputs["seed"], cache=None,
            engine="sequential", telemetry=telemetry)
        cell_s.append(time.perf_counter() - start)
        outcomes.append({
            name: {"imbalance": ev.outcome.load_imbalance,
                   "emutime": ev.outcome.app_emulation_time}
            for name, ev in results.items()
        })
    return _record(inputs, cell_s, outcomes)


def run_pass_traced(inputs: dict, rec) -> dict:
    """The stages of ``evaluate_workload``, one span each."""
    import repro.engine.parallel as parallel
    import repro.routing.spf as spf
    from repro.core.mapper import Mapper
    from repro.experiments.runner import (
        PROFILE_SEED_OFFSET,
        RunnerConfig,
        run_emulation,
    )
    from repro.routing.perf import RoutingStats

    seed = inputs["seed"]
    config = RunnerConfig(engine="sequential")
    cell_s, outcomes = [], []
    remote_trains, lookaheads = 0, []
    for cell in inputs["cells"]:
        start = time.perf_counter()
        with rec.span(f"experiments.{cell.name}"):
            net, k = cell.network, cell.n_engine_nodes
            stats = RoutingStats()
            tables = spf.build_routing(net, stats=stats)
            rec.count("routing.dijkstra_calls", stats.dijkstra_calls)
            rec.count("routing.nexthop_rounds", stats.nexthop_rounds)
            workload = cell.build_workload(seed)
            with rec.span("traffic.prepare"):
                workload.prepare(net, np.random.default_rng(seed))
            mapper = Mapper(net, n_parts=k, tables=tables,
                            config=config.mapper)
            compute = workload.compute_profile()
            mappings = {
                "top": mapper.map_top(),
                "place": mapper.map_place(workload.background, workload.apps),
            }
            with rec.span("profiling.profile_run"):
                profile_run = run_emulation(
                    net, tables, workload, seed + PROFILE_SEED_OFFSET,
                    config=config, collect_netflow=True)
            # PROFILE ships whichever of segments / no segments scores
            # better on the profiling run's own trace.
            candidates = []
            for use_segments in (config.mapper.use_segments, False):
                candidate = Mapper(
                    net, n_parts=k, tables=tables,
                    config=replace(config.mapper, use_segments=use_segments),
                ).map_profile(profile_run.profile,
                              initial_parts=mappings["top"].parts)
                score = parallel.evaluate_mapping(
                    profile_run.trace, net, candidate.parts,
                    cost=config.cost, compute=compute).wall_app
                candidates.append((score, candidate))
                if not config.mapper.use_segments:
                    break
            candidates.sort(key=lambda item: item[0])
            mappings["profile"] = candidates[0][1]
            with rec.span("engine.seq_run"):
                eval_run = run_emulation(
                    net, tables, workload, seed, config=config)
            outcome = {}
            for name in APPROACHES:
                metrics = parallel.evaluate_mapping(
                    eval_run.trace, net, mappings[name].parts,
                    cost=config.cost, compute=compute)
                parallel.evaluate_mapping(  # the isolated-network replay
                    eval_run.trace, net, mappings[name].parts,
                    cost=config.cost, compute=None)
                outcome[name] = {"imbalance": metrics.load_imbalance,
                                 "emutime": metrics.wall_app}
                remote_trains += metrics.remote_trains
                lookaheads.append(metrics.lookahead)
            outcomes.append(outcome)
        cell_s.append(time.perf_counter() - start)
    return _record(inputs, cell_s, outcomes, layer={
        "engine.model_remote_trains": remote_trains,
        "engine.model_lookahead_s": float(np.mean(lookaheads)),
    })


def finish(inputs: dict, passes) -> list[str]:
    """Every pass -- composed or not -- must give the same imbalances."""
    first = passes[0]["imbalances"]
    if any(p["imbalances"] != first for p in passes[1:]):
        return ["paper-pipeline: load imbalances differ between passes "
                "(traced stages vs run_experiment, or run to run)"]
    return []


def named(metrics: dict, passes) -> dict:
    return {"pipeline_s": metrics["pass_s"]}


def trace_extras(inputs: dict, rec, base, passes) -> dict:
    """Telemetry-on and NetFlow-on cost, each against the same run off."""
    import statistics

    import repro.routing.spf as spf
    from repro.experiments.runner import (
        PROFILE_SEED_OFFSET,
        RunnerConfig,
        run_emulation,
    )
    from repro.obs import Telemetry
    from spans import Recorder

    plain = statistics.median(p["values"]["pass_s"] for p in base)
    observed = run_pass(inputs, Recorder(False), telemetry=Telemetry())
    config = RunnerConfig(engine="sequential")
    seed = inputs["seed"]
    with_s = without_s = 0.0
    for cell in inputs["cells"]:
        net = cell.network
        tables = spf.build_routing(net)
        workload = cell.build_workload(seed)
        workload.prepare(net, np.random.default_rng(seed))
        for collect in (True, False, True, False):  # alternate: no order bias
            start = time.perf_counter()
            run_emulation(net, tables, workload, seed + PROFILE_SEED_OFFSET,
                          config=config, collect_netflow=collect)
            elapsed = time.perf_counter() - start
            if collect:
                with_s += elapsed
            else:
                without_s += elapsed
    return {
        "obs.telemetry_overhead_frac":
            observed["values"]["pass_s"] / plain - 1.0,
        "profiling.netflow_overhead_frac": with_s / without_s - 1.0,
    }
