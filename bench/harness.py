"""One run of one workload: set up, warm up, time passes, check, report.

The contract with ``BENCHMARK.json`` lives here: an untraced run prints
every ``end_to_end`` metric, a traced run every ``per_layer`` metric, and
the last line of standard output is the one JSON object the driver
reads.  A workload is a module exposing

- ``SIZES``: ``{"full": {...}, "toy": {...}}`` input sizes, ``MIN_PASSES``,
- ``setup(seed, size, rec)`` -> inputs (everything a pass only consumes),
- ``run_pass(inputs, rec)`` -> pass record: ``values`` (one number per
  timed end-to-end metric), ``ops``, ``failures``, ``named``, ``layer``,
- ``finish(inputs, passes)`` -> failures found once, outside the timing,
- optionally ``run_pass_traced`` and ``trace_extras``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up is repeated and its median reported, so that one slow import
#: or page-cache miss does not pass for a set-up regression: three times,
#: and on while it is cheap (a 0.25 s set-up needs more than three reads).
SETUP_REPS_MIN, SETUP_REPS_MAX, SETUP_BUDGET_S = 3, 9, 2.5


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------------ #
# Small statistics
# ------------------------------------------------------------------ #
def summarize(values) -> dict:
    """Sample count, median and quartiles (the result-file row)."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "n": len(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
    }


# ------------------------------------------------------------------ #
# Environment, memory, leaks
# ------------------------------------------------------------------ #
def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def peak_rss_mb() -> float:
    """High-water resident set: this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def leaked_shm_segments() -> int:
    """``massf-<pid>-*`` segments this process created and left behind."""
    try:
        names = os.listdir("/dev/shm")
    except OSError:
        return 0
    prefix = f"massf-{os.getpid()}-"
    return sum(1 for name in names if name.startswith(prefix))


def orphan_children() -> int:
    """Child processes still alive (reaps the ones that already ended)."""
    import multiprocessing

    alive = len(multiprocessing.active_children())
    try:
        with open(f"/proc/self/task/{os.getpid()}/children") as handle:
            alive = max(alive, len(handle.read().split()))
    except OSError:
        pass
    return alive


def fresh_tmp(label: str) -> Path:
    """An empty scratch directory inside the checkout."""
    path = OUT_DIR / f"tmp-{os.getpid()}-{label}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cache_round_trip(tables) -> dict:
    """Routing tables through the on-disk artifact cache and back."""
    from repro.runtime.cache import ArtifactCache

    tmp = fresh_tmp("cache-probe")
    try:
        start = time.perf_counter()
        ArtifactCache(tmp, memory=False).store("routing", "probe", tables)
        put = time.perf_counter() - start
        start = time.perf_counter()
        found, _ = ArtifactCache(tmp, memory=False).lookup("routing", "probe")
        get = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not found:
        raise RuntimeError("the artifact cache lost the routing tables")
    return {"runtime.cache_put_s": put, "runtime.cache_get_s": get}


# ------------------------------------------------------------------ #
# The run
# ------------------------------------------------------------------ #
def _timed_passes(run_pass, inputs, rec, *, seconds, min_passes, label):
    """Closed loop: passes back to back until ``seconds`` are used up."""
    passes = []
    started = time.perf_counter()
    while True:
        rec.pass_id = f"{label}{len(passes)}"
        gc.collect()
        start = time.perf_counter()
        with rec.span("bench.pass"):
            record = run_pass(inputs, rec)
        record["wall_s"] = time.perf_counter() - start
        passes.append(record)
        elapsed = time.perf_counter() - started
        mean = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + 0.5 * mean > seconds:
            return passes


def _column(passes, name):
    return [p["values"][name] for p in passes]


def _ratios(values: dict) -> dict:
    """Per-layer ratios of two counters of the same pass."""
    out = {}
    vector = values.get("engine.seq_vector_events", 0.0)
    scalar = values.get("engine.seq_python_loop_events", 0.0)
    if vector + scalar:
        out["engine.seq_vector_event_frac"] = vector / (vector + scalar)
    affected = values.get("routing.delta_affected_sources", 0.0)
    if affected:
        out["routing.delta_touched_over_affected"] = (
            values["routing.delta_touched_sources"] / affected)
    return out


def _layer_values(rec, passes, label) -> dict[str, list[float]]:
    """Per-layer metric name -> one value per traced pass."""
    out: dict[str, list[float]] = {}
    for i, record in enumerate(passes):
        pass_id = f"{label}{i}"
        values = {f"{k}_s": v for k, v in rec.inclusive(pass_id).items()}
        values.update(rec.counters.get(pass_id, {}))
        values.update(record.get("layer", {}))
        values.update(_ratios(values))
        for name, value in values.items():
            out.setdefault(name, []).append(float(value))
    return out


def run(workload, args) -> dict:
    """Execute one run; returns the full result document."""
    from spans import Recorder, patched

    contract = load_contract()
    e2e_specs = {m["name"]: m for m in contract["end_to_end"]}
    layer_specs = {m["name"]: m for m in contract["per_layer"]}
    traced = bool(args.trace)
    rec = Recorder(enabled=traced)
    env = environment(args)
    sizes = workload.SIZES[args.size]
    min_passes = workload.MIN_PASSES if args.size == "full" else 1

    # Set-up: warm-up pass on toy inputs (imports, first-call costs),
    # then the real inputs.  Patches are live so a traced run sees it.
    setup_times: list[float] = []
    with patched(rec) if traced else contextlib.nullcontext():
        while True:
            inputs = None  # drop the previous repetition's before building
            gc.collect()
            start = time.perf_counter()
            rec.pass_id = "warmup"
            workload.run_pass(
                workload.setup(args.seed, workload.SIZES["toy"], rec), rec)
            rec.pass_id = "setup"
            inputs = workload.setup(args.seed, sizes, rec)
            setup_times.append(time.perf_counter() - start)
            reps = len(setup_times)
            if traced or reps >= SETUP_REPS_MAX or (
                    reps >= SETUP_REPS_MIN
                    and sum(setup_times) >= SETUP_BUDGET_S):
                break

    failures: list[str] = []
    if traced:
        # A short untraced baseline first: the gap to the traced median
        # is the tracing overhead that qualifies every per-layer number.
        base = _timed_passes(
            workload.run_pass, inputs, Recorder(False),
            seconds=0.25 * args.seconds, min_passes=min(2, min_passes),
            label="base",
        )
        run_traced = getattr(workload, "run_pass_traced", workload.run_pass)
        with patched(rec):
            passes = _timed_passes(
                run_traced, inputs, rec, seconds=0.6 * args.seconds,
                min_passes=min(2, min_passes), label="pass",
            )
        rec.pass_id = "extras"
        extras = (
            workload.trace_extras(inputs, rec, base, passes)
            if hasattr(workload, "trace_extras") else {}
        )
        all_passes = base + passes
    else:
        base, extras = [], {}
        passes = _timed_passes(
            workload.run_pass, inputs, rec, seconds=args.seconds,
            min_passes=min_passes, label="pass",
        )
        all_passes = passes

    failures += [f for p in all_passes for f in p["failures"]]
    failures += workload.finish(inputs, all_passes)
    shm, orphans = leaked_shm_segments(), orphan_children()
    if shm:
        failures.append(f"{shm} /dev/shm segments leaked")
    if orphans:
        failures.append(f"{orphans} child processes outlived the workload")
    # One attempted operation per pass-level operation, plus the leak
    # checks; every failed check or refused request counts as failed.
    attempted = sum(p["ops"] for p in all_passes) + 2

    doc = {
        "workload": workload.NAME,
        "environment": env,
        "sizes": sizes,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "named": passes[-1]["named"],
    }

    if not traced:
        # A timed metric is its fastest pass: this box's noise is
        # one-sided (slow phases of seconds to minutes), and over eight
        # seeds the best pass spread half as wide as the median pass.
        samples = {name: _column(passes, name) for name in e2e_specs
                   if name not in ("setup_s", "peak_rss_mb")}
        metrics = {name: min(values) for name, values in samples.items()}
        samples["setup_s"] = setup_times
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = peak_rss_mb()
        samples["peak_rss_mb"] = [metrics["peak_rss_mb"]]
        rows = {
            name: {**summarize(samples[name]), "value": metrics[name],
                   "unit": e2e_specs[name]["unit"]}
            for name in e2e_specs
        }
        doc["pass_values"] = [p["values"] for p in passes]
        # The issue-named view of the same samples (see README).
        doc["named"] = {**doc["named"], **workload.named(metrics, passes)}
        specs = e2e_specs
    else:
        per_pass = _layer_values(rec, passes, "pass")
        setup_vals = {f"{k}_s": v for k, v in rec.inclusive("setup").items()}
        setup_vals.update(rec.counters.get("setup", {}))
        traced_wall = statistics.median(_column(passes, "pass_s"))
        base_wall = statistics.median(_column(base, "pass_s"))
        extras = dict(extras)
        extras["bench.trace_overhead_frac"] = traced_wall / base_wall - 1.0
        extras["runtime.shm_leaked_segments"] = shm
        extras["runtime.orphan_children"] = orphans
        extras["bench.failed_frac"] = len(failures) / attempted
        metrics, rows = {}, {}
        for name in layer_specs:
            if name in extras:
                values = [extras[name]]
            elif name in per_pass:
                values = per_pass[name]
            else:
                # Consumed, not produced, by the passes: charged to set-up
                # (0 when the layer is not on this workload's path at all).
                values = [setup_vals.get(name, 0.0)]
            metrics[name] = statistics.median(values)
            rows[name] = {**summarize(values), "value": metrics[name],
                          "unit": layer_specs[name]["unit"]}
        doc["unexported"] = sorted(
            n for n in list(per_pass) + list(extras) if n not in layer_specs)
        doc["span_file"] = _write_spans(workload, rec, passes, args)
        specs = layer_specs

    doc["metrics"] = rows
    doc["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": specs[name]["unit"]}
            for name in specs
        },
    }
    return doc


def _write_spans(workload, rec, passes, args) -> str:
    """Dump the span log and the per-layer self-time table."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    table = {}
    for i, record in enumerate(passes):
        pass_id = f"pass{i}"
        selfs = rec.self_times(pass_id)
        wall = record["wall_s"]
        table[pass_id] = {
            "pass_wall_s": wall,
            "driver_self_sum_s": sum(selfs["driver"].values()),
            "driver_self_s": selfs["driver"],
            "other_threads_self_s": selfs["threads"],
        }
    path = OUT_DIR / f"spans-{workload.NAME}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"self_times": table, "spans": rec.spans}, handle)
    return str(path.relative_to(ROOT))


def print_report(doc: dict) -> None:
    """Every metric by name and unit, then the driver's JSON line."""
    env = doc["environment"]
    print(f"# workload {doc['workload']}  seed {env['seed']}  "
          f"size {env['size']}  trace {env['trace']}  "
          f"passes {doc['passes']}  cpus {env['cpu_count']}  "
          f"load {env['loadavg_1min_at_start']:.2f}  git {env['git_sha'][:10]}")
    for name, row in doc["metrics"].items():
        print(f"{name:<40s} {row['value']:>14.6g} {row['unit']:<6s} "
              f"n={row['n']:<4d} q1={row['q1']:.6g} q3={row['q3']:.6g}")
    for name, value in doc["named"].items():
        print(f"  = {name:<36s} {value:>14.6g}")
    for failure in doc["failures"]:
        print(f"FAILED {failure}")
    if doc.get("span_file"):
        print(f"# spans written to {doc['span_file']}")
    sys.stdout.flush()
    print(json.dumps(doc["result"]))
