"""Run a set of benchmark runs and collect them into one file.

    python3 bench/suite.py --runs 10 --out bench/out/A.json
    python3 bench/suite.py --workloads scale-map --runs 3 --trace 1

Each run is a fresh ``run.py`` process (as the driver starts it), with
seeds ``--seed``, ``--seed + 1``, ...  The set file holds the environment
stamp, every run's result line and, per (workload, metric), the sample
count, median and quartiles over the runs -- the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import load_contract, summarize  # noqa: E402
from run import DEFAULT_SEED, WORKLOADS  # noqa: E402


def spread(row: dict) -> float:
    """Interquartile distance as a share of the median."""
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def summarize_runs(runs: list[dict]) -> dict:
    """``{workload: {metric: {n, median, q1, q3, unit}}}`` over the runs."""
    table: dict = {}
    for run in runs:
        per = table.setdefault(run["workload"], {})
        for name, metric in run["result"]["metrics"].items():
            per.setdefault(name, {"unit": metric["unit"], "values": []})
            per[name]["values"].append(metric["value"])
    return {
        workload: {
            name: {**summarize(entry["values"]), "unit": entry["unit"],
                   "values": entry["values"]}
            for name, entry in per.items()
        }
        for workload, per in table.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset (default: all four)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the first run; run i uses seed + i")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--out", default=str(BENCH_DIR / "out" / "set.json"))
    args = parser.parse_args(argv)

    names = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workloads {unknown}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in names:
        for i in range(args.runs):
            seed = args.seed + i
            doc_path = out.parent / f"result-{workload}-seed{seed}.json"
            cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--trace", str(args.trace), "--size", args.size,
                   "--out", str(doc_path)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            with open(doc_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            result = doc["result"]
            runs.append({"workload": workload, "seed": seed,
                         "process_wall_s": wall, "result": result,
                         "named": doc["named"], "passes": doc["passes"],
                         "environment": doc["environment"]})
            print(f"{workload} seed {seed}: {wall:.1f}s "
                  f"correct={result['correct']} failed={result['failed']}",
                  flush=True)

    summary = summarize_runs(runs)
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    for workload, per in summary.items():
        for name, row in per.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = ("  WIDE" if spread(row) > bound else
                        "  (above a third of the bound)"
                        if spread(row) > bound / 3 else "")
            if args.trace == 0 or row["median"]:
                print(f"{workload:<15s} {name:<38s} median {row['median']:<12.6g}"
                      f" spread {spread(row):6.3f}{flag}")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "runs": runs, "summary": summary},
                  handle, indent=1)
    print(f"set written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
