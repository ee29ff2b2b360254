"""Compare two sets of benchmark runs of ``suite.py``.

    python3 bench/compare.py bench/out/A.json bench/out/B.json

``A`` is the baseline (the parent commit, or the first of two sets of the
same commit), ``B`` the candidate.  For every end-to-end metric x
workload it prints one of

- ``ok``          B's median is not worse than A's by more than the
                  metric's bound in ``BENCHMARK.json``;
- ``worse``       it is, and the quartile ranges of the two sets do not
                  overlap, so run-to-run spread does not explain it;
- ``unresolved``  the spread of either set is wider than the bound (or
                  explains the gap), so the sets cannot tell -- unless
                  every run of B reads better than every run of A.

The issue-named quality ratios repeat exactly for a given seed, so they
are compared seed by seed and must agree to 1e-9.  Any failed operation
in either set is ``worse``.  Exit status 1 when anything is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import load_contract  # noqa: E402
from suite import spread  # noqa: E402

#: Quality numbers that depend on the inputs only, never on the clock.
EXACT = ("imbalance_profile_over_top", "emutime_profile_over_top",
         "rebalance_auc_over_static")


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[str, float]:
    """Classify one metric x workload; returns (verdict, worsening)."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / abs(a["median"])
    wide = max(spread(a), spread(b)) > bound
    if better == "lower":
        disjoint = b["q1"] > a["q3"]
        all_better = max(b["values"]) < min(a["values"])
    else:
        disjoint = b["q3"] < a["q1"]
        all_better = min(b["values"]) > max(a["values"])
    if worsening > bound:
        return ("worse" if disjoint else "unresolved"), worsening
    if wide and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def compare(doc_a: dict, doc_b: dict, contract: dict) -> list[tuple]:
    rows = []
    for spec in contract["end_to_end"]:
        for workload in doc_a["summary"]:
            a = doc_a["summary"][workload].get(spec["name"])
            b = doc_b["summary"].get(workload, {}).get(spec["name"])
            if a is None or b is None:
                continue
            result, worsening = verdict(a, b, spec["bound"], spec["better"])
            rows.append((spec["name"], workload, result, worsening,
                         a["median"], b["median"], spec["unit"]))
    for name in EXACT:
        by_seed = {
            (r["workload"], r["seed"]): r["named"][name]
            for r in doc_a["runs"] if name in r["named"]
        }
        for r in doc_b["runs"]:
            key = (r["workload"], r["seed"])
            if name in r["named"] and key in by_seed:
                same = abs(r["named"][name] - by_seed[key]) <= 1e-9
                rows.append((name, f"{key[0]}@seed{key[1]}",
                             "ok" if same else "worse", 0.0,
                             by_seed[key], r["named"][name], "ratio"))
    for label, doc in (("A", doc_a), ("B", doc_b)):
        failed = sum(r["result"]["failed"] for r in doc["runs"])
        attempted = sum(r["result"]["attempted"] for r in doc["runs"])
        rows.append(("failed_frac", f"set {label}",
                     "worse" if failed else "ok", 0.0,
                     failed / attempted, failed / attempted, "ratio"))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0] + "\nusage: compare.py A.json B.json",
              file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    rows = compare(docs[0], docs[1], load_contract())
    for name, where, result, worsening, a, b, unit in rows:
        print(f"{result:<10s} {name:<28s} {where:<24s} "
              f"A {a:<12.6g} B {b:<12.6g} {unit:<6s} {worsening:+.1%}")
    worse = sum(1 for row in rows if row[2] == "worse")
    unresolved = sum(1 for row in rows if row[2] == "unresolved")
    print(f"{len(rows)} comparisons: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
