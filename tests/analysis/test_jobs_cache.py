"""The two-tier result cache.

A fully warm re-check costs only hash+lookup work (every probe hits:
one per file plus one project-scope entry), and the warm path is at
least 5x faster than the cold path.
"""

import time
from pathlib import Path

from repro.analysis import run_check
from repro.runtime.cache import ArtifactCache


def _synth_project(root: Path, n: int = 24) -> Path:
    """A generated project: n modules, one unseeded-rng finding each."""
    pkg = root / "proj" / "src" / "repro"
    pkg.mkdir(parents=True)
    for i in range(n):
        lines = [f'"""Module {i}."""', "", "import random", ""]
        for j in range(6):
            lines += [f"def fn_{i}_{j}(x):", f"    return x + {j}", ""]
        lines += ["", "def jitter():", "    return random.random()", ""]
        (pkg / f"mod_{i}.py").write_text("\n".join(lines))
    return root / "proj"


def test_warm_counters_and_speedup(tmp_path):
    root = _synth_project(tmp_path, n=40)
    cache = ArtifactCache(tmp_path / "cache")

    t0 = time.perf_counter()
    cold = run_check(root, cache=cache)
    cold_s = time.perf_counter() - t0
    assert cold.cache_hits == 0
    assert cold.cache_misses == cold.n_files + 1  # files + project entry

    t0 = time.perf_counter()
    warm = run_check(root, cache=cache)
    warm_s = time.perf_counter() - t0
    assert warm.cache_hits == warm.n_files + 1
    assert warm.cache_misses == 0
    assert warm.findings == cold.findings
    assert warm.suppressed == cold.suppressed

    assert warm_s < cold_s / 5, (
        f"warm {warm_s:.3f}s vs cold {cold_s:.3f}s: "
        "expected at least a 5x speedup"
    )


def test_warm_across_processes_via_disk(tmp_path):
    # a fresh ArtifactCache instance has an empty memory tier; hits must
    # come off disk, as they would in a new `massf check` process.
    root = _synth_project(tmp_path, n=8)
    run_check(root, cache=ArtifactCache(tmp_path / "cache"))
    warm = run_check(root, cache=ArtifactCache(tmp_path / "cache"))
    assert warm.cache_hits == warm.n_files + 1
    assert warm.cache_misses == 0


def test_edit_invalidates_only_the_touched_file(tmp_path):
    root = _synth_project(tmp_path, n=8)
    cache = ArtifactCache(tmp_path / "cache")
    run_check(root, cache=cache)

    target = root / "src" / "repro" / "mod_0.py"
    target.write_text(
        target.read_text() + "\ndef extra(x):\n    return x\n"
    )
    result = run_check(root, cache=cache)
    # the edited file misses, and the project-scope manifest key changed
    assert result.cache_misses == 2
    assert result.cache_hits == result.n_files - 1

