"""Parallel experiment runtime: artifact caching + grid execution.

The paper's evaluation is an embarrassingly parallel grid over
(setup × seed × approach); this subsystem treats that grid as the parallel
system to optimize:

- :mod:`repro.runtime.fingerprint` — stable structural hashing of networks,
  workloads and configs, so artifacts can be content-addressed.
- :mod:`repro.runtime.cache` — a content-addressed artifact cache (memory +
  disk) for routing tables, profiling runs and evaluation runs.
- :mod:`repro.runtime.executor` — the grid executor every sweep runs
  through: in-process (``workers=0``, the serial sweep) or on a process
  pool, with deterministic per-cell seeding, per-cell error records (a
  crashed worker never kills the sweep, an interrupt still stops it), a
  timeout/retry policy for pool crashes, and run observability (per-cell
  timing, cache hit/miss counters, progress callbacks).

The grid executor is one of exactly two places work crosses a process
boundary; the other is the LP command loop in :mod:`repro.engine.lp`.
"""

from repro.runtime.cache import ArtifactCache, CacheStats, default_cache
from repro.runtime.executor import (
    CellResult,
    GridResult,
    RuntimeConfig,
    run_grid,
)
from repro.runtime.fingerprint import stable_hash

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "default_cache",
    "stable_hash",
    "RuntimeConfig",
    "CellResult",
    "GridResult",
    "run_grid",
]
