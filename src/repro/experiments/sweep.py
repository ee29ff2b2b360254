"""Seed sweeps: mean ± spread statistics over repeated experiments.

The paper reports single runs; a reproduction should show its orderings are
not seed luck.  :func:`sweep_setup` runs the (seed × approach) grid through
:func:`repro.runtime.executor.run_grid` — serially in-process by default —
and aggregates each §4.1.1 metric per approach; :func:`ordering_confidence`
reports how often the expected ordering (TOP worst, PROFILE best) held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import RunnerConfig
from repro.experiments.setups import ExperimentSetup
from repro.runtime.executor import RuntimeConfig, run_grid

__all__ = [
    "MetricStats",
    "SweepResult",
    "sweep_setup",
    "sweep_result_from_grid",
    "ordering_confidence",
]


@dataclass(frozen=True)
class MetricStats:
    """Mean / std / min / max of one metric across seeds."""

    mean: float
    std: float
    min: float
    max: float
    values: tuple[float, ...]

    @classmethod
    def of(cls, values: list[float]) -> "MetricStats":
        arr = np.asarray(values, dtype=np.float64)
        return cls(
            mean=float(arr.mean()), std=float(arr.std()),
            min=float(arr.min()), max=float(arr.max()),
            values=tuple(float(v) for v in arr),
        )

    def __str__(self) -> str:
        return f"{self.mean:.3f} ± {self.std:.3f}"


@dataclass
class SweepResult:
    """Per-approach metric statistics for one setup across seeds."""

    setup_name: str
    seeds: tuple[int, ...]
    imbalance: dict[str, MetricStats]
    app_time: dict[str, MetricStats]
    network_time: dict[str, MetricStats]

    def render(self) -> str:
        lines = [
            f"{self.setup_name} over seeds {list(self.seeds)}",
            f"{'approach':10s} {'imbalance':>18s} {'app time [s]':>22s} "
            f"{'net time [s]':>22s}",
        ]
        for name in self.imbalance:
            lines.append(
                f"{name:10s} {str(self.imbalance[name]):>18s} "
                f"{self.app_time[name].mean:11.1f} ± "
                f"{self.app_time[name].std:6.1f} "
                f"{self.network_time[name].mean:11.1f} ± "
                f"{self.network_time[name].std:6.1f}"
            )
        return "\n".join(lines)


def sweep_setup(
    setup: ExperimentSetup,
    seeds: tuple[int, ...] = (1, 2, 3),
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    config: RunnerConfig | None = None,
    *,
    runtime: RuntimeConfig | None = None,
    cache=None,
    progress=None,
    telemetry=None,
) -> SweepResult:
    """Evaluate ``setup`` once per seed through :func:`run_grid` and
    aggregate the metrics.

    ``runtime`` defaults to ``RuntimeConfig(workers=0)``: the seeds run
    serially in this process.  A runtime with workers fans the
    (seed × approach) grid out over worker processes instead — results are
    bit-for-bit identical (deterministic per-cell seeding).  ``cache``
    shares routing tables and emulation runs across cells and across
    repeated sweeps; ``progress`` is forwarded to the grid executor.
    ``telemetry`` (:class:`repro.obs.telemetry.Telemetry`) collects the
    sweep's phase breakdown, its per-cell ``cells`` event series and load
    timelines.  Raises ``RuntimeError`` if any cell failed.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    if not seeds:
        raise ValueError("need at least one seed")
    seeds = tuple(int(s) for s in seeds)
    with tel.span("sweep"):
        grid = run_grid(
            setup, seeds, approaches, config=config,
            runtime=runtime or RuntimeConfig(workers=0), cache=cache,
            progress=progress, telemetry=tel,
        )
        return sweep_result_from_grid(grid, setup, seeds, approaches)


def sweep_result_from_grid(
    grid, setup: ExperimentSetup, seeds, approaches
) -> SweepResult:
    """Aggregate one setup's cells of a grid run into a SweepResult.

    Raises ``RuntimeError`` listing the error records if any cell of the
    requested (seed × approach) block failed — statistics over a partial
    grid would be silently wrong.
    """
    failures = [
        c for c in grid.failures() if c.setup_name == setup.name
    ]
    if failures:
        detail = "; ".join(
            f"seed={c.seed} approach={c.approach}: "
            f"{(c.error or '').splitlines()[0]}"
            for c in failures[:5]
        )
        raise RuntimeError(
            f"{len(failures)} sweep cell(s) failed: {detail}"
        )
    seeds = tuple(int(s) for s in seeds)
    metrics = {
        metric: {
            name: MetricStats.of([
                getattr(grid.outcome(setup.name, seed, name), attr)
                for seed in seeds
            ])
            for name in approaches
        }
        for metric, attr in (
            ("imbalance", "load_imbalance"),
            ("app_time", "app_emulation_time"),
            ("network_time", "network_emulation_time"),
        )
    }
    return SweepResult(setup_name=setup.describe(), seeds=seeds, **metrics)


def ordering_confidence(
    result: SweepResult,
    metric: str = "imbalance",
    better: str = "profile",
    worse: str = "top",
) -> float:
    """Fraction of seeds in which ``better`` beat ``worse`` on ``metric``."""
    stats = getattr(result, metric)
    if better not in stats or worse not in stats:
        raise ValueError("approach missing from the sweep")
    b = np.asarray(stats[better].values)
    w = np.asarray(stats[worse].values)
    return float((b < w).mean())
