"""Per-figure/table report generation.

Each ``figN_*`` / ``tableN_*`` function regenerates the corresponding
artifact of the paper's evaluation section as text tables / series (see the
per-experiment index in DESIGN.md).  A :class:`Campaign` caches the
expensive ``evaluate_setup`` calls so figures sharing runs (e.g. Figures 4,
6 and 9 all come from the ScaLapack matrix) do not recompute them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.runner import (
    ApproachEvaluation,
    RunnerConfig,
    evaluate_setup,
    run_emulation,
)
from repro.experiments.setups import (
    ExperimentSetup,
    brite_setup,
    campus_setup,
    large_brite_setup,
    table1_setups,
)
from repro.metrics.imbalance import fine_grained_imbalance, lp_interval_loads
from repro.metrics.summary import ExperimentTable, format_series
from repro.routing.spf import build_routing

__all__ = ["Campaign", "table1", "APPROACHES"]

APPROACHES = ("top", "place", "profile")


def table1(setups: list[ExperimentSetup] | None = None) -> ExperimentTable:
    """Table 1: topology setup (routers / hosts / engine nodes)."""
    setups = setups or table1_setups()
    values = np.array(
        [
            [len(s.network.routers()), len(s.network.hosts()), s.n_engine_nodes]
            for s in setups
        ],
        dtype=np.float64,
    )
    return ExperimentTable(
        title="Table 1. Network Topology Setup",
        row_names=[s.name for s in setups],
        col_names=["routers", "hosts", "engine nodes"],
        values=values,
    )


@dataclass
class Campaign:
    """Caches evaluate_setup() results across figures.

    One campaign = one (seed, runner-config) choice; results are keyed by
    (setup name, app name).  ``artifact_cache`` additionally shares the
    underlying routing tables and emulation runs (content-addressed, see
    :mod:`repro.runtime.cache`) — across figures *and* across campaign
    re-runs when the cache is on disk.
    """

    seed: int = 1
    intensity: str | None = None  # None = each setup's own default
    config: RunnerConfig = field(default_factory=RunnerConfig)
    workload_kwargs: dict = field(default_factory=dict)
    artifact_cache: object | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    def results_for(
        self, setup: ExperimentSetup
    ) -> dict[str, ApproachEvaluation]:
        key = (setup.name, setup.app_name, setup.intensity)
        if key not in self._cache:
            self._cache[key] = evaluate_setup(
                setup, approaches=APPROACHES, seed=self.seed,
                config=self.config, cache=self.artifact_cache,
            )
        return self._cache[key]

    def _setup_kwargs(self) -> dict:
        kwargs: dict = {"workload_kwargs": dict(self.workload_kwargs)}
        if self.intensity is not None:
            kwargs["intensity"] = self.intensity
        return kwargs

    def _setups(self, app: str) -> list[ExperimentSetup]:
        return table1_setups(app, **self._setup_kwargs())

    def _matrix(self, app: str, attribute: str) -> ExperimentTable:
        setups = self._setups(app)
        values = np.zeros((len(setups), len(APPROACHES)))
        for i, setup in enumerate(setups):
            results = self.results_for(setup)
            for j, name in enumerate(APPROACHES):
                values[i, j] = getattr(results[name].outcome, attribute)
        return ExperimentTable(
            title="", row_names=[s.name for s in setups],
            col_names=[a.upper() for a in APPROACHES], values=values,
        )

    # ---------------------------- figures ------------------------------ #
    def fig4_imbalance_scalapack(self) -> ExperimentTable:
        """Figure 4: load imbalance for ScaLapack."""
        t = self._matrix("scalapack", "load_imbalance")
        t.title = "Figure 4. Load Imbalance for ScaLapack"
        return t

    def fig5_imbalance_gridnpb(self) -> ExperimentTable:
        """Figure 5: load imbalance for GridNPB."""
        t = self._matrix("gridnpb", "load_imbalance")
        t.title = "Figure 5. Load Imbalance for GridNPB"
        return t

    def fig6_emutime_scalapack(self) -> ExperimentTable:
        """Figure 6: application emulation time for ScaLapack (seconds)."""
        t = self._matrix("scalapack", "app_emulation_time")
        t.title = "Figure 6. Emulation Time for ScaLapack"
        t.unit = "s"
        return t

    def fig7_emutime_gridnpb(self) -> ExperimentTable:
        """Figure 7: application emulation time for GridNPB (seconds)."""
        t = self._matrix("gridnpb", "app_emulation_time")
        t.title = "Figure 7. Emulation Time for GridNPB"
        t.unit = "s"
        return t

    def fig9_replay_scalapack(self) -> ExperimentTable:
        """Figure 9: isolated network emulation time, ScaLapack.

        The paper replays the recorded traffic as fast as possible; here
        that is the evaluation trace scored without compute demand
        (``EmulationMetrics.wall_network``), which equals re-injecting the
        recorded transfers into a fresh kernel."""
        t = self._matrix("scalapack", "network_emulation_time")
        t.title = "Figure 9. ScaLapack Isolated Network Emulation"
        t.unit = "s"
        return t

    def fig10_replay_gridnpb(self) -> ExperimentTable:
        """Figure 10: isolated network emulation time, GridNPB (see
        :meth:`fig9_replay_scalapack`)."""
        t = self._matrix("gridnpb", "network_emulation_time")
        t.title = "Figure 10. GridNPB Isolated Network Emulation"
        t.unit = "s"
        return t

    # ------------------------------------------------------------------ #
    def fig2_load_variation(self, interval: float = 10.0) -> str:
        """Figure 2: per-engine-node load over the emulation lifetime.

        The paper's figure illustrates dominating-node changes across
        emulation stages; the GridNPB-on-BRITE cell shows them most clearly
        (on the 3-engine Campus a single engine node dominates throughout),
        so the series is generated there, under the TOP mapping.
        """
        setup = brite_setup("gridnpb", **self._setup_kwargs())
        results = self.results_for(setup)
        run = run_emulation(
            setup.network,
            build_routing(setup.network, cache=self.artifact_cache),
            self._prepared_workload(setup), self.seed, config=self.config,
            cache=self.artifact_cache,
        )
        series = lp_interval_loads(
            run.trace, results["top"].mapping.parts, interval
        )
        xs = np.arange(series.shape[1]) * interval
        named = {f"engine{i}": series[i] for i in range(series.shape[0])}
        return format_series(
            "Figure 2. Load Variation Over the Lifetime of an Emulation",
            xs, named, x_label="t[s]",
        )

    def fig8_fine_grained(self, interval: float = 2.0) -> str:
        """Figure 8: fine-grained (2 s) load imbalance of GridNPB on Campus,
        TOP vs PROFILE."""
        setup = campus_setup("gridnpb", **self._setup_kwargs())
        results = self.results_for(setup)
        run = run_emulation(
            setup.network,
            build_routing(setup.network, cache=self.artifact_cache),
            self._prepared_workload(setup), self.seed, config=self.config,
            cache=self.artifact_cache,
        )
        series = {}
        for name in ("top", "profile"):
            series[name.upper()] = fine_grained_imbalance(
                run.trace, results[name].mapping.parts, interval=interval
            )
        n_bins = len(next(iter(series.values())))
        xs = np.arange(n_bins) * interval
        return format_series(
            "Figure 8. Fine-Grained Load Imbalance of GridNPB",
            xs, series, x_label="t[s]",
        )

    def _prepared_workload(self, setup: ExperimentSetup):
        workload = setup.build_workload(self.seed)
        workload.prepare(setup.network, np.random.default_rng(self.seed))
        return workload

    # ------------------------------------------------------------------ #
    def table2_scalability(self) -> ExperimentTable:
        """Table 2: ScaLapack on the large (200 router / 364 host) network,
        20 engine nodes — load imbalance and execution time."""
        setup = large_brite_setup(
            "scalapack", workload_kwargs=dict(self.workload_kwargs)
        )
        results = self.results_for(setup)
        values = np.zeros((2, len(APPROACHES)))
        for j, name in enumerate(APPROACHES):
            values[0, j] = results[name].outcome.load_imbalance
            values[1, j] = results[name].outcome.app_emulation_time
        return ExperimentTable(
            title="Table 2. Results of ScaLapack on Larger Network",
            row_names=["Load Imbalance (Std. Deviation)",
                       "Execution Time (second)"],
            col_names=[a.upper() for a in APPROACHES],
            values=values,
        )
