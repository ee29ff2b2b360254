"""End-to-end telemetry threading through the pipeline.

One small campus sweep with a live collector must surface every layer:
sweep span, grid, mapping phases, routing, kernel counters, executor cell
records and per-engine-node load timelines — and recording all of it must
not change the computed results.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.setups import ExperimentSetup, campus_setup
from repro.experiments.sweep import sweep_setup
from repro.obs import Telemetry
from repro.runtime import RuntimeConfig


def small_campus() -> ExperimentSetup:
    return campus_setup(
        "scalapack", intensity="light",
        workload_kwargs=dict(duration=50.0, http_servers=2,
                             clients_per_server=2),
    )


SEEDS = (1,)
APPROACHES = ("top", "place")


@pytest.fixture(scope="module")
def swept():
    tel = Telemetry()
    result = sweep_setup(
        small_campus(), seeds=SEEDS, approaches=APPROACHES, telemetry=tel,
    )
    return tel, result


def test_sweep_results_unchanged_by_telemetry(swept):
    tel, result = swept
    plain = sweep_setup(small_campus(), seeds=SEEDS, approaches=APPROACHES)
    assert result == plain


def test_span_tree_covers_every_layer(swept):
    tel, _ = swept
    paths = set(tel.span_paths())
    assert "sweep" in paths
    assert "sweep/grid/run" in paths
    # Mapping, routing and scoring happen inside the cell evaluation.
    assert any(p.endswith("map/top") for p in paths)
    assert any(p.endswith("map/place") for p in paths)
    assert any(p.endswith("routing/build") for p in paths)
    assert any(p.endswith("score/top") for p in paths)
    assert any("kernel/run" in p for p in paths)
    # Cell phases nest under the grid span on the inline path.
    assert any(p.startswith("sweep/grid/run/") for p in paths)
    # Every span the run opens, so one that is renamed, or built but
    # never entered, fails here.
    cell = "sweep/grid/run/"
    assert paths == {"sweep", "sweep/grid/run"} | {cell + p for p in (
        "emulate/eval-run",
        "emulate/eval-run/kernel/run",
        "map/place",
        "map/place/partition/multilevel",
        "map/place/place/estimate",
        "map/top",
        "map/top/partition/multilevel",
        "routing/build",
        "score/place",
        "score/place/evaluate_mapping",
        "score/top",
        "score/top/evaluate_mapping",
        "workload/prepare",
    )}


def test_counters_and_gauges_populated(swept):
    tel, _ = swept
    n_cells = len(SEEDS) * len(APPROACHES)
    assert tel.counters["grid.cells"] == n_cells
    assert tel.counters["grid.cells_ok"] == n_cells
    assert tel.counters["engine.evaluations"] == n_cells
    assert tel.counters["kernel.events"] > 0
    assert tel.counters["partition.calls"] >= 1
    assert tel.counters["routing.builds"] >= 1
    assert tel.gauges["grid.workers"] == 0
    assert tel.gauges["grid.wall_s"] > 0


def test_cell_and_progress_series(swept):
    tel, _ = swept
    cells = tel.series["cells"]
    assert all(c["ok"] for c in cells)
    # The serial sweep reports cells as they finish, in grid order.
    assert [(c["seed"], c["approach"]) for c in cells] == [
        (seed, approach) for seed in SEEDS for approach in APPROACHES
    ]
    assert "progress" not in tel.series


def test_load_timelines_recorded_per_cell(swept):
    tel, _ = swept
    entries = tel.timelines["engine.load"]
    assert len(entries) == len(SEEDS) * len(APPROACHES)
    labels = {(e["setup"], e["seed"], e["approach"]) for e in entries}
    assert labels == {
        ("campus", seed, approach)
        for seed in SEEDS for approach in APPROACHES
    }
    for entry in entries:
        loads = entry["loads"]
        assert len(loads) == 3  # campus runs on 3 engine nodes
        assert entry["interval"] > 0
        assert sum(sum(row) for row in loads) > 0


def test_worker_telemetry_merges_into_parent():
    tel = Telemetry()
    sweep_setup(
        small_campus(), seeds=(1, 2), approaches=("top",),
        runtime=RuntimeConfig(workers=min(2, os.cpu_count() or 1)),
        telemetry=tel,
    )
    # Spans recorded inside worker processes made it back to the parent.
    assert any(p.endswith("map/top") for p in tel.span_paths())
    assert len(tel.timelines["engine.load"]) == 2
    assert len(tel.series["cells"]) == 2
    assert tel.counters["engine.evaluations"] == 2
