"""Parallel runtime tests: serial/parallel parity and failure handling.

The headline guarantee of :mod:`repro.runtime.executor` is that fanning
the (setup × seed × approach) grid over worker processes changes *nothing*
about the results: every ``ApproachOutcome`` is bit-for-bit the one the
serial path produces (compared field-by-field on pickled bytes — whole-
object pickles are not round-trip byte-stable because of pickle's string
memoization, even for identical values).
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle

import pytest

from repro.experiments.runner import evaluate_setup
from repro.experiments.setups import ExperimentSetup, campus_setup
from repro.experiments.sweep import sweep_setup
from repro.runtime import RuntimeConfig, run_grid, stable_hash

SEEDS = (1, 2, 3, 4)
APPROACHES = ("top", "place", "profile")


def small_campus() -> ExperimentSetup:
    return campus_setup(
        "scalapack", intensity="light",
        workload_kwargs=dict(duration=50.0, http_servers=2,
                             clients_per_server=2),
    )


def outcomes_identical(a, b) -> bool:
    """Bit-for-bit equality, canonically (per-field pickled bytes)."""
    if type(a) is not type(b):
        return False
    return all(
        pickle.dumps(getattr(a, f.name)) == pickle.dumps(getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


@pytest.fixture(scope="module")
def serial_reference():
    setup = small_campus()
    return setup, {
        seed: evaluate_setup(setup, approaches=APPROACHES, seed=seed)
        for seed in SEEDS
    }


def test_parallel_grid_matches_serial(serial_reference):
    setup, serial = serial_reference
    grid = run_grid(
        setup, SEEDS, APPROACHES,
        runtime=RuntimeConfig(workers=min(4, os.cpu_count() or 1)),
    )
    assert not grid.failures()
    assert len(grid.ok()) == len(SEEDS) * len(APPROACHES)
    for seed in SEEDS:
        for name in APPROACHES:
            ours = grid.outcome(setup.name, seed, name)
            ref = serial[seed][name].outcome
            assert outcomes_identical(ours, ref), (seed, name)
            assert stable_hash(ours) == stable_hash(ref)


def test_inline_grid_matches_serial(serial_reference):
    setup, serial = serial_reference
    grid = run_grid(setup, SEEDS[:2], APPROACHES,
                    runtime=RuntimeConfig(workers=0))
    assert {cell.worker_pid for cell in grid.cells} == {os.getpid()}
    for seed in SEEDS[:2]:
        for name in APPROACHES:
            assert outcomes_identical(
                grid.outcome(setup.name, seed, name),
                serial[seed][name].outcome,
            )


def test_sweep_setup_parallel_matches_serial(serial_reference):
    setup, _ = serial_reference
    serial_sweep = sweep_setup(setup, seeds=SEEDS[:2],
                               approaches=("top", "profile"))
    parallel_sweep = sweep_setup(
        setup, seeds=SEEDS[:2], approaches=("top", "profile"),
        runtime=RuntimeConfig(workers=2),
    )
    assert parallel_sweep == serial_sweep


def test_progress_callback_counts_cells():
    setup = small_campus()
    seen = []
    run_grid(
        setup, SEEDS[:2], ("top",), runtime=RuntimeConfig(workers=2),
        progress=lambda cell, done, total: seen.append((done, total)),
    )
    assert [d for d, _ in seen] == [1, 2]
    assert all(t == 2 for _, t in seen)


# --------------------------------------------------------------------- #
# Failure handling
# --------------------------------------------------------------------- #
def _exploding_network():
    raise RuntimeError("boom: factory failed")


def _process_killing_network():
    os._exit(17)  # simulates a hard worker crash (segfault-like)


def bad_factory_setup(factory) -> ExperimentSetup:
    return ExperimentSetup(
        name="broken", network_factory=factory, n_engine_nodes=2,
        app_name="none",
    )


def test_cell_exception_becomes_error_record():
    grid = run_grid(
        bad_factory_setup(_exploding_network), (1, 2), ("top",),
        runtime=RuntimeConfig(workers=2),
    )
    assert len(grid.failures()) == 2 and not grid.ok()
    for cell in grid.cells:
        assert not cell.ok
        assert "boom: factory failed" in cell.error
        # Deterministic exceptions are not retried.
        assert cell.attempts == 1


def test_worker_crash_survives_and_reports():
    grid = run_grid(
        bad_factory_setup(_process_killing_network), (1,), ("top",),
        runtime=RuntimeConfig(workers=1, retries=1),
    )
    (cell,) = grid.cells
    assert not cell.ok
    assert "crash" in cell.error.lower()
    assert cell.attempts == 2  # initial attempt + one retry


def test_crash_does_not_poison_healthy_cells():
    healthy = small_campus()
    grid = run_grid(
        [bad_factory_setup(_exploding_network), healthy], (1,), ("top",),
        runtime=RuntimeConfig(workers=2),
    )
    by_setup = {c.setup_name: c for c in grid.cells}
    assert not by_setup["broken"].ok
    assert by_setup[healthy.name].ok
    ref = evaluate_setup(healthy, approaches=("top",), seed=1)
    assert outcomes_identical(by_setup[healthy.name].outcome,
                              ref["top"].outcome)


def test_unpicklable_task_is_an_error_not_a_crash():
    """A task that cannot be sent to a worker fails the same way every
    time: an error record naming the pickling error, never retried."""
    grid = run_grid(
        bad_factory_setup(lambda: None), (1,), ("top",),
        runtime=RuntimeConfig(workers=1, retries=1),
    )
    (cell,) = grid.cells
    assert "pickle" in cell.error.lower()
    assert cell.attempts == 1


def test_interrupt_stops_inline_grid():
    """Ctrl-C in a serial sweep reaches the caller: no cell after the
    interrupted one is evaluated."""
    calls = []

    def interrupted():
        calls.append(1)
        raise KeyboardInterrupt

    setups = [
        dataclasses.replace(bad_factory_setup(interrupted), name=f"s{i}")
        for i in range(3)
    ]
    with pytest.raises(KeyboardInterrupt):
        run_grid(setups, (1,), ("top",), runtime=RuntimeConfig(workers=0))
    assert len(calls) == 1


def test_timeout_produces_error_record():
    setup = campus_setup("scalapack")  # full-size workload: slow enough
    grid = run_grid(
        setup, (1,), ("top",),
        runtime=RuntimeConfig(workers=1, timeout_s=1e-3, retries=0),
    )
    (cell,) = grid.cells
    assert not cell.ok
    assert "timeout" in cell.error.lower()


def test_sweep_raises_on_failed_cells():
    with pytest.raises(RuntimeError, match="cell"):
        sweep_setup(
            bad_factory_setup(_exploding_network), seeds=(1,),
            approaches=("top",), runtime=RuntimeConfig(workers=1),
        )


def test_runtime_config_validates():
    with pytest.raises(ValueError):
        RuntimeConfig(workers=-1)
    with pytest.raises(ValueError):
        RuntimeConfig(retries=-1)


@pytest.mark.parametrize("timeout_s", [0.0, -1.0, math.nan, math.inf])
def test_runtime_config_rejects_timeouts_that_never_fire(timeout_s):
    """setitimer(0) disarms the timer; a negative or nan one never arms
    it: each would run the cell untimed."""
    with pytest.raises(ValueError, match="timeout_s"):
        RuntimeConfig(timeout_s=timeout_s)
    assert RuntimeConfig(timeout_s=1e-3).timeout_s == 1e-3
