"""Process-pool execution of the (setup × seed × approach) grid.

Each *cell* of the grid is one ``(setup, seed, approach)`` evaluation; the
executor fans cells out across cores with:

- **deterministic seeding** — a cell's randomness is fully determined by
  its explicit grid seed, never by scheduling order or worker placement,
  so a parallel sweep is bit-for-bit identical to the serial one;
- **graceful failure handling** — a cell that raises, times out, or takes
  its worker process down produces an error record (:class:`CellResult`
  with ``error`` set) instead of killing the sweep;
- **a timeout/retry policy** — per-task soft timeouts (SIGALRM inside the
  worker) and bounded retries for crashed / timed-out tasks;
- **observability** — per-cell wall timing, merged cache hit/miss
  counters, and a progress callback.

One task evaluates every approach of one ``(setup, seed)``, so the
approaches share the evaluation emulation in-process.  ``workers=0`` runs
the tasks in the caller's process, one after another: the serial sweep.
"""

from __future__ import annotations

import math
import os
import signal
import time
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.runtime.cache import ArtifactCache, CacheStats

__all__ = [
    "RuntimeConfig",
    "CellResult",
    "GridResult",
    "run_grid",
]


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the parallel runtime.

    Attributes
    ----------
    workers:
        Worker process count; ``None`` auto-sizes to the task count capped
        at the CPU count, ``0`` runs everything in-process (the serial
        reference path — still produces the same :class:`GridResult`).
    timeout_s:
        Soft per-task timeout enforced with ``SIGALRM`` inside worker
        processes (ignored when ``workers == 0``); ``None`` or a finite
        number > 0.
    retries:
        Additional attempts for a task whose worker crashed or timed out.
        Deterministic failures — in-task exceptions, a task that cannot
        be pickled — are *not* retried: they would fail identically again.
    """

    workers: int | None = None
    timeout_s: float | None = None
    retries: int = 1

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        # setitimer(0) disarms the timer: 0 would run the cell untimed.
        if self.timeout_s is not None and not (
            math.isfinite(self.timeout_s) and self.timeout_s > 0
        ):
            raise ValueError(
                f"timeout_s must be None or a finite number > 0, not "
                f"{self.timeout_s!r}"
            )


@dataclass
class CellResult:
    """Outcome record of one grid cell (error records included)."""

    setup_name: str
    app_name: str
    seed: int
    approach: str
    outcome: object | None = None  # ApproachOutcome on success
    error: str | None = None
    duration_s: float = 0.0
    attempts: int = 1
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class GridResult:
    """All cell records of one grid execution, in grid order."""

    cells: list[CellResult]

    def ok(self) -> list[CellResult]:
        return [c for c in self.cells if c.ok]

    def failures(self) -> list[CellResult]:
        return [c for c in self.cells if not c.ok]

    def outcome(
        self, setup_name: str, seed: int, approach: str
    ) -> Any:
        for cell in self.cells:
            if (cell.setup_name, cell.seed, cell.approach) == (
                setup_name, seed, approach,
            ):
                return cell.outcome
        raise KeyError((setup_name, seed, approach))


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
class _TaskTimeout(Exception):
    pass


@dataclass(frozen=True)
class _Task:
    task_id: int
    setup: object  # ExperimentSetup (network stripped for a worker)
    seed: int
    approaches: tuple[str, ...]
    config: object  # RunnerConfig | None
    cache_root: str | None
    timeout_s: float | None
    collect_telemetry: bool = False


@dataclass
class _TaskOutcome:
    task_id: int
    cells: list[CellResult]
    cache_stats: CacheStats
    retryable: bool = False
    telemetry: dict | None = None  # Telemetry.to_dict() snapshot


def _arm_soft_timeout(timeout_s: float) -> tuple[Any, bool]:
    """Install the SIGALRM soft timeout; returns the previous handler or
    ``None`` when unavailable.

    ``signal.signal`` only works in the main thread of the main
    interpreter, and ``SIGALRM``/``setitimer`` do not exist on Windows.
    In those environments the task degrades gracefully: a warning is
    emitted and the cell runs without a soft timeout instead of dying on
    the setup call itself.
    """
    def _on_alarm(signum: int, frame: Any) -> None:
        raise _TaskTimeout(f"cell exceeded {timeout_s:.3g}s timeout")

    try:
        old_handler = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    except (ValueError, OSError, AttributeError) as exc:
        # ValueError: not the main thread; AttributeError: no SIGALRM /
        # setitimer on this platform; OSError: itimer rejected.
        warnings.warn(
            f"soft timeout unavailable ({type(exc).__name__}: {exc}); "
            "running the cell without a timeout",
            RuntimeWarning,
            stacklevel=2,
        )
        return None, False
    return old_handler, True


def _disarm_soft_timeout(old_handler: Any, timer_armed: bool) -> None:
    """Cancel the soft timeout and restore the previous handler.

    ``timer_armed`` is only True when :func:`_arm_soft_timeout`
    succeeded (main thread, SIGALRM available), but the restore guards
    itself anyway: catching ``ValueError`` here makes the disarm safe
    to call from any thread even if the armed flag and the calling
    thread ever disagree (e.g. a task resumed on a different thread).
    """
    if not timer_armed:
        return
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)
    except (ValueError, AttributeError):  # off-main-thread / platform
        pass


def _execute_task(
    task: _Task, cache: ArtifactCache | None = None,
    telemetry: Any = None,
) -> _TaskOutcome:
    """Run one task.  A failure becomes an error record; an interrupt or
    exit (``KeyboardInterrupt``, ``SystemExit``) propagates.

    ``cache`` / ``telemetry`` are the caller's live objects (the inline
    path).  A worker task opens its own from ``cache_root`` /
    ``collect_telemetry`` instead and reports their counters in the
    outcome for the parent to merge.
    """
    from repro.experiments.runner import evaluate_setup
    from repro.obs.telemetry import Telemetry

    own_cache = (
        ArtifactCache(task.cache_root) if task.cache_root is not None else None
    )
    own_tel = Telemetry() if task.collect_telemetry else None
    if own_cache is not None:
        cache = own_cache
    if own_tel is not None:
        telemetry = own_tel
    pid = os.getpid()
    start = time.perf_counter()

    old_handler = None
    timer_armed = False
    if task.timeout_s is not None:
        old_handler, timer_armed = _arm_soft_timeout(task.timeout_s)
    try:
        results = evaluate_setup(
            task.setup,
            approaches=task.approaches,
            seed=task.seed,
            config=task.config,
            cache=cache,
            telemetry=telemetry,
        )
        duration = time.perf_counter() - start
        cells = [
            CellResult(
                setup_name=task.setup.name,
                app_name=task.setup.app_name,
                seed=task.seed,
                approach=name,
                outcome=results[name].outcome,
                duration_s=duration,
                worker_pid=pid,
            )
            for name in task.approaches
        ]
        retryable = False
    except Exception as exc:  # error record, not crash
        duration = time.perf_counter() - start
        tb = traceback.format_exc(limit=8)
        cells = [
            CellResult(
                setup_name=task.setup.name,
                app_name=task.setup.app_name,
                seed=task.seed,
                approach=name,
                error=f"{type(exc).__name__}: {exc}\n{tb}",
                duration_s=duration,
                worker_pid=pid,
            )
            for name in task.approaches
        ]
        retryable = isinstance(exc, _TaskTimeout)
    finally:
        _disarm_soft_timeout(old_handler, timer_armed)

    return _TaskOutcome(
        task_id=task.task_id, cells=cells,
        cache_stats=own_cache.stats if own_cache is not None else CacheStats(),
        retryable=retryable,
        telemetry=own_tel.to_dict() if own_tel is not None else None,
    )


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def _build_tasks(
    setups: Sequence,
    seeds: Sequence[int],
    approaches: tuple[str, ...],
    config: Any,
    cache_root: str | None,
    runtime: RuntimeConfig,
    collect_telemetry: bool,
) -> list[_Task]:
    """One task per ``(setup, seed)``; a task bound for a worker process
    carries the cache root, timeout and telemetry flag, an inline one
    leaves them to the caller's live objects."""
    inline = runtime.workers == 0
    tasks: list[_Task] = []
    for setup in setups:
        # Workers rebuild the network deterministically from the factory;
        # stripping the cached instance keeps the pickled task small.
        shipped = setup if inline else replace(setup, _network=None)
        for seed in seeds:
            tasks.append(
                _Task(
                    task_id=len(tasks),
                    setup=shipped,
                    seed=int(seed),
                    approaches=approaches,
                    config=config,
                    cache_root=None if inline else cache_root,
                    timeout_s=None if inline else runtime.timeout_s,
                    collect_telemetry=collect_telemetry and not inline,
                )
            )
    return tasks


def _error_outcome(task: _Task, message: str, attempts: int) -> _TaskOutcome:
    return _TaskOutcome(
        task_id=task.task_id,
        cells=[
            CellResult(
                setup_name=task.setup.name,
                app_name=task.setup.app_name,
                seed=task.seed,
                approach=name,
                error=message,
                attempts=attempts,
            )
            for name in task.approaches
        ],
        cache_stats=CacheStats(),
    )


def run_grid(
    setups: Any,
    seeds: Sequence[int],
    approaches: tuple[str, ...] = ("top", "place", "profile"),
    *,
    config: Any = None,
    runtime: RuntimeConfig | None = None,
    cache: ArtifactCache | str | bool | None = None,
    progress: Callable[[CellResult, int, int], None] | None = None,
    telemetry: Any = None,
) -> GridResult:
    """Evaluate the (setup × seed × approach) grid, possibly in parallel.

    Parameters
    ----------
    setups:
        One :class:`~repro.experiments.setups.ExperimentSetup` or a
        sequence of them.
    seeds, approaches:
        The grid axes.  Each cell's randomness is fully determined by its
        ``seed`` — results are independent of scheduling.
    config:
        :class:`~repro.experiments.runner.RunnerConfig` shared by all
        cells.
    runtime:
        :class:`RuntimeConfig`; defaults to auto-sized workers, no
        timeout, one retry.  ``workers=0`` evaluates the tasks in this
        process, in grid order, with the caller's setups, cache and
        collector (no timeout).
    cache:
        Artifact cache specification (see
        :func:`repro.runtime.cache.resolve_cache`).  Worker processes
        share the *disk* tier and their hit/miss counters merge into
        this cache's ``stats``; a memory-only cache only helps the
        in-process path.
    progress:
        ``progress(cell_result, done_cells, total_cells)`` called as cells
        finish (in completion order).
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry`.  When enabled,
        every worker task runs with its own collector whose snapshot
        merges back here — phase spans, kernel counters and per-cell load
        timelines from all workers land in one place — plus the grid's own
        ``cells`` event series and ``grid.*`` / ``cache.*`` counters.

    Returns
    -------
    GridResult
        Cell records in grid order (setup-major, then seed, then
        approach); failed cells carry ``error`` instead of ``outcome``.
    """
    from repro.experiments.setups import ExperimentSetup
    from repro.obs.telemetry import ensure_telemetry
    from repro.runtime.cache import resolve_cache

    tel = ensure_telemetry(telemetry)
    if isinstance(setups, ExperimentSetup):
        setups = [setups]
    setups = list(setups)
    seeds = [int(s) for s in seeds]
    approaches = tuple(approaches)
    if not setups or not seeds or not approaches:
        raise ValueError("need at least one setup, seed and approach")
    runtime = runtime or RuntimeConfig()
    cache_obj = resolve_cache(cache)
    cache_root = (
        str(cache_obj.root)
        if cache_obj is not None and cache_obj.root is not None
        else None
    )

    tasks = _build_tasks(
        setups, seeds, approaches, config, cache_root, runtime,
        collect_telemetry=tel.enabled,
    )
    total_cells = len(tasks) * len(approaches)
    outcomes: dict[int, _TaskOutcome] = {}
    done_cells = 0
    start = time.perf_counter()

    def _record(outcome: _TaskOutcome) -> None:
        nonlocal done_cells
        outcomes[outcome.task_id] = outcome
        if cache_obj is not None:
            cache_obj.stats.merge(outcome.cache_stats)
        if outcome.telemetry is not None:
            tel.merge(outcome.telemetry)
        for cell in outcome.cells:
            done_cells += 1
            tel.event(
                "cells",
                setup=cell.setup_name, app=cell.app_name, seed=cell.seed,
                approach=cell.approach, ok=cell.ok,
                duration_s=round(cell.duration_s, 6),
                attempts=cell.attempts, worker_pid=cell.worker_pid,
                **({"error": cell.error.splitlines()[0]}
                   if cell.error else {}),
            )
            if progress is not None:
                progress(cell, done_cells, total_cells)

    n_workers = runtime.workers
    if n_workers is None:
        n_workers = max(1, min(len(tasks), os.cpu_count() or 1))
    with tel.span("grid/run"):
        if n_workers == 0:
            for task in tasks:
                _record(_execute_task(
                    task, cache=cache_obj,
                    telemetry=tel if tel.enabled else None,
                ))
        else:
            _run_pool(tasks, n_workers, runtime, _record)

    cells = [
        cell
        for task in tasks
        for cell in outcomes[task.task_id].cells
    ]
    if tel.enabled:
        n_ok = sum(cell.ok for cell in cells)
        tel.count("grid.cells", len(cells))
        tel.count("grid.cells_ok", n_ok)
        tel.count("grid.cells_failed", len(cells) - n_ok)
        tel.count("grid.retries", sum(
            o.cells[0].attempts - 1 for o in outcomes.values()
        ))
        tel.gauge("grid.workers", n_workers)
        tel.gauge("grid.wall_s", time.perf_counter() - start)
        cache_stats = cache_obj.stats if cache_obj is not None else CacheStats()
        tel.count("cache.hits", cache_stats.hits)
        tel.count("cache.misses", cache_stats.misses)
        tel.count("cache.stores", cache_stats.stores)
        for kind, per in sorted(cache_stats.by_kind.items()):
            tel.count(f"cache.{kind}.hits", per.get("hits", 0))
            tel.count(f"cache.{kind}.misses", per.get("misses", 0))
    return GridResult(cells=cells)


def _run_pool(
    tasks: list[_Task],
    n_workers: int,
    runtime: RuntimeConfig,
    record: Callable[[_TaskOutcome], None],
) -> None:
    """Submit tasks to a process pool, surviving worker crashes.

    A crashed worker breaks the whole ``ProcessPoolExecutor``; the loop
    records which tasks finished, rebuilds the pool, and resubmits the
    rest (bounded by ``runtime.retries`` per task).  Only a crash or a
    soft timeout is retried: any other exception out of a future (a task
    that cannot be pickled, say) is deterministic and becomes an error
    record on its first attempt.
    """
    import multiprocessing

    # fork where available, the platform default otherwise.
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )

    attempts: dict[int, int] = {t.task_id: 0 for t in tasks}
    pending: list[_Task] = list(tasks)
    by_id = {t.task_id: t for t in tasks}

    while pending:
        round_tasks, pending = pending, []
        crashed: list[int] = []
        with ProcessPoolExecutor(
            max_workers=n_workers, mp_context=ctx
        ) as pool:
            futures = {}
            for task in round_tasks:
                attempts[task.task_id] += 1
                try:
                    futures[pool.submit(_execute_task, task)] = task.task_id
                except Exception as exc:
                    record(
                        _error_outcome(
                            task,
                            f"submit failed: {type(exc).__name__}: {exc}",
                            attempts[task.task_id],
                        )
                    )
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    task_id = futures[fut]
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool:
                        crashed.append(task_id)
                        continue
                    except Exception as exc:
                        record(_error_outcome(
                            by_id[task_id], f"{type(exc).__name__}: {exc}",
                            attempts[task_id],
                        ))
                        continue
                    for cell in outcome.cells:
                        cell.attempts = attempts[task_id]
                    if outcome.retryable and attempts[task_id] <= runtime.retries:
                        pending.append(by_id[task_id])
                    else:
                        record(outcome)
        for task_id in crashed:
            if attempts[task_id] <= runtime.retries:
                pending.append(by_id[task_id])
            else:
                record(
                    _error_outcome(
                        by_id[task_id],
                        "worker process crashed (BrokenProcessPool)",
                        attempts[task_id],
                    )
                )
