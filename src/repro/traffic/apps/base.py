"""Foreground application interface and the generic workflow machinery.

A foreground app is a *live* traffic source with known injection points
(§3.2: "we determine the traffic injection points of the application, where
its processes attach to the emulated network").  It drives the emulator with
transfers and exposes a compute-demand profile (the part that runs on the
application cluster, not the emulator).

:class:`WorkflowApp` is the shared engine for dataflow-graph applications
(GridNPB): tasks with durations placed on endpoints, edges with transfer
sizes; a static schedule is derived by topological timing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.engine.compute import ComputeProfile
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer

__all__ = ["ForegroundApp", "WorkflowTask", "WorkflowEdge", "WorkflowApp"]


class ForegroundApp(abc.ABC):
    """Base class for foreground (live application) traffic models."""

    #: injection points — host node ids where app processes attach
    endpoints: list[int]
    #: human-readable name used in experiment reports
    name: str = "app"

    @abc.abstractmethod
    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        """Schedule the application's transfers on the kernel."""

    @abc.abstractmethod
    def compute_profile(self) -> ComputeProfile:
        """Compute demand on the application cluster over virtual time."""

    @property
    @abc.abstractmethod
    def duration(self) -> float:
        """Virtual run length of the application."""

    def offered_bytes(self) -> float | None:
        """Coarse user-estimable total traffic volume (bytes), or None.

        Users cannot predict an application's traffic *pattern* (that is
        §3.2's starting point), but they usually know its aggregate data
        volume (matrix sizes, file sizes).  PLACE uses this, when available,
        to cap the full-link-utilization assumption at a plausible average
        rate; without it the literal paper assumption applies.
        """
        return None


@dataclass
class WorkflowTask:
    """One dataflow-graph task.

    Attributes
    ----------
    name:
        Unique task name.
    endpoint_idx:
        Index into the app's ``endpoints`` list where this task runs.
    compute_s:
        Task busy time (virtual seconds).
    compute_rate:
        Compute demand rate while the task runs (seconds of app-cluster
        computation per virtual second).
    """

    name: str
    endpoint_idx: int
    compute_s: float
    compute_rate: float = 1.0


@dataclass
class WorkflowEdge:
    """A dataflow dependency carrying ``nbytes`` from ``src`` to ``dst``."""

    src: str
    dst: str
    nbytes: float


class WorkflowApp(ForegroundApp):
    """Dataflow-graph application executed by static topological timing.

    Task start = max over incoming edges of (predecessor finish + estimated
    transfer time); the transfers themselves are submitted to the emulator
    at the predecessors' finish times, so the emulated network carries
    exactly the workflow's communication.
    """

    def __init__(
        self,
        name: str,
        endpoints: list[int],
        tasks: list[WorkflowTask],
        edges: list[WorkflowEdge],
        transfer_rate_est: float = 100e6 / 8,
        start_time: float = 0.0,
    ) -> None:
        self.name = name
        self.endpoints = list(endpoints)
        self.tasks = {t.name: t for t in tasks}
        if len(self.tasks) != len(tasks):
            raise ValueError("duplicate task names")
        for task in tasks:
            if not 0 <= task.endpoint_idx < len(endpoints):
                raise ValueError(f"task {task.name}: endpoint index out of range")
        self.edges = list(edges)
        for edge in self.edges:
            if edge.src not in self.tasks or edge.dst not in self.tasks:
                raise ValueError(f"edge {edge.src}->{edge.dst}: unknown task")
        self.transfer_rate_est = transfer_rate_est
        self.start_time = start_time
        self._schedule = self._compute_schedule()

    # ------------------------------------------------------------------ #
    def _compute_schedule(self) -> dict[str, tuple[float, float]]:
        """Topological timing: name -> (start, finish) in virtual time."""
        preds: dict[str, list[WorkflowEdge]] = {n: [] for n in self.tasks}
        succs: dict[str, list[WorkflowEdge]] = {n: [] for n in self.tasks}
        indeg = {n: 0 for n in self.tasks}
        for e in self.edges:
            preds[e.dst].append(e)
            succs[e.src].append(e)
            indeg[e.dst] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        schedule: dict[str, tuple[float, float]] = {}
        done = 0
        while ready:
            name = ready.pop(0)
            task = self.tasks[name]
            start = self.start_time
            for e in preds[name]:
                pfinish = schedule[e.src][1]
                start = max(
                    start, pfinish + e.nbytes / self.transfer_rate_est
                )
            schedule[name] = (start, start + task.compute_s)
            done += 1
            for e in succs[name]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
                    ready.sort()
        if done != len(self.tasks):
            raise ValueError("workflow graph contains a cycle")
        return schedule

    def task_window(self, name: str) -> tuple[float, float]:
        """(start, finish) of a task in the static schedule."""
        return self._schedule[name]

    @property
    def duration(self) -> float:
        return max(f for _, f in self._schedule.values()) - self.start_time

    @property
    def makespan_end(self) -> float:
        """Absolute virtual time when the last task finishes."""
        return max(f for _, f in self._schedule.values())

    # ------------------------------------------------------------------ #
    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        batch: list[Transfer] = []
        times: list[float] = []
        for edge in self.edges:
            src_task = self.tasks[edge.src]
            dst_task = self.tasks[edge.dst]
            src_ep = self.endpoints[src_task.endpoint_idx]
            dst_ep = self.endpoints[dst_task.endpoint_idx]
            if src_ep == dst_ep:
                continue  # co-located tasks exchange data locally
            batch.append(Transfer(
                src=src_ep, dst=dst_ep, nbytes=edge.nbytes,
                tag=f"{self.name}:{edge.src}->{edge.dst}",
            ))
            times.append(self._schedule[edge.src][1])
        kernel.submit_transfers(batch, times)

    def compute_profile(self) -> ComputeProfile:
        profiles = [
            ComputeProfile(
                times=np.array(self._schedule[name]),
                rates=np.array([task.compute_rate]),
            )
            for name, task in self.tasks.items()
            if task.compute_s > 0
        ]
        return ComputeProfile.combine(profiles)

    def offered_bytes(self) -> float:
        """Sum of inter-endpoint edge volumes (co-located edges excluded)."""
        total = 0.0
        for edge in self.edges:
            src_ep = self.endpoints[self.tasks[edge.src].endpoint_idx]
            dst_ep = self.endpoints[self.tasks[edge.dst].endpoint_idx]
            if src_ep != dst_ep:
                total += edge.nbytes
        return total
