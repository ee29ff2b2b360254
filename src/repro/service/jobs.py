"""Job lifecycle for the mapping service.

A job moves ``PENDING → RUNNING → DONE | FAILED | CANCELLED``.  Jobs sit
in a **bounded** queue — the service's backpressure valve: when the
queue is full, submission raises :class:`QueueFullError` and the HTTP
layer answers 429 instead of buffering unboundedly (the multi-tenant
"many jobs, one substrate" discipline).  A repeat of a request already
answered never enters it: the service settles it at submit and only
records it in the registry (:meth:`JobQueue.record`).

Deadlines are cooperative: every job carries a :meth:`Job.checkpoint`
the handlers call between pipeline phases, raising
:class:`JobCancelled` / :class:`JobTimeout` at the next phase boundary.
Jobs run on worker threads, where Python forbids signal handlers, so
nothing interrupts a handler between two checkpoints.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field

from repro.obs.telemetry import Telemetry
from repro.service.requests import JobInfo

__all__ = [
    "JobState",
    "Job",
    "JobQueue",
    "QueueFullError",
    "JobCancelled",
    "JobTimeout",
]


class QueueFullError(RuntimeError):
    """The bounded job queue is at capacity (HTTP 429)."""


class JobCancelled(RuntimeError):
    """Raised at a checkpoint after the job was cancelled."""


class JobTimeout(RuntimeError):
    """Raised at a checkpoint after the job's deadline passed."""


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


_COUNTER = itertools.count(1)


@dataclass
class Job:
    """One submitted request plus its lifecycle state."""

    job_id: str
    request: object  # a repro.service.requests dataclass
    submitted_s: float
    timeout_s: float | None = None
    state: JobState = JobState.PENDING
    started_s: float | None = None
    finished_s: float | None = None
    error: str | None = None
    result: dict | None = None
    warm_hit: bool = False
    telemetry: Telemetry = field(default_factory=Telemetry)
    _cancel: threading.Event = field(default_factory=threading.Event)
    _done: threading.Event = field(default_factory=threading.Event)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    @classmethod
    def create(cls, request, timeout_s: float | None = None) -> "Job":
        return cls(
            job_id=f"job-{next(_COUNTER)}",
            request=request,
            submitted_s=time.time(),
            timeout_s=timeout_s,
        )

    # ------------------------------------------------------------------ #
    @property
    def deadline_s(self) -> float | None:
        """Absolute wall-clock deadline (armed when the job starts)."""
        if self.timeout_s is None or self.started_s is None:
            return None
        return self.started_s + self.timeout_s

    def cancel(self) -> bool:
        """Request cancellation; True if the job was still live."""
        with self._lock:
            if self.state.terminal:
                return False
            self._cancel.set()
            if self.state is JobState.PENDING:
                # Never started: settle immediately; the worker skips it.
                self._settle(JobState.CANCELLED, error="cancelled")
            return True

    def checkpoint(self) -> None:
        """Raise if the job should stop (cancelled or past deadline).

        Handlers call this between pipeline phases; nothing interrupts
        the stretches in between.
        """
        if self._cancel.is_set():
            raise JobCancelled(f"{self.job_id} cancelled")
        deadline = self.deadline_s
        if deadline is not None and time.time() > deadline:
            raise JobTimeout(
                f"{self.job_id} exceeded its {self.timeout_s:.1f}s deadline"
            )

    # ------------------------------------------------------------------ #
    def mark_running(self) -> bool:
        """PENDING → RUNNING; False when already settled (cancelled)."""
        with self._lock:
            if self.state is not JobState.PENDING:
                return False
            self.state = JobState.RUNNING
            self.started_s = time.time()
            return True

    def settle(
        self,
        state: JobState,
        *,
        result: dict | None = None,
        error: str | None = None,
        warm_hit: bool = False,
    ) -> None:
        with self._lock:
            if self.state.terminal:
                return
            self.warm_hit = warm_hit
            self._settle(state, result=result, error=error)

    def _settle(self, state, *, result=None, error=None) -> None:
        self.state = state
        self.result = result
        self.error = error
        self.finished_s = time.time()
        self._done.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles; True if it did within ``timeout``."""
        return self._done.wait(timeout)

    def info(self) -> JobInfo:
        with self._lock:
            return JobInfo(
                job_id=self.job_id,
                kind=getattr(self.request, "kind", "?"),
                state=self.state.value,
                submitted_s=self.submitted_s,
                started_s=self.started_s,
                finished_s=self.finished_s,
                deadline_s=self.deadline_s,
                error=self.error,
                result=self.result,
                warm_hit=self.warm_hit,
            )


class JobQueue:
    """Bounded FIFO of pending jobs + registry of every job ever seen."""

    def __init__(self, maxsize: int = 64) -> None:
        self.maxsize = int(maxsize)
        self._queue: queue.Queue[Job | None] = queue.Queue(self.maxsize)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()

    def record(self, job: Job) -> None:
        """Register ``job`` without queueing it (a job settled at submit)."""
        with self._lock:
            self._jobs[job.job_id] = job

    def offer(self, job: Job) -> Job:
        """Enqueue or raise :class:`QueueFullError` (backpressure)."""
        self.record(job)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._lock:
                del self._jobs[job.job_id]
            raise QueueFullError(
                f"job queue full ({self.maxsize} pending)"
            ) from None
        return job

    def next(self, timeout: float | None = None) -> Job | None:
        """Dequeue the next job (None on timeout or wake-up sentinel)."""
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def drain(self) -> list[Job]:
        """Take every job still queued, in order (wake-up sentinels are
        dropped)."""
        out = []
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                return out
            if job is not None:
                out.append(job)

    def wake_all(self, n: int) -> None:
        """Unblock ``n`` waiting workers with shutdown sentinels."""
        for _ in range(n):
            try:
                self._queue.put_nowait(None)
            except queue.Full:  # workers will drain and exit anyway
                break

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every known job, submission order."""
        with self._lock:
            return list(self._jobs.values())

    @property
    def depth(self) -> int:
        """Jobs currently waiting in the queue."""
        return self._queue.qsize()
