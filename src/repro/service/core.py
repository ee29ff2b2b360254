"""The mapping service core: worker threads draining the bounded queue.

:class:`MappingService` owns the shared state every job multiplexes
onto — the warm cache (:mod:`repro.service.warm`), the on-disk artifact
cache and the service telemetry — plus a fixed set of worker threads
(started via the module-level :func:`_worker_loop`).

Submission probes the response memo first: an exact canonical repeat
of a request already answered is settled there and then, as a warm hit
bit-identical to the original (it *is* the original), and never enters
the queue.  Every other job runs on a worker:

1. ``PENDING → RUNNING`` (a job cancelled while pending is skipped);
2. a second memo probe — a repeat queued behind its own original
   settles here as a warm hit;
3. the registered handler runs, calling the job's cooperative
   checkpoints (cancellation and deadline) between pipeline phases;
4. only a **fully successful** result is memoized into warm state —
   failed, timed-out and cancelled jobs settle without touching it;
5. the job's telemetry merges into the service collector under a lock
   (the collector's span stack is not thread-safe, so jobs record on
   private collectors and merge snapshots).

:meth:`MappingService.stop` settles every job still queued as
``CANCELLED`` ("service stopped"); a running job runs on to its end.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from repro.obs.telemetry import Telemetry
from repro.runtime.cache import ArtifactCache, resolve_cache
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobQueue,
    JobState,
    JobTimeout,
)
from repro.service.warm import DEFAULT_BUDGET_BYTES, WarmCache

__all__ = ["ServiceConfig", "MappingService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (the ``massf serve`` flag surface)."""

    workers: int = 2                 # job worker threads
    queue_size: int = 64             # bounded queue capacity (backpressure)
    default_timeout_s: float | None = None   # per-job soft deadline
    budget_bytes: int = DEFAULT_BUDGET_BYTES  # warm-cache memory budget
    max_delta_changes: int = 64      # delta-derivation ceiling
    cache: object = None             # disk cache spec (resolve_cache)
    host: str = "127.0.0.1"
    port: int = 8351

    def __post_init__(self) -> None:
        # queue.Queue(0) is unbounded and a nan deadline never expires:
        # both would silently void the promise the knob makes.
        for name in ("workers", "queue_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("budget_bytes", "max_delta_changes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        timeout = self.default_timeout_s
        if timeout is not None and not (math.isfinite(timeout)
                                        and timeout >= 0):
            raise ValueError(
                f"default_timeout_s must be None or a finite number >= 0, "
                f"not {timeout!r}"
            )


def _worker_loop(service: "MappingService", generation: object) -> None:
    """Drain the queue while ``generation`` is the service's running one
    (thread target).  A job taken as the service stopped is settled as
    :meth:`MappingService.stop` settles queued ones; one taken after a
    restart still runs."""
    while service._live is generation:
        job = service.queue.next(timeout=0.2)
        if job is None:
            continue
        if service._live is None:
            service._settle_unstarted(job)
        else:
            service._run_job(job)


@dataclass
class _ServiceCounters:
    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    warm_hits: int = 0
    rejected: int = 0
    latencies_s: list = field(default_factory=list)


class MappingService:
    """Shared-state job executor behind the HTTP front end."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.disk = resolve_cache(self.config.cache)
        if self.disk is not None and self.disk is not self.config.cache:
            # A disk tier the service builds itself gets no in-process
            # dict: the warm LRU is the memory tier, and an unbounded
            # copy of every routing table beside it defeats its budget.
            self.disk = ArtifactCache(self.disk.root, memory=False)
        self.warm = WarmCache(
            budget_bytes=self.config.budget_bytes,
            disk=self.disk,
            max_delta_changes=self.config.max_delta_changes,
            telemetry=self.telemetry,
        )
        self.queue = JobQueue(self.config.queue_size)
        self.counters = _ServiceCounters()
        self.started_s = time.time()
        # Every start() opens a generation (a fresh token); its workers
        # exit once it is no longer ``_live`` (None while stopped).
        # Workers of a stopped generation still finishing a job are kept
        # in ``_lingering``.
        self._live: object | None = None
        self._threads: list[threading.Thread] = []
        self._lingering: list[threading.Thread] = []
        self._lock = threading.Lock()   # telemetry merge + counters

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "MappingService":
        if self._live is not None:
            return self
        self._live = generation = object()
        for i in range(self.config.workers):
            thread = threading.Thread(
                target=_worker_loop, args=(self, generation),
                name=f"massf-worker-{i}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the workers.  A job still queued settles ``CANCELLED``
        with the error ``"service stopped"``, so no waiter is left
        hanging; a running job runs on to its end, and a worker whose
        join timed out is reported by :meth:`status` until it exits."""
        self._live = None
        for job in self.queue.drain():
            self._settle_unstarted(job)
        self.queue.wake_all(len(self._threads))
        for thread in self._threads:
            thread.join(timeout)
        self._lingering = [thread for thread in
                           self._lingering + self._threads
                           if thread.is_alive()]
        self._threads = []

    def __enter__(self) -> "MappingService":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------ #
    # Submission / inspection
    # ------------------------------------------------------------------ #
    def submit(self, request, timeout_s: float | None = None) -> Job:
        """Answer an exact repeat from the response memo, settled, or
        enqueue the request; raises
        :class:`~repro.service.jobs.QueueFullError` when the queue is at
        capacity (the HTTP layer maps it to 429)."""
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        job = Job.create(request, timeout_s=timeout_s)
        started = time.perf_counter()
        try:
            canon = request.canonical()
        except TypeError:  # not canonical: the worker fails the job
            canon = None
        hit = canon is not None and self._settle_from_memo(job, canon)
        if hit:
            self.queue.record(job)
        else:
            try:
                self.queue.offer(job)
            except Exception:
                with self._lock:
                    self.counters.rejected += 1
                raise
        with self._lock:
            self.counters.submitted += 1
        self.telemetry.gauge("service.queue_depth", self.queue.depth)
        self.telemetry.event(
            "service.jobs", job=job.job_id, state="submitted",
            kind=job.request.kind,
        )
        if hit:
            self._finish(job, time.perf_counter() - started)
        return job

    def job(self, job_id: str) -> Job | None:
        return self.queue.get(job_id)

    def cancel(self, job_id: str) -> bool:
        job = self.queue.get(job_id)
        if job is None:
            return False
        live = job.cancel()
        if live:
            self.telemetry.event(
                "service.jobs", job=job.job_id, state="cancel-requested",
            )
        return live

    def status(self) -> dict:
        with self._lock:
            latencies = sorted(self.counters.latencies_s)
            counters = {
                "submitted": self.counters.submitted,
                "done": self.counters.done,
                "failed": self.counters.failed,
                "cancelled": self.counters.cancelled,
                "warm_hits": self.counters.warm_hits,
                "rejected": self.counters.rejected,
            }
        def _pct(q: float) -> float:
            if not latencies:
                return 0.0
            idx = min(len(latencies) - 1, int(q * len(latencies)))
            return latencies[idx]
        return {
            "uptime_s": time.time() - self.started_s,
            "workers": len(self._threads),
            "lingering_workers": sum(
                thread.is_alive() for thread in self._lingering),
            "queue_depth": self.queue.depth,
            "queue_size": self.queue.maxsize,
            "jobs": counters,
            "latency_p50_s": _pct(0.50),
            "latency_p95_s": _pct(0.95),
            "warm": self.warm.stats.to_dict(),
            "warm_nbytes": self.warm.nbytes,
            "disk": (
                {
                    "hits": self.disk.stats.hits,
                    "misses": self.disk.stats.misses,
                    "stores": self.disk.stats.stores,
                }
                if self.disk is not None else None
            ),
        }

    # ------------------------------------------------------------------ #
    # Execution (worker threads)
    # ------------------------------------------------------------------ #
    def _settle_from_memo(
        self, job: Job, canon: tuple, *, count_miss: bool = True
    ) -> bool:
        """Settle ``job`` from the response memo; True on a hit."""
        found, memo = self.warm.memo_get(canon, count_miss=count_miss)
        if found:
            job.mark_running()  # no-op for a job a worker has started
            job.settle(JobState.DONE, result=memo, warm_hit=True)
        return found

    def _run_job(self, job: Job) -> None:
        from repro.service.handlers import handler_for

        if not job.mark_running():
            self._settle_unstarted(job)  # cancelled while pending
            return
        self.telemetry.gauge("service.queue_depth", self.queue.depth)
        started = time.perf_counter()
        try:
            canon = job.request.canonical()
            # Its miss was counted at submit.
            if not self._settle_from_memo(job, canon, count_miss=False):
                handler = handler_for(job.request.kind)
                if handler is None:
                    raise ValueError(
                        f"no handler for kind {job.request.kind!r}"
                    )
                result = handler(self, job, job.request)
                job.checkpoint()  # last look before publishing
                self.warm.memo_put(canon, result)
                job.settle(JobState.DONE, result=result)
        except JobCancelled:
            job.settle(JobState.CANCELLED, error="cancelled")
        except JobTimeout as exc:
            job.settle(JobState.FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — jobs never kill workers
            job.settle(
                JobState.FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        self._finish(job, time.perf_counter() - started)

    def _finish(self, job: Job, elapsed: float) -> None:
        """Count a settled job, merge its telemetry and publish it."""
        with self._lock:
            if job.state is JobState.DONE:
                self.counters.done += 1
                if job.warm_hit:
                    self.counters.warm_hits += 1
            elif job.state is JobState.CANCELLED:
                self.counters.cancelled += 1
            else:
                self.counters.failed += 1
            self.counters.latencies_s.append(elapsed)
            # Merge the job's private collector (span stacks are not
            # thread-safe; snapshots merge safely under the lock).
            self.telemetry.merge(job.telemetry.to_dict())
        self._publish(job)

    def _settle_unstarted(self, job: Job) -> None:
        """Settle a job no worker will start (one cancelled while
        pending is already settled) and count it cancelled."""
        job.settle(JobState.CANCELLED, error="service stopped")
        with self._lock:
            self.counters.cancelled += 1
        self._publish(job)

    def _publish(self, job: Job) -> None:
        self.telemetry.event(
            "service.jobs", job=job.job_id, state=job.state.value,
            kind=job.request.kind, warm_hit=job.warm_hit,
            error=job.error,
        )
