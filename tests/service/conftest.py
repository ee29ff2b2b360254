"""Shared fixtures for the mapping-service tests.

Everything runs against tiny synthetic topologies (tens of routers) so
the whole suite stays in seconds; the scale claims live in the
``service-mix`` workload of ``bench/``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.service import MappingService, ServiceConfig

TOPO = {"source": "synth", "n_routers": 24, "seed": 0}

MAP_REQUEST = {"kind": "map", "topology": TOPO, "k": 4, "approach": "top"}

SWEEP_REQUEST = {
    "kind": "sweep", "topology": TOPO, "seeds": [1], "k": 4,
    "approaches": ["top"], "app": "none", "intensity": "light",
    "duration": 1.0,
}


@pytest.fixture
def service(tmp_path):
    """A started two-worker service over a private disk cache."""
    config = ServiceConfig(workers=2, cache=str(tmp_path / "cache"))
    with MappingService(config) as svc:
        yield svc


def run(svc: MappingService, request: dict, timeout: float = 60.0):
    """Submit one request document and wait for the settled job."""
    from repro.service import parse_request

    job = svc.submit(parse_request(dict(request)))
    assert job.wait(timeout), f"{job.job_id} did not settle in {timeout}s"
    return job


@pytest.fixture
def hold_map(monkeypatch):
    """``hold()`` makes every later ``map`` job block until the event it
    returns is set (teardown sets it), then run as usual."""
    from repro.service import handlers

    real = handlers.handler_for("map")
    releases: list[threading.Event] = []

    def hold() -> threading.Event:
        release = threading.Event()
        releases.append(release)

        def held(service, job, request):
            release.wait(30.0)
            return real(service, job, request)

        monkeypatch.setitem(handlers._HANDLERS, "map", held)
        return release

    yield hold
    for release in releases:
        release.set()


def wait_running(*jobs, timeout: float = 10.0) -> None:
    """Return once every job has left ``PENDING``."""
    from repro.service.jobs import JobState

    deadline = time.monotonic() + timeout
    while any(job.state is JobState.PENDING for job in jobs):
        assert time.monotonic() < deadline, "a job never started"
        time.sleep(0.005)
