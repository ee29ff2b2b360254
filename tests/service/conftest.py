"""Shared fixtures for the mapping-service tests.

Everything runs against tiny synthetic topologies (tens of routers) so
the whole suite stays in seconds; the scale claims live in the
``service-mix`` workload of ``bench/``.
"""

from __future__ import annotations

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
