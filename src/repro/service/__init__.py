"""Mapping-as-a-service: a persistent concurrent front end.

The call-per-process pipeline pays full process startup, topology
construction and routing-table builds on every invocation.  This package
keeps one process alive and amortizes that state across requests — the
ROADMAP's "millions of users" story:

- :mod:`repro.service.requests` — the JSON wire schema (request /
  response dataclasses shared by server, client and CLI);
- :mod:`repro.service.jobs` — job lifecycle, the bounded backpressure
  queue, cooperative deadlines;
- :mod:`repro.service.warm` — warm in-memory caches (topologies,
  delta-derivable routing states, response memos) under an LRU byte
  budget, layered over the on-disk artifact cache;
- :mod:`repro.service.handlers` — one module-level handler per request
  kind (map / sweep / emulate / apply_changes);
- :mod:`repro.service.core` — the worker threads multiplexing jobs onto
  the shared warm state and grid executor;
- :mod:`repro.service.server` — the JSON-over-HTTP front end on the
  stdlib's threaded ``http.server``, with SSE telemetry streaming;
- :mod:`repro.service.client` — the blocking Python/CLI client.

Quickstart::

    from repro.service import MappingService, ServiceConfig, connect
    from repro.service.server import start_service_in_thread

    service, url, stop = start_service_in_thread(ServiceConfig(port=0))
    client = connect(url)
    info = client.submit({"kind": "map",
                          "topology": {"source": "synth",
                                       "n_routers": 200, "seed": 0},
                          "k": 4})
    info = client.wait(info.job_id)
    stop()

Or from the shell: ``massf serve``, ``massf submit``, ``massf jobs``.
"""

from repro.service.client import ServiceClient, ServiceError, connect
from repro.service.core import MappingService, ServiceConfig
from repro.service.jobs import (
    Job,
    JobQueue,
    JobState,
    QueueFullError,
)
from repro.service.requests import (
    ApplyChangesRequest,
    EmulateRequest,
    JobInfo,
    MapRequest,
    SweepRequest,
    parse_request,
)
from repro.service.server import serve, start_service_in_thread
from repro.service.warm import WarmCache

__all__ = [
    "MappingService",
    "ServiceConfig",
    "ServiceClient",
    "ServiceError",
    "connect",
    "serve",
    "start_service_in_thread",
    "WarmCache",
    "Job",
    "JobQueue",
    "JobState",
    "QueueFullError",
    "JobInfo",
    "MapRequest",
    "SweepRequest",
    "EmulateRequest",
    "ApplyChangesRequest",
    "parse_request",
]
