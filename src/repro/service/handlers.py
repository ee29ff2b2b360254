"""Request handlers: one module-level callable per job kind.

Handlers are registered in a module-level registry via
:func:`register_handler` — the same discipline the parallel runtime
imposes on pooled callables (module-level, no global mutation), because
service workers run them concurrently in threads against shared warm
state.

Every handler has the signature ``handler(service, job, request) ->
dict`` where the returned dict is the JSON result body.  Handlers must:

- call ``job.checkpoint()`` between pipeline phases (prompt cancellation
  / deadline enforcement),
- reach shared state **only** through ``service.warm`` / ``service.disk``
  (never mutate a warm object: warm networks and routing states are
  shared across concurrent jobs),
- record phase timings on ``job.telemetry`` (merged into the service
  collector after the job settles).

Results include content checksums (:func:`repro.runtime.stable_hash`
over the produced arrays) so clients — and the parity tests — can verify
warm-served responses are bit-identical to cold runs.
"""

from __future__ import annotations

import threading
from dataclasses import asdict

__all__ = [
    "register_handler",
    "handler_for",
    "handle_map",
    "handle_sweep",
    "handle_emulate",
    "handle_apply_changes",
]

_HANDLERS: dict[str, object] = {}
#: Registration normally happens at import time, but plugins/tests may
#: register from any thread while workers are already resolving
#: handlers, so the registry is only written under this lock.
_REGISTRY_LOCK = threading.Lock()


def register_handler(kind: str, fn) -> None:
    """Register the handler for one request kind (module import time)."""
    with _REGISTRY_LOCK:
        _HANDLERS[str(kind)] = fn


def handler_for(kind: str):
    """The registered handler, or ``None``."""
    with _REGISTRY_LOCK:
        return _HANDLERS.get(str(kind))


def _spec_with_changes(topology: dict, changes: list) -> dict:
    """Fold request changes into the topology spec (its cache identity)."""
    spec = dict(topology or {})
    if changes:
        spec = {**spec, "changes": list(changes)}
    return spec


def _workload_for(net, request, seed: int = 0):
    from repro.experiments.workloads import build_workload

    kwargs = {}
    if getattr(request, "duration", None) is not None:
        kwargs["duration"] = float(request.duration)
    return build_workload(
        net, app_name=request.app, intensity=request.intensity,
        seed=seed, **kwargs,
    )


def handle_map(service, job, request) -> dict:
    """Topology → routing → one TOP/PLACE/PROFILE mapping."""
    from repro.api import build_mapping
    from repro.obs.telemetry import _json_safe
    from repro.runtime.fingerprint import stable_hash

    tel = job.telemetry
    with tel.span("job/map"):
        net = service.warm.topology(
            _spec_with_changes(request.topology, request.changes)
        )
        job.checkpoint()
        state = service.warm.routing(net)
        job.checkpoint()
        workload = None
        if request.approach in ("place", "profile"):
            workload = _workload_for(net, request, seed=request.seed)
        mapping = build_mapping(
            net, request.k, request.approach, workload=workload,
            tables=state.tables, seed=request.seed, cache=service.disk,
        )
        job.checkpoint()
    return {
        "approach": mapping.approach,
        "k": int(mapping.k),
        "n_nodes": int(net.n_nodes),
        "parts": [int(p) for p in mapping.parts],
        "weighted_cut": float(mapping.partition.weighted_cut),
        "parts_checksum": stable_hash(mapping.parts),
        "diagnostics": _json_safe(dict(mapping.diagnostics)),
    }


def handle_sweep(service, job, request) -> dict:
    """Seed sweep of the full pipeline, multiplexed on the grid executor."""
    from repro.api import sweep

    tel = job.telemetry
    with tel.span("job/sweep"):
        net = service.warm.topology(request.topology)
        job.checkpoint()
        # Warm the routing layer so repeated sweeps share tables; the
        # sweep itself re-reads them through the disk cache.
        service.warm.routing(net)
        job.checkpoint()
        result = sweep(
            net,
            seeds=tuple(int(s) for s in request.seeds),
            app=request.app,
            k=int(request.k),
            approaches=tuple(request.approaches),
            intensity=request.intensity,
            duration=request.duration,
            workers=int(request.workers),
            cache=service.disk,
            telemetry=tel,
        )
        job.checkpoint()
    return {
        "setup": result.setup_name,
        "seeds": [int(s) for s in result.seeds],
        "imbalance": {k: asdict(v) for k, v in result.imbalance.items()},
        "app_time": {k: asdict(v) for k, v in result.app_time.items()},
        "network_time": {
            k: asdict(v) for k, v in result.network_time.items()
        },
    }


def handle_emulate(service, job, request) -> dict:
    """One emulation run; returns summary stats + a trace checksum."""
    from repro.api import emulate
    from repro.runtime.fingerprint import stable_hash

    tel = job.telemetry
    with tel.span("job/emulate"):
        net = service.warm.topology(request.topology)
        job.checkpoint()
        state = service.warm.routing(net)
        job.checkpoint()
        workload = _workload_for(net, request, seed=request.seed)
        result = emulate(
            net, tables=state.tables, workload=workload,
            engine=request.engine, k=request.k, seed=request.seed,
            train_packets=int(request.train_packets),
            telemetry=tel, cache=service.disk,
        )
        job.checkpoint()
    trace = result.trace
    return {
        "engine": result.engine,
        "n_events": int(trace.n_events),
        "wall_s": float(result.wall_s),
        "events_per_second": float(result.events_per_second),
        "trace_checksum": stable_hash(
            trace.time, trace.node, trace.next_node
        ),
    }


def handle_apply_changes(service, job, request) -> dict:
    """Routing for a changed topology, served through the delta engine.

    The base topology's warm network is **not** mutated: the changed
    network is built as its own warm entry (spec + canonical changes)
    and its routing is delta-derived from the warm base state when the
    change set is small — bit-identical to a cold rebuild.
    """
    from repro.runtime.fingerprint import stable_hash

    tel = job.telemetry
    with tel.span("job/apply_changes"):
        base = service.warm.topology(request.topology)
        service.warm.routing(base)  # ensure a delta-derivation anchor
        job.checkpoint()
        derives_before = service.warm.stats.delta_derives
        changed = service.warm.topology(
            _spec_with_changes(request.topology, request.changes)
        )
        state = service.warm.routing(changed)
        job.checkpoint()
    return {
        "n_nodes": int(changed.n_nodes),
        "n_changes": len(request.changes or ()),
        "delta_derived": service.warm.stats.delta_derives > derives_before,
        "dist_checksum": stable_hash(state.tables.dist),
        "next_hop_checksum": stable_hash(state.tables.next_hop),
    }


register_handler("map", handle_map)
register_handler("sweep", handle_sweep)
register_handler("emulate", handle_emulate)
register_handler("apply_changes", handle_apply_changes)
