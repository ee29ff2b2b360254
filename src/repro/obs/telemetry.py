"""Structured runtime telemetry: spans, counters, gauges, event series.

The paper's thesis is that you cannot balance what you cannot measure
(PROFILE beats TOP/PLACE precisely because it feeds *measured* load back
into the partitioner).  This module applies the same idea to the harness
itself: a :class:`Telemetry` object threads through the pipeline —
partitioning, routing, the emulation kernel, mapping evaluation, the grid
executor and the sweep — and records

- **spans** — hierarchical wall-clock timers (``sweep/cell/routing``),
  aggregated per path (count / total / min / max);
- **counters** — monotonic totals (cache hits, retries, packets);
- **gauges** — last-written values (lookahead, queue depth);
- **events** — append-only rows per named series (grid-cell completions,
  rebalancer migrations);
- **timelines** — per-engine-node load matrices binned by virtual time,
  the raw data behind the paper's Figure 2/8 plots.

The default everywhere is :data:`NULL_TELEMETRY`, a disabled instance
whose methods return immediately — the instrumented hot paths cost one
attribute check when telemetry is off.  Everything recorded is plain
JSON-serializable data, so a snapshot pickles across process boundaries
(worker → parent merge in :mod:`repro.runtime.executor`) and exports to
JSON/CSV (:mod:`repro.obs.export`).
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "ensure_telemetry",
    "SCHEMA_VERSION",
]

#: Version stamp embedded in every exported snapshot.
SCHEMA_VERSION = 1


def _json_safe(value):
    """Recursively coerce numpy scalars/arrays into plain Python types."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


class _NullSpan:
    """Reusable no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span; aggregates into the owner on exit."""

    __slots__ = ("_tel", "_name", "_start")

    def __init__(self, tel: "Telemetry", name: str) -> None:
        self._tel = tel
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._tel._stack.append(self._name)
        self._start = self._tel._clock()
        return self

    def __exit__(self, *exc) -> bool:
        elapsed = self._tel._clock() - self._start
        stack = self._tel._stack
        path = "/".join(stack)
        if stack and stack[-1] == self._name:
            stack.pop()
        self._tel._record_span(path, elapsed)
        return False


class Telemetry:
    """Collector of spans, counters, gauges, event series and timelines.

    Parameters
    ----------
    enabled:
        ``False`` turns every method into a near-zero-cost no-op; the
        shared :data:`NULL_TELEMETRY` instance is the library-wide default.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = bool(enabled)
        self._clock = clock
        # path -> {"count", "total_s", "min_s", "max_s"}
        self.spans: dict[str, dict] = {}
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # series name -> list of row dicts
        self.series: dict[str, list[dict]] = {}
        # timeline name -> list of {"interval", "loads", **labels}
        self.timelines: dict[str, list[dict]] = {}
        self._stack: list[str] = []
        # live listeners: callables fed (series, row) on every event()
        self._listeners: list = []

    # ------------------------------------------------------------------ #
    # Recording API
    # ------------------------------------------------------------------ #
    def span(self, name: str):
        """Context manager timing one phase; nests via the active stack."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    def _record_span(self, path: str, elapsed: float) -> None:
        agg = self.spans.get(path)
        if agg is None:
            self.spans[path] = {
                "count": 1, "total_s": elapsed,
                "min_s": elapsed, "max_s": elapsed,
            }
        else:
            agg["count"] += 1
            agg["total_s"] += elapsed
            if elapsed < agg["min_s"]:
                agg["min_s"] = elapsed
            if elapsed > agg["max_s"]:
                agg["max_s"] = elapsed

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the monotonic counter ``name``."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest ``value``."""
        if not self.enabled:
            return
        self.gauges[name] = float(value)

    def event(self, series: str, **fields) -> None:
        """Append one row to the named event series."""
        if not self.enabled:
            return
        row = _json_safe(fields)
        self.series.setdefault(series, []).append(row)
        for listener in tuple(self._listeners):
            try:
                listener(series, row)
            except Exception:
                # A broken subscriber (e.g. a disconnected SSE client)
                # must never take the instrumented hot path down with it.
                pass

    def subscribe(self, listener) -> "Callable[[], None]":
        """Register ``listener(series, row)`` for every future event.

        Returns an unsubscribe callable.  Used by the service's SSE
        endpoint to stream progress rows live; listener exceptions are
        swallowed so a dead client cannot poison recording.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    def timeline(self, name: str, loads, interval: float, **labels) -> None:
        """Record a ``(k, n_bins)`` per-engine-node load matrix.

        ``interval`` is the virtual-time width of each bin; ``labels``
        identify the run (setup / seed / approach).  Multiple records under
        one name accumulate — merging across processes concatenates them.
        """
        if not self.enabled:
            return
        entry = {"interval": float(interval),
                 "loads": _json_safe(np.asarray(loads))}
        entry.update(_json_safe(labels))
        self.timelines.setdefault(name, []).append(entry)

    # ------------------------------------------------------------------ #
    # Aggregation / transport
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        # Listeners are process-local (SSE bridges, test probes) and not
        # generally picklable; a transported snapshot starts without them.
        state = dict(self.__dict__)
        state["_listeners"] = []
        return state

    def merge(self, other) -> None:
        """Fold another collector (or its :meth:`to_dict` snapshot) in.

        Spans aggregate (counts/totals add, min/max combine), counters add,
        gauges take the other side's latest value, series and timelines
        concatenate.  Used by the grid executor to absorb worker-process
        telemetry into the parent's collector.
        """
        if not self.enabled:
            return
        data = other.to_dict() if isinstance(other, Telemetry) else other
        if not data:
            return
        for path, agg in data.get("spans", {}).items():
            mine = self.spans.get(path)
            if mine is None:
                self.spans[path] = dict(agg)
            else:
                mine["count"] += agg["count"]
                mine["total_s"] += agg["total_s"]
                mine["min_s"] = min(mine["min_s"], agg["min_s"])
                mine["max_s"] = max(mine["max_s"], agg["max_s"])
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in data.get("gauges", {}).items():
            self.gauges[name] = value
        for name, rows in data.get("series", {}).items():
            self.series.setdefault(name, []).extend(rows)
        for name, entries in data.get("timelines", {}).items():
            self.timelines.setdefault(name, []).extend(entries)

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (the telemetry wire/export format)."""
        return {
            "schema": SCHEMA_VERSION,
            "spans": {path: dict(agg) for path, agg in self.spans.items()},
            "counters": _json_safe(dict(self.counters)),
            "gauges": _json_safe(dict(self.gauges)),
            "series": {name: list(rows) for name, rows in self.series.items()},
            "timelines": {
                name: list(entries)
                for name, entries in self.timelines.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Telemetry":
        """Rebuild a collector from a :meth:`to_dict` snapshot."""
        tel = cls(enabled=True)
        tel.merge(data)
        return tel

    # ------------------------------------------------------------------ #
    def span_paths(self) -> Iterator[str]:
        """Recorded span paths in sorted (tree pre-order) order."""
        return iter(sorted(self.spans))

    def __bool__(self) -> bool:
        return self.enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.enabled:
            return "<Telemetry disabled>"
        return (
            f"<Telemetry {len(self.spans)} spans, "
            f"{len(self.counters)} counters, "
            f"{sum(len(r) for r in self.series.values())} events>"
        )


#: The shared disabled collector used as the default everywhere.
NULL_TELEMETRY = Telemetry(enabled=False)


def ensure_telemetry(telemetry: "Telemetry | None") -> Telemetry:
    """Normalize an optional telemetry argument (``None`` → disabled)."""
    return telemetry if telemetry is not None else NULL_TELEMETRY
