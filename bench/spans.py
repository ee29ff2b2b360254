"""Benchmark-side spans: time the package's layers from outside.

Nothing under ``src/`` is instrumented.  A traced run wraps the public
functions of each layer (module attributes and public methods, swapped
for the duration of the traced passes and restored afterwards) so every
call into a layer opens a span here: name, start, end, parent, pass id.
Spans stay in memory and are written once, when the run ends.

A span's name is ``<layer>.<call>``; the layer is ``src/repro/<layer>``
(``bench`` for the driver's own glue).  Inclusive time is ``end -
start``; self time subtracts the children, which are the spans a thread
opened while this one was its innermost.  Each thread keeps its own
stack, so the service's worker threads grow their own trees and never
subtract from the driver's.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Span and counter log of one run; a disabled one records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.pass_id: object = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        record = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "pass": self.pass_id,
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter of the current pass (traced runs only)."""
        if self.enabled:
            with self._lock:
                self.counters[self.pass_id][name] += value

    # -------------------------------------------------------------- #
    def inclusive(self, pass_id) -> dict[str, float]:
        """Span name -> summed ``end - start`` within one pass."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["pass"] == pass_id and "end" in s:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def self_times(self, pass_id) -> dict[str, dict[str, float]]:
        """``{"driver": {layer: s}, "threads": {layer: s}}`` for a pass.

        ``driver`` is the main thread's tree, whose self times add up to
        the pass wall; ``threads`` is everything other threads recorded
        (it overlaps the driver's waiting, so it is reported apart).
        """
        spans = [s for s in self.spans if s["pass"] == pass_id and "end" in s]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = {"driver": defaultdict(float), "threads": defaultdict(float)}
        for s in spans:
            side = "driver" if s["thread"] == "MainThread" else "threads"
            layer = s["name"].split(".", 1)[0]
            out[side][layer] += s["end"] - s["start"] - child_time[s["id"]]
        return {side: dict(v) for side, v in out.items()}


def _after_synth(rec, result, args, kwargs):
    rec.count("topology.nodes", result.n_nodes)
    rec.count("topology.links", result.n_links)


def _after_build_routing(rec, result, args, kwargs):
    rec.count("routing.tables_bytes",
              result.dist.nbytes + result.next_hop.nbytes)


def _after_part_graph(rec, result, args, kwargs):
    rec.count("partition.calls")
    rec.count("partition.weighted_cut", float(result.weighted_cut))
    # Max over the pass, not a sum: keep the largest seen so far.
    with rec._lock:
        per = rec.counters[rec.pass_id]
        per["partition.max_imbalance"] = max(
            per["partition.max_imbalance"], float(result.max_imbalance)
        )


def _after_map_place(rec, result, args, kwargs):
    rec.count("core.place_routes", result.diagnostics.get("n_routes", 0))


def _after_map_profile(rec, result, args, kwargs):
    rec.count("core.profile_segments", result.diagnostics.get("n_segments", 0))


def _after_derive(rec, result, args, kwargs):
    if result is not None:
        rec.count("routing.delta_touched_sources", len(result[1]))


def _after_kernel_run(rec, result, args, kwargs):
    kernel = args[0]
    if getattr(kernel, "rebalancer", None) is not None:
        return  # rebalanced runs are accounted from their MigrationLog
    sequential = type(kernel).__name__ == "EmulationKernel"
    prefix = "engine.seq_" if sequential else "engine.lp_"
    stats = kernel.stats
    rec.count(prefix + "events", result.n_events)
    rec.count(prefix + "windows", stats.windows)
    if sequential:
        rec.count("engine.seq_vector_events", stats.vector_events)
        rec.count("engine.seq_python_loop_events", stats.python_loop_events)
        rec.count("traffic.transfers_submitted", stats.transfers_submitted)


#: (module, attribute path, span name, after-call hook).  A name that
#: other modules bound with ``from x import y`` is listed once per
#: binding, because swapping the defining module alone would miss them.
PATCHES = [
    ("repro.topology.synth", "synth_network", "topology.synth", _after_synth),
    ("repro.routing.spf", "build_routing", "routing.build",
     _after_build_routing),
    ("repro.routing.delta", "update_routing", "routing.delta", None),
    ("repro.routing.delta", "derive_routing", "routing.derive", _after_derive),
    ("repro.partition.api", "part_graph", "partition.part_graph",
     _after_part_graph),
    ("repro.core.mapper", "part_graph", "partition.part_graph",
     _after_part_graph),
    ("repro.core.multi_objective", "part_graph", "partition.part_graph",
     _after_part_graph),
    ("repro.core.mapper", "build_place_inputs", "core.place_inputs", None),
    ("repro.core.mapper", "Mapper.map_top", "core.map_top", None),
    ("repro.core.mapper", "Mapper.map_place", "core.map_place",
     _after_map_place),
    ("repro.core.mapper", "Mapper.map_profile", "core.map_profile",
     _after_map_profile),
    ("repro.engine.kernel", "EmulationKernel.run", "engine.kernel_run",
     _after_kernel_run),
    ("repro.engine.parallel", "evaluate_mapping", "engine.evaluate_mapping",
     None),
]


def _wrap(rec: Recorder, fn, span_name: str, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with rec.span(span_name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(rec, result, args, kwargs)
        return result

    return traced


@contextmanager
def patched(rec: Recorder):
    """Swap every :data:`PATCHES` entry for a span-recording wrapper."""
    undo = []
    # part_graph is bound in three namespaces; wrap the one function once
    # so a call through any binding opens exactly one span.
    wrappers: dict[int, object] = {}
    # Import everything before swapping anything: a module imported after
    # a swap would bind the wrapper with its ``from x import y``.
    modules = {m: importlib.import_module(m) for m, *_ in PATCHES}
    try:
        for module_name, path, span_name, after in PATCHES:
            owner = modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = _wrap(rec, original, span_name, after)
            undo.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
