"""Fork-shared parallel map over independent work items.

:func:`run_grid` fans out whole experiment cells; this is the lighter
primitive the §3.2 PLACE pipeline needs: map one function over a list of
small work items where every call reads the *same* large read-only object
(routing tables with two dense ``(n, n)`` matrices).  Shipping that object
through pickle once per task would dwarf the work, so it is published to a
module global before the pool starts and reaches the workers by ``fork``
inheritance — never serialized.  Platforms without ``fork`` (and pools of
one) degrade to the inline loop, which produces identical results.

Every call forks a fresh pool after the parent's last write and tears it
down before returning, so a worker can never serve a stale snapshot.
Shared state that long-lived children must see change belongs in
:mod:`repro.runtime.shm` segments, whose mappings are shared (not
copied) across the fork.

An optional :class:`~repro.runtime.cache.ArtifactCache` short-circuits
items whose artifact already exists; lookups and stores happen in the
parent so worker processes stay write-free.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence, TypeVar

__all__ = ["parallel_map"]

T = TypeVar("T")
R = TypeVar("R")

#: The read-only object shared with forked workers.  Set by the parent just
#: before the pool starts, inherited by fork, cleared afterwards.
_SHARED: object | None = None


def _call(fn: Callable[[Any, object], object], item: Any) -> object:
    return fn(item, _SHARED)


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def parallel_map(
    fn: Callable[[T, object], R],
    items: Sequence[T],
    *,
    workers: int | None = 0,
    shared: object = None,
    cache: Any = None,
    kind: str = "pmap",
    key_of: Callable[[T], tuple] | None = None,
    telemetry: Any = None,
) -> list[R]:
    """Map ``fn(item, shared)`` over ``items``, preserving item order.

    Parameters
    ----------
    fn:
        A module-level function (it crosses the process boundary by name).
        Called as ``fn(item, shared)``.
    workers:
        ``0`` or ``1`` runs inline; ``None`` auto-sizes to
        ``min(len(items), cpu_count)``; otherwise the worker process count.
        Parallel results are bit-identical to inline ones — the fold order
        is the item order either way.
    shared:
        Large read-only state reaching workers by fork inheritance, never
        pickled.  Mutations inside workers are invisible to the parent.
    cache, kind, key_of:
        With a cache and a ``key_of(item) -> key_parts`` function, each
        item's artifact is looked up under ``kind`` before any computation
        and stored after; only misses are dispatched to the pool.
    telemetry:
        Optional :class:`repro.obs.telemetry.Telemetry` for pool counters.
        When enabled, ``pmap.shipped_bytes`` accumulates the pickled size
        of everything submitted to the pool — the zero-copy perf guard's
        measured quantity.
    """
    from repro.obs.telemetry import ensure_telemetry

    tel = ensure_telemetry(telemetry)
    items = list(items)
    results: list = [None] * len(items)

    # Parent-side cache pass: hits fill in directly, misses go to the pool.
    miss_idx = list(range(len(items)))
    keys: dict[int, str] = {}
    if cache is not None and key_of is not None:
        miss_idx = []
        for i, item in enumerate(items):
            key = cache.key_of(kind, *key_of(item))
            found, value = cache.lookup(kind, key)
            if found:
                cache.stats._bump(kind, "hits")
                results[i] = value
            else:
                cache.stats._bump(kind, "misses")
                keys[i] = key
                miss_idx.append(i)

    if workers is None:
        workers = max(1, min(len(miss_idx), os.cpu_count() or 1))
    use_pool = workers > 1 and len(miss_idx) > 1 and _fork_available()
    tel.count("pmap.items", len(items))
    tel.count("pmap.computed", len(miss_idx))
    if not use_pool:
        for i in miss_idx:
            results[i] = fn(items[i], shared)
    else:
        tel.count("pmap.pool_items", len(miss_idx))
        tel.gauge("pmap.workers", workers)
        computed = _pool_map(
            fn, [items[i] for i in miss_idx], shared, workers, tel,
        )
        for i, value in zip(miss_idx, computed):
            results[i] = value

    if cache is not None and key_of is not None:
        for i in miss_idx:
            cache.store(kind, keys[i], results[i])
    return results


def _count_shipped(tel: Any, payload: tuple) -> None:
    """Accumulate the pickled size of one submitted task (telemetry on)."""
    if not tel.enabled:
        return
    import pickle

    tel.count("pmap.shipped_bytes", len(pickle.dumps(payload)))


def _pool_map(
    fn: Callable[[Any, object], object],
    miss_items: list,
    shared: object,
    workers: int,
    tel: Any,
) -> list:
    """Run the miss set on a forked pool; results in submission order."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _SHARED
    ctx = multiprocessing.get_context("fork")
    _SHARED = shared
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(miss_items)), mp_context=ctx
        ) as executor:
            futures = []
            for item in miss_items:
                futures.append(executor.submit(_call, fn, item))
                _count_shipped(tel, (fn, item))
            return [fut.result() for fut in futures]
    finally:
        _SHARED = None
