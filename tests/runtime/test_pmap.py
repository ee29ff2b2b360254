"""Tests for the fork-shared parallel map (repro.runtime.pmap)."""

import numpy as np
import pytest

from repro.runtime.cache import ArtifactCache
from repro.runtime.pmap import parallel_map


def _square_plus_shared(item, shared):
    offset = 0 if shared is None else shared["offset"]
    return item * item + offset


def _shared_array_sum(item, shared):
    lo, hi = item
    return float(shared[lo:hi].sum())


def test_inline_map_preserves_order():
    out = parallel_map(_square_plus_shared, [3, 1, 2], workers=0)
    assert out == [9, 1, 4]


def test_inline_shared_object():
    out = parallel_map(
        _square_plus_shared, [1, 2], workers=0, shared={"offset": 10}
    )
    assert out == [11, 14]


def test_pool_matches_inline():
    items = [(i, i + 3) for i in range(20)]
    big = np.arange(100, dtype=np.float64)
    inline = parallel_map(_shared_array_sum, items, workers=0, shared=big)
    pooled = parallel_map(_shared_array_sum, items, workers=2, shared=big)
    assert pooled == inline


def test_single_item_runs_inline_even_with_workers():
    # One miss never pays pool startup; result is identical either way.
    out = parallel_map(_square_plus_shared, [5], workers=4)
    assert out == [25]


def test_cache_short_circuits_second_run(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key_of = lambda item: ("sq", item)  # noqa: E731
    first = parallel_map(
        _square_plus_shared, [2, 3], cache=cache, kind="t", key_of=key_of
    )
    assert cache.stats.misses == 2 and cache.stats.hits == 0
    second = parallel_map(
        _square_plus_shared, [2, 3, 4], cache=cache, kind="t", key_of=key_of
    )
    assert second == [4, 9, 16] and first == [4, 9, 16][:2]
    assert cache.stats.hits == 2 and cache.stats.misses == 3


def test_cache_kind_is_isolated(tmp_path):
    cache = ArtifactCache(tmp_path / "c")
    key_of = lambda item: (item,)  # noqa: E731
    parallel_map(_square_plus_shared, [7], cache=cache, kind="a",
                 key_of=key_of)
    parallel_map(_square_plus_shared, [7], cache=cache, kind="b",
                 key_of=key_of)
    assert cache.stats.by_kind["a"]["misses"] == 1
    assert cache.stats.by_kind["b"]["misses"] == 1


def _boom(item, shared):
    raise RuntimeError(f"boom {item}")


def test_worker_exception_propagates():
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_boom, [1, 2], workers=0)
    with pytest.raises(RuntimeError, match="boom"):
        parallel_map(_boom, [1, 2], workers=2)


def test_telemetry_counters():
    from repro.obs.telemetry import Telemetry

    tel = Telemetry()
    parallel_map(_square_plus_shared, [1, 2, 3], workers=0, telemetry=tel)
    counters = tel.to_dict()["counters"]
    assert counters["pmap.items"] == 3
    assert counters["pmap.computed"] == 3


def _shared_row(item, shared):
    return float(shared[item])


def test_per_call_pool_sees_parent_mutation():
    """Every call forks after the parent's last write, so a pooled call
    after an in-place mutation of the shared object never serves
    pre-change rows."""
    costs = np.arange(8, dtype=np.float64)
    items = list(range(8))
    first = parallel_map(_shared_row, items, shared=costs, workers=2)
    assert first == [float(i) for i in range(8)]
    costs *= 10.0
    second = parallel_map(_shared_row, items, shared=costs, workers=2)
    assert second == [float(i * 10) for i in range(8)]
