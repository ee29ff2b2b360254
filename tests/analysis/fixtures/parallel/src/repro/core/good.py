"""Known-good fixture: module-level, read-only workers."""

from concurrent.futures import Executor

_TABLE = {"a": 1}
_SEEN = None


def _worker(item, shared):
    local = dict(shared)
    local[item] = _TABLE.get("a")
    return local


def _tally(item, shared):
    global _SEEN
    _SEEN = item  # massf: ignore[parallel-safety]
    return item


def run(executor: Executor, items):
    return executor.submit(_worker, items)


def run_tally(executor: Executor, items):
    return executor.submit(_tally, items)
