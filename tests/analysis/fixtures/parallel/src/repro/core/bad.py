"""Known-bad fixture: unsafe callables crossing the fork boundary."""

from concurrent.futures import Executor

_CACHE = {}
_COUNT = 0


def _worker(item, shared):
    _CACHE[item] = shared
    return item


def _bump(item, shared):
    global _COUNT
    _COUNT = _COUNT + 1
    return item


def run_lambda(executor: Executor, items):
    return executor.submit(lambda item, shared: item, items)


def run_nested(executor: Executor, items):
    def inner(item, shared):
        return item
    return executor.submit(inner, items)


def run_cached(executor: Executor, items):
    return executor.submit(_worker, items)


def run_counted(executor: Executor, items):
    return executor.submit(_bump, items)
