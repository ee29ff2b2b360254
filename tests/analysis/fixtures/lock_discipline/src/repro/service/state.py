"""Known-bad fixture: guarded state touched outside its lock."""

import threading

from concurrent.futures import Executor

_LOCK = threading.Lock()
_STATS = {}

_GUARDED_BY = {"_STATS": "_LOCK"}


def record(key, value):
    _STATS[key] = value


def dispatch_locked(executor: Executor, fn, items):
    with _LOCK:
        return executor.submit(fn, items)


class Counter:
    _GUARDED_BY = {"_total": "_lock"}

    def __init__(self):
        self._lock = threading.Lock()
        self._total = 0

    def bump(self, amount):
        self._total += amount

    async def flush(self, sink):
        with self._lock:
            await sink.send(self._total)
