"""Fixture: dispatched workers are audited through their callees."""

from concurrent.futures import Executor

from repro.core import sink


def _worker(item, shared):
    return sink.record(item)


def run(executor: Executor, items):
    return executor.submit(_worker, items)
