"""Known-bad fixture: blocking calls reachable from service coroutines."""

import subprocess
import time

from concurrent.futures import Executor


def _expensive(item, shared):
    return item


def run_batch(executor: Executor, items):
    return executor.submit(_expensive, items)


async def handle_tick(request):
    time.sleep(0.1)
    return request


async def handle_run(request):
    subprocess.run(["true"])
    run_batch(request.executor, [1, 2])
    return request


async def handle_read(path):
    with open(path) as handle:
        return handle.read()
