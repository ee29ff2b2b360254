"""Known-bad fixture: shm lifecycle violations."""

import pickle

from concurrent.futures import Executor
from repro.runtime.shm import ShmArena, attach


def close_with_live_view(spec):
    arena = ShmArena(spec)
    view = arena.array("dist")
    total = float(view.sum())
    arena.close()
    return total


def ship_object(spec):
    arena = ShmArena(spec)
    return pickle.dumps(arena)


def _attach_worker(handle, shared):
    arena = attach(handle)
    return arena


def run(executor: Executor, handles):
    return executor.submit(_attach_worker, handles)
