"""A killed LP worker is a typed error, never a raw pipe exception.

SIGKILL one forked LP at a window barrier (no segment in flight, the
point where ``kernel.barrier_hooks`` run) and the parent must raise
:class:`~repro.engine.lp.LPWorkerError` naming that LP — promptly, with
no child process left behind — whether the next thing the parent sends
is a segment or a mid-run routing repair (the ``"ctx"`` command).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.engine.kernel import run_kernel
from repro.engine.lp import LPWorkerError, ParallelEmulationKernel
from repro.experiments.workloads import SyntheticTransfers
from repro.routing.delta import SetLinkCost
from repro.routing.spf import build_routing
from repro.topology.synth import synth_network

VICTIM = 1


def _scenario():
    net = synth_network(n_routers=60, seed=9)
    tables = build_routing(net)
    wl = SyntheticTransfers(
        n_flows=120, duration=1.5, min_bytes=2_000, max_bytes=80_000,
    )
    wl.prepare(net, np.random.default_rng(21))
    parts = np.zeros(net.n_nodes, dtype=np.int64)
    parts[net.n_nodes // 2:] = 1
    return net, tables, wl, parts


def _kill_victim_once(kernel):
    """Barrier hook: SIGKILL the victim LP at the first barrier."""
    def hook(now: float) -> None:
        proc = kernel._procs[VICTIM]
        if proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=5)
    return hook


class _KillingWorkload:
    """Wraps a workload; installing it also arms the kill hook (the only
    way to reach the kernel that :func:`run_kernel` builds itself) —
    ahead of the link-change hook ``run_kernel`` installed first, so at
    the first barrier the worker dies and *then* the change fires."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.duration = inner.duration
        self.kernel = None

    def install(self, kernel, rng) -> None:
        self.kernel = kernel
        kernel.barrier_hooks.insert(0, _kill_victim_once(kernel))
        self.inner.install(kernel, rng)


def test_killed_worker_raises_typed_error_and_close_reaps():
    net, tables, wl, parts = _scenario()
    kernel = ParallelEmulationKernel(
        net, tables, parts=parts, processes=True, train_packets=4,
    )
    if kernel._procs is None:
        pytest.skip("no fork on this platform")
    procs = list(kernel._procs)
    try:
        kernel.barrier_hooks.append(_kill_victim_once(kernel))
        wl.install(kernel, np.random.default_rng(21))
        started = time.monotonic()
        with pytest.raises(LPWorkerError) as err:
            kernel.run(until=wl.duration)
        assert time.monotonic() - started < 5.0
    finally:
        kernel.close()
    assert err.value.lp == VICTIM
    assert err.value.exitcode == -signal.SIGKILL
    assert f"LP {VICTIM}" in str(err.value)
    assert not any(proc.is_alive() for proc in procs)
    assert not multiprocessing.active_children()


def test_dead_worker_surfaces_from_context_sync_and_leaves_no_child(
    monkeypatch,
):
    net, tables, wl, parts = _scenario()
    link = net.links[5]
    schedule = [(0.0, SetLinkCost(5, latency_s=link.latency_s * 2))]
    killing = _KillingWorkload(wl)
    # Segments must not be what notices the death: any sent after the
    # kill fails the test instead of raising LPWorkerError.
    sent_after_kill = []
    real_send = ParallelEmulationKernel._send

    def send(self, lp, message):
        if not self._procs[VICTIM].is_alive():
            sent_after_kill.append(message[0])
        real_send(self, lp, message)

    monkeypatch.setattr(ParallelEmulationKernel, "_send", send)
    with pytest.raises(LPWorkerError) as err:
        run_kernel(
            net, tables, killing, seed=21, train_packets=4,
            engine="parallel", parts=parts, processes=True,
            link_changes=schedule,
        )
    assert err.value.lp == VICTIM
    assert sent_after_kill and set(sent_after_kill) == {"ctx"}
    assert killing.kernel._procs is None  # closed by run_kernel
    assert not multiprocessing.active_children()
