"""Operation counters for the emulation kernels.

:class:`KernelStats` carries two families of counters.  The *semantic*
counters (transfers, trains, packets) describe the virtual traffic and must
be identical across every engine — the reference heap kernel
(:mod:`repro.engine._reference`), the batched sequential kernel
(:mod:`repro.engine.kernel`) and its partition view
(:mod:`repro.engine.lp`); the differential parity suite compares them
bit-for-bit via :meth:`KernelStats.semantic`.

The *operation* counters describe how the drain that ran did the work
(:mod:`repro.engine.kernel` picks one per run): on the window drain, how
many conservative windows were advanced, how many events went through the
vectorized fast path versus the python loop (multi-event FIFO groups), and
how often a segment had to be cut for a control event or a delivery hook;
on the per-event drain every train event is a python-loop event and
``windows`` / ``segments`` / ``vector_events`` / ``window_merges`` stay 0.
The perf-guard test (``tests/engine/test_perf_guard.py``) asserts bounds on
these so the build fails if someone quietly reintroduces per-event python
dispatch on dense runs.  The reference kernel leaves them at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KernelStats"]


@dataclass
class KernelStats:
    """Aggregate counters accumulated during a run.

    Attributes
    ----------
    transfers_submitted, transfers_delivered, trains_forwarded,
    packets_delivered:
        Semantic traffic counters — engine-independent (see
        :meth:`semantic`).
    windows:
        Conservative lookahead windows advanced by the window drain.
    barriers:
        Barrier rounds that ran ``barrier_hooks`` (0 without hooks).
    segments:
        Vectorized dispatches — at least one per non-empty window, plus
        one per control-event or delivery-hook cut inside a window.
    vector_events:
        Train events processed entirely through the numpy fast path
        (deliveries, and forwards whose (link, direction) FIFO group was a
        singleton within the segment).
    python_loop_events:
        Train events executed one at a time in python: every train event
        of a per-event run, and on the window drain the multi-event FIFO
        groups (the busy-time recurrence is order-sensitive).
    control_events:
        Scheduled callbacks (traffic generators, delivery hooks) popped
        from the control heap.
    hook_cuts:
        Delivery hooks run (on the window drain, each one cuts its
        segment short before the remaining events can be batched).
    window_merges:
        Same-window event batches re-merged after a control event or hook
        injected new events into the window being processed.
    """

    transfers_submitted: int = 0
    transfers_delivered: int = 0
    trains_forwarded: int = 0
    packets_delivered: int = 0
    windows: int = 0
    barriers: int = 0
    segments: int = 0
    vector_events: int = 0
    python_loop_events: int = 0
    control_events: int = 0
    hook_cuts: int = 0
    window_merges: int = 0

    def semantic(self) -> tuple[int, int, int, int]:
        """The engine-independent counters, for differential comparison."""
        return (
            self.transfers_submitted,
            self.transfers_delivered,
            self.trains_forwarded,
            self.packets_delivered,
        )
