"""Conservative-window synchronization math for the batched engines.

The batched kernels advance virtual time in windows of length equal to the
*lookahead* — here the minimum one-way latency over **all** links, since
within one engine process every link is a channel.  A train event executed
at time ``t`` schedules its successor at ``depart + latency > t +
lookahead``, so all events of one window can be processed as a batch: no
event generated inside the window can precede any event already in it.
(:func:`repro.engine.parallel.lookahead_of` computes the *cut-link*
lookahead the analytic wall-clock model uses; the execution engines need
the all-links bound.)

Two things *can* inject events into the window being processed, and both
are visible to the kernel before they run: control events (traffic
generator callbacks) and delivery hooks (closed-loop responses).  The
helpers here locate those cut points inside a sorted event batch; the
kernel processes the segment before the cut vectorized, runs the callback,
then re-merges whatever it injected.

All functions are pure and operate on the sorted ``(time, seq)`` arrays of
an :class:`~repro.engine.eventq.EventBatch`.
"""

from __future__ import annotations

import numpy as np

from repro.topology.network import Network

__all__ = [
    "BarrierClock",
    "conservative_window",
    "cut_before",
    "first_true",
]

#: Window length used when the network has no links (degenerate, but a
#: kernel can still run pure control events over it).
_DEFAULT_WINDOW_S = 1.0


def conservative_window(net: Network) -> float:
    """Batch window length: the minimum one-way latency over all links."""
    _, _, lat, _ = net.link_endpoint_arrays()
    if len(lat) == 0:
        return _DEFAULT_WINDOW_S
    return float(lat.min())


class BarrierClock:
    """Virtual-time observation bins, advanced at window barriers.

    The conservative-window march guarantees that when the kernel reaches a
    barrier at ``now``, every event with ``time < now`` has executed — so
    any fixed-width bin whose right edge is ``<= now`` is *complete* and
    can be folded into a load signal.  The online rebalancer's monitor
    calls :meth:`completed` from a kernel barrier hook; the returned bins
    are each yielded exactly once, in order, regardless of how many
    windows elapse between calls.
    """

    def __init__(self, bin_s: float) -> None:
        if bin_s <= 0:
            raise ValueError("bin width must be positive")
        self.bin_s = float(bin_s)
        self._done = 0

    def bin_of(self, time: np.ndarray) -> np.ndarray:
        """Bin index of each timestamp (bin ``i`` covers
        ``[i * bin_s, (i + 1) * bin_s)``)."""
        return (np.asarray(time, dtype=np.float64) / self.bin_s).astype(
            np.int64
        )

    def edge_of(self, index: int) -> float:
        """Right (closing) edge of bin ``index`` in virtual seconds."""
        return (index + 1) * self.bin_s

    def completed(self, now: float) -> range:
        """Bins that became complete since the previous call.

        A bin is complete once ``now`` reaches its right edge (events at
        exactly the edge belong to the next bin).
        """
        first = self._done
        if np.isfinite(now):
            self._done = max(self._done, int(np.floor(now / self.bin_s)))
        return range(first, self._done)


def cut_before(
    time: np.ndarray,
    seq: np.ndarray,
    start: int,
    limit: tuple[float, int],
) -> int:
    """First index ``>= start`` whose ``(time, seq)`` key is ``>= limit``.

    ``time`` must be non-decreasing with ``seq`` ascending within equal
    times (the :meth:`BatchEventQueue.pop_bucket` order).  Returns
    ``len(time)`` when every remaining key precedes ``limit``.
    """
    limit_t, limit_s = limit
    end = int(np.searchsorted(time, limit_t, side="left"))
    hi = int(np.searchsorted(time, limit_t, side="right"))
    if end < hi:
        end += int(np.searchsorted(seq[end:hi], limit_s, side="left"))
    return max(end, start)


def first_true(mask: np.ndarray, start: int, end: int) -> int:
    """Index of the first True in ``mask[start:end]``, or -1."""
    seg = mask[start:end]
    if not seg.any():
        return -1
    return start + int(np.argmax(seg))
