"""ScaLapack foreground traffic model.

The paper runs ScaLapack (via MPICH-G over TCP) solving a 3000×3000 system
on 10 nodes for ~10 virtual minutes.  The property the mapping experiments
depend on is that its traffic is *regular and evenly distributed*: block-
cyclic LU makes every process exchange comparable volumes with every other
process over the run, so the PLACE placement approximation (full access-link
utilization, all-to-all even) is close to truth and PROFILE has little left
to win (§4.2.1).

The model reproduces block-cyclic LU communication: iteration ``k`` has the
panel owner (round-robin) broadcast the current panel to all peers, plus a
ring exchange for the row swaps; panel sizes shrink as the factorization
consumes the matrix, and the trailing-update compute demand shrinks
quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.compute import ComputeProfile
from repro.engine.kernel import EmulationKernel
from repro.engine.packet import Transfer
from repro.traffic.apps.base import ForegroundApp

__all__ = ["ScaLapackApp"]


@dataclass
class ScaLapackApp(ForegroundApp):
    """Block-cyclic LU traffic on ``len(endpoints)`` processes.

    Attributes
    ----------
    endpoints:
        Host node ids of the MPI processes (paper: 10 nodes).
    duration_s:
        Virtual run length (paper: ~600 s).
    n_iters:
        Panel iterations spread uniformly over the duration.
    panel_bytes:
        Size of the first panel broadcast; later panels shrink linearly.
    ring_fraction:
        Ring-exchange volume as a fraction of the panel size.
    compute_rate_peak:
        Compute demand rate at iteration 0 (decays quadratically, like the
        trailing-matrix update cost).
    """

    endpoints: list[int]
    duration_s: float = 600.0
    n_iters: int = 90
    panel_bytes: float = 1e6
    ring_fraction: float = 0.5
    compute_rate_peak: float = 0.25
    name: str = "scalapack"
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if len(self.endpoints) < 2:
            raise ValueError("ScaLapack needs at least two processes")
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")

    @property
    def duration(self) -> float:
        return self.duration_s

    def _iter_time(self, k: int) -> float:
        return self.start_time + k * (self.duration_s / self.n_iters)

    def _panel_size(self, k: int) -> float:
        """Panel shrinks linearly; floor keeps late iterations non-trivial."""
        frac = 1.0 - k / self.n_iters
        return max(self.panel_bytes * frac, self.panel_bytes * 0.05)

    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        procs = self.endpoints
        p = len(procs)
        # Everything is known at install time: build the transfers in
        # submission order (= flow-id order) and inject them as one batch.
        batch: list[Transfer] = []
        times: list[float] = []
        for k in range(self.n_iters):
            t = self._iter_time(k)
            size = self._panel_size(k)
            # 2D block-cyclic grid: the column owner broadcasts the panel
            # along its process row while the row owner broadcasts the
            # multiplier row along its process column — two concurrent
            # broadcasts from different sources every iteration.
            for owner, fraction, label in (
                (k % p, 1.0, "panel"),
                ((k + p // 2) % p, 0.7, "lrow"),
            ):
                nbytes = size * fraction
                if nbytes < 1.0:
                    continue
                for j in range(p):
                    if j == owner:
                        continue
                    batch.append(Transfer(
                        src=procs[owner], dst=procs[j], nbytes=nbytes,
                        tag=f"{self.name}:{label}{k}",
                    ))
                    times.append(t)
            # Row-swap ring exchange: i -> i+1 (mod p).
            ring = size * self.ring_fraction
            if ring >= 1.0:
                for i in range(p):
                    j = (i + 1) % p
                    batch.append(Transfer(
                        src=procs[i], dst=procs[j], nbytes=ring,
                        tag=f"{self.name}:ring{k}",
                    ))
                    times.append(t + 0.2 * (self.duration_s / self.n_iters))
        kernel.submit_transfers(batch, times)

    def compute_profile(self) -> ComputeProfile:
        """Quadratic decay: trailing update is O((n-k)^2) per panel."""
        edges = np.array(
            [self._iter_time(k) for k in range(self.n_iters + 1)]
        )
        fracs = 1.0 - np.arange(self.n_iters) / self.n_iters
        rates = self.compute_rate_peak * fracs**2
        return ComputeProfile(times=edges, rates=rates)

    def offered_bytes(self) -> float:
        """User-estimable aggregate volume (the user knows the matrix size)."""
        return self.total_bytes()

    def total_bytes(self) -> float:
        """Analytic total traffic volume (used by tests)."""
        p = len(self.endpoints)
        total = 0.0
        for k in range(self.n_iters):
            size = self._panel_size(k)
            total += size * (p - 1)          # panel broadcast
            if size * 0.7 >= 1.0:
                total += size * 0.7 * (p - 1)  # multiplier-row broadcast
            ring = size * self.ring_fraction
            if ring >= 1.0:
                total += ring * p
        return total
