"""Workload construction: background traffic + foreground application.

§4.2.1 runs each application on each topology "with moderate background
traffic".  Background is the HTTP model with populations scaled to the
topology size and servers placed with a Zipf site bias (server farms).
Foreground endpoints default to *packed* placement — the application
occupies one or two sites, like a real Grid job — which is what makes its
injection points matter to the mapping approaches; ``placement="spread"``
gives the round-robin alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.compute import ComputeProfile
from repro.engine.kernel import EmulationKernel
from repro.topology.network import Network
from repro.traffic.apps.base import ForegroundApp
from repro.traffic.apps.gridnpb import GridNPBApp
from repro.traffic.apps.scalapack import ScaLapackApp
from repro.traffic.flows import TrafficGenerator
from repro.traffic.http import HttpTraffic

__all__ = ["Workload", "SyntheticTransfers", "DiurnalTransfers",
           "spread_endpoints", "build_workload", "INTENSITIES"]

# HTTP think-time means per intensity level (seconds).
INTENSITIES = {"light": 20.0, "moderate": 6.0, "heavy": 2.5}


@dataclass
class Workload:
    """One experiment's traffic: background generators + one application."""

    background: list[TrafficGenerator]
    app: ForegroundApp | None
    duration: float
    name: str = "workload"

    def prepare(self, net: Network, rng: np.random.Generator) -> None:
        """Fix population choices (before mapping or emulation)."""
        for gen in self.background:
            gen.prepare(net, rng)

    def install(self, kernel: EmulationKernel, rng: np.random.Generator) -> None:
        """Schedule everything on a kernel."""
        for gen in self.background:
            gen.install(kernel, rng)
        if self.app is not None:
            self.app.install(kernel, rng)

    def compute_profile(self) -> ComputeProfile:
        """The application's compute demand (background has none)."""
        if self.app is None:
            return ComputeProfile.zero(self.duration)
        return self.app.compute_profile()

    @property
    def apps(self) -> list[ForegroundApp]:
        return [self.app] if self.app is not None else []

    def describe(self) -> str:
        parts = [g.describe() for g in self.background]
        if self.app is not None:
            parts.append(self.app.name)
        return f"{self.name}: " + ", ".join(parts)


def _site_pools(
    net: Network, rng: np.random.Generator
) -> tuple[list[str], dict[str, list[int]]]:
    by_site: dict[str, list[int]] = {}
    for host in net.hosts():
        by_site.setdefault(host.site or "_", []).append(host.node_id)
    if not by_site:
        raise ValueError("network has no hosts")
    sites = sorted(by_site)
    pools = {s: [int(v) for v in rng.permutation(by_site[s])] for s in sites}
    return sites, pools


def spread_endpoints(
    net: Network, count: int, rng: np.random.Generator
) -> list[int]:
    """Pick ``count`` host endpoints spread across sites round-robin.

    Within each site the host is chosen at random; sites are cycled so a
    10-process app on a 5-site grid gets 2 processes per site.
    """
    sites, pools = _site_pools(net, rng)
    chosen: list[int] = []
    i = 0
    while len(chosen) < count:
        site = sites[i % len(sites)]
        pool = pools[site]
        if pool:
            chosen.append(pool.pop())
        i += 1
        if all(not p for p in pools.values()):
            raise ValueError(f"not enough hosts for {count} endpoints")
    return chosen


def packed_endpoints(
    net: Network, count: int, rng: np.random.Generator,
    max_sites: int = 2,
) -> list[int]:
    """Pick ``count`` endpoints concentrated on a few random sites.

    Grid jobs land where capacity is, not uniformly: a 10-process run
    typically occupies one or two clusters.  This concentration is what
    makes the application's *injection points* matter — approaches that know
    them (PLACE, PROFILE) can split the hot sites across engine nodes while
    topology-only mapping cannot.
    """
    sites, pools = _site_pools(net, rng)
    order = [sites[i] for i in rng.permutation(len(sites))]
    per_site = max(1, -(-count // max_sites))
    chosen: list[int] = []
    for site in order:
        pool = pools[site]
        take = min(per_site, len(pool), count - len(chosen))
        chosen.extend(pool[:take])
        if len(chosen) >= count:
            return chosen
    # Fewer / smaller sites than expected: top up from whatever remains.
    for site in order:
        pool = pools[site][per_site:]
        take = min(len(pool), count - len(chosen))
        chosen.extend(pool[:take])
        if len(chosen) >= count:
            return chosen
    raise ValueError(f"not enough hosts for {count} endpoints")


def build_workload(
    net: Network,
    app_name: str = "scalapack",
    intensity: str = "moderate",
    seed: int = 0,
    duration: float | None = None,
    http_servers: int | None = None,
    clients_per_server: int = 10,
    scalapack_procs: int = 10,
    gridnpb_procs: int = 9,
    placement: str = "packed",
) -> Workload:
    """Build the paper's workload for one topology.

    Parameters
    ----------
    app_name:
        ``"scalapack"``, ``"gridnpb"`` or ``"none"`` (background only).
    intensity:
        HTTP background level; keys of :data:`INTENSITIES`.
    http_servers:
        Override the server count (default: one per ~10 hosts, ≥ 2).
    placement:
        Foreground endpoint placement: ``"packed"`` (default — the app
        occupies one or two sites, like a real Grid job) or ``"spread"``
        (round-robin across sites).
    """
    if intensity not in INTENSITIES:
        raise ValueError(
            f"intensity must be one of {sorted(INTENSITIES)}, got {intensity!r}"
        )
    if placement == "packed":
        place = packed_endpoints
    elif placement == "spread":
        place = spread_endpoints
    else:
        raise ValueError(f"unknown placement {placement!r}")
    rng = np.random.default_rng(seed)
    hosts = net.hosts()
    n_hosts = len(hosts)

    def access_rate(endpoints: list[int]) -> float:
        """Slowest endpoint access-link rate, in bytes/s."""
        return min(net.node_total_bandwidth(e) for e in endpoints) / 8.0

    app: ForegroundApp | None
    if app_name == "scalapack":
        endpoints = place(net, min(scalapack_procs, n_hosts), rng)
        # Network-intensive sizing (the paper's apps saturate their NICs in
        # bursts): a panel occupies the access link for ~0.8 s, capped to
        # keep the packet budget sane on fast-NIC topologies.
        panel = float(np.clip(access_rate(endpoints) * 0.5, 0.7e6, 5e6))
        app = ScaLapackApp(endpoints=endpoints, panel_bytes=panel)
    elif app_name == "gridnpb":
        endpoints = place(net, min(gridnpb_procs, n_hosts), rng)
        volume = float(np.clip(access_rate(endpoints) * 8.0, 10e6, 64e6))
        app = GridNPBApp(endpoints=endpoints, volume=volume)
    elif app_name == "none":
        app = None
    else:
        raise ValueError(f"unknown app {app_name!r}")

    if duration is None:
        duration = app.duration * 1.05 if app is not None else 300.0

    n_servers = http_servers
    if n_servers is None:
        n_servers = max(2, n_hosts // 10)
    http = HttpTraffic(
        request_size=200e3,
        think_time=INTENSITIES[intensity],
        clients_per_server=clients_per_server,
        n_servers=n_servers,
        duration=duration,
        # Server farms concentrate on a few sites; this is what makes
        # bandwidth-only (TOP) weights a poor predictor of actual load.
        site_skew=1.5,
    )
    return Workload(
        background=[http], app=app, duration=float(duration),
        name=f"{net.name}/{app_name}/{intensity}",
    )


@dataclass
class SyntheticTransfers:
    """Open-loop transfer soup: ``n_flows`` random host-to-host transfers.

    Every transfer is known at install time (no control callbacks, no
    delivery hooks), which is the trace-replay shape the engine
    benchmarks measure: the kernel's whole run is pure train forwarding,
    so throughput numbers reflect the event hot path rather than python
    callback dispatch.  Endpoints, sizes and start times are fixed by
    :meth:`prepare` (or on first :meth:`install`) from the seed.

    Duck-types the :class:`Workload` surface the emulation entry points
    need (``prepare`` / ``install`` / ``duration``).
    """

    n_flows: int = 1000
    duration: float = 2.0
    min_bytes: int = 20_000
    max_bytes: int = 400_000
    name: str = "synthetic-transfers"
    _drawn: tuple | None = None

    def prepare(self, net: Network, rng: np.random.Generator) -> None:
        """Fix endpoint / size / start-time choices."""
        hosts = np.asarray([h.node_id for h in net.hosts()], dtype=np.int64)
        if len(hosts) < 2:
            raise ValueError("need at least two hosts for transfers")
        n = int(self.n_flows)
        src = rng.choice(hosts, size=n)
        dst = rng.choice(hosts, size=n)
        clash = src == dst
        while clash.any():
            dst[clash] = rng.choice(hosts, size=int(clash.sum()))
            clash = src == dst
        nbytes = rng.integers(self.min_bytes, self.max_bytes, size=n)
        # Injections spread over the first half so queues drain in-run.
        start = rng.uniform(0.0, self.duration / 2.0, size=n)
        self._drawn = (src, dst, nbytes, np.sort(start))

    def install(self, kernel: EmulationKernel, rng: np.random.Generator):
        from repro.engine.packet import Transfer

        if self._drawn is None:
            self.prepare(kernel.net, rng)
        src, dst, nbytes, start = self._drawn
        transfers = [
            Transfer(src=int(s), dst=int(d), nbytes=float(b), tag="soup")
            for s, d, b in zip(src, dst, nbytes)
        ]
        kernel.submit_transfers(transfers, start)


@dataclass
class DiurnalTransfers:
    """Transfer soup whose hot spot rotates between host regions.

    The run splits into ``n_phases`` equal virtual-time phases; in phase
    ``p`` a ``hot_frac`` share of the flows is drawn *within* region
    ``p % n_regions`` (both endpoints), the rest uniformly across all
    hosts — a compressed diurnal demand cycle.  A partition aligned with
    the regions is perfectly reasonable for phase 0 and badly skewed the
    moment the hot spot moves, which is exactly the scenario an online
    rebalancer exists for (and a pre-run PLACE mapping, seeing only the
    aggregate matrix, cannot fix).

    Regions default to site groups (sorted site name order).  Duck-types
    the :class:`Workload` surface (``prepare`` / ``install`` /
    ``duration``) like :class:`SyntheticTransfers`.
    """

    n_flows: int = 600
    duration: float = 6.0
    n_phases: int = 3
    hot_frac: float = 0.8
    min_bytes: int = 20_000
    max_bytes: int = 200_000
    name: str = "diurnal-transfers"
    _drawn: tuple | None = None

    @property
    def phase_s(self) -> float:
        return self.duration / self.n_phases

    def shift_times(self) -> list[float]:
        """Virtual times at which the hot region moves."""
        return [p * self.phase_s for p in range(1, self.n_phases)]

    def prepare(self, net: Network, rng: np.random.Generator) -> None:
        regions = self._regions(net)
        all_hosts = np.concatenate(regions)
        n = int(self.n_flows)
        start = np.sort(rng.uniform(0.0, self.duration, size=n))
        phase = np.minimum(
            (start / self.phase_s).astype(np.int64), self.n_phases - 1
        )
        hot = rng.random(n) < self.hot_frac
        src = np.empty(n, dtype=np.int64)
        dst = np.empty(n, dtype=np.int64)
        for i in range(n):
            pool = (
                regions[phase[i] % len(regions)] if hot[i] else all_hosts
            )
            s, d = rng.choice(pool, size=2, replace=False)
            src[i], dst[i] = s, d
        nbytes = rng.integers(self.min_bytes, self.max_bytes, size=n)
        self._drawn = (src, dst, nbytes, start)

    def _regions(self, net: Network) -> list[np.ndarray]:
        by_site: dict[str, list[int]] = {}
        for host in net.hosts():
            by_site.setdefault(host.site or "_", []).append(host.node_id)
        regions = [
            np.asarray(by_site[s], dtype=np.int64) for s in sorted(by_site)
        ]
        regions = [r for r in regions if len(r) >= 2]
        if not regions:
            raise ValueError(
                "diurnal transfers need at least one site with two hosts"
            )
        return regions

    def install(self, kernel: EmulationKernel, rng: np.random.Generator):
        from repro.engine.packet import Transfer

        if self._drawn is None:
            self.prepare(kernel.net, rng)
        src, dst, nbytes, start = self._drawn
        transfers = [
            Transfer(src=int(s), dst=int(d), nbytes=float(b), tag="diurnal")
            for s, d, b in zip(src, dst, nbytes)
        ]
        kernel.submit_transfers(transfers, start)
