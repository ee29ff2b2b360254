"""Aggregation of NetFlow records into partition-ready load data.

"Parsing the dump files allows computation of the aggregated traffic on
every router and link in the network" (§3.3).  :class:`ProfileData` holds:

- per-node packet loads (router forwarding work from its own records; host
  send/receive work reconstructed from the access-router records; live
  injection overhead from the emulator's injection log),
- per-link packet loads,
- a per-node time series (each record's packets spread uniformly over its
  [first, last] activity span — the standard NetFlow rate assumption),

everything the PROFILE mapping approach needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.trace import INJECTED, EventTrace
from repro.profiling.netflow import FlowRecord, NetFlowCollector
from repro.topology.network import Network

__all__ = ["ProfileData"]


def _spread_bins(first: float, last: float, interval: float, n_bins: int):
    """The record's active bin range ``(b0, b1)`` (inclusive)."""
    b0 = min(int(first / interval), n_bins - 1)
    b1 = min(int(last / interval), n_bins - 1)
    return b0, b1


@dataclass
class ProfileData:
    """Aggregated profile of one emulation run.

    Attributes
    ----------
    node_packets:
        ``float64[n_nodes]`` — total packets processed per virtual node.
    link_packets:
        ``float64[n_links]`` — total packets carried per link (both
        directions).
    node_series:
        ``float64[n_nodes, n_bins]`` — per-node packets per interval.
    interval, duration:
        Binning parameters (seconds).
    """

    node_packets: np.ndarray
    link_packets: np.ndarray
    node_series: np.ndarray
    interval: float
    duration: float

    @property
    def n_bins(self) -> int:
        return self.node_series.shape[1]

    def lp_series(self, parts: np.ndarray) -> np.ndarray:
        """Per-engine-node load series under a mapping, ``(k, n_bins)``."""
        from repro.core.aggregate import accumulate_rates

        parts = np.asarray(parts, dtype=np.int64)
        k = int(parts.max()) + 1
        return accumulate_rates(parts, self.node_series, k)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _host_incidence(net: Network) -> tuple[dict, dict]:
        """Incident links / neighbor routers per host, for send/receive
        reconstruction."""
        host_links = {
            h.node_id: {link.link_id for _, link in net.neighbors(h.node_id)}
            for h in net.hosts()
        }
        host_neighbors = {
            h.node_id: {nbr for nbr, _ in net.neighbors(h.node_id)}
            for h in net.hosts()
        }
        return host_links, host_neighbors

    @classmethod
    def from_records(
        cls,
        records: list[FlowRecord],
        net: Network,
        duration: float,
        interval: float = 5.0,
        injections: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "ProfileData":
        """Build from parsed NetFlow records.

        Parameters
        ----------
        records:
            Parsed dump records.
        injections:
            Optional ``(host_ids, times)`` arrays of live-injection events
            (the paper measures injection overhead separately from NetFlow).
        """
        if duration <= 0 or interval <= 0:
            raise ValueError("duration and interval must be positive")
        n = net.n_nodes
        n_bins = max(1, int(np.ceil(duration / interval)))
        node_packets = np.zeros(n, dtype=np.float64)
        link_packets = np.zeros(net.n_links, dtype=np.float64)
        node_series = np.zeros((n, n_bins), dtype=np.float64)

        host_links, host_neighbors = cls._host_incidence(net)

        def spread(node: int, packets: float, first: float, last: float):
            """Distribute packets uniformly over the record's active bins."""
            b0, b1 = _spread_bins(first, last, interval, n_bins)
            if b1 <= b0:
                node_series[node, b0] += packets
            else:
                node_series[node, b0 : b1 + 1] += packets / (b1 - b0 + 1)

        for rec in records:
            node_packets[rec.router] += rec.packets
            link_packets[rec.out_link] += rec.packets
            spread(rec.router, rec.packets, rec.first, rec.last)
            # Host send work: the record sits at the source's access router.
            src_nbrs = host_neighbors.get(rec.src)
            if src_nbrs is not None and rec.router in src_nbrs:
                node_packets[rec.src] += rec.packets
                spread(rec.src, rec.packets, rec.first, rec.last)
            # Host receive work: the record forwards onto the destination's
            # access link.
            dst_links = host_links.get(rec.dst)
            if dst_links is not None and rec.out_link in dst_links:
                node_packets[rec.dst] += rec.packets
                spread(rec.dst, rec.packets, rec.first, rec.last)

        cls._fold_injections(
            node_packets, node_series, injections, interval, n_bins
        )
        return cls(
            node_packets=node_packets, link_packets=link_packets,
            node_series=node_series, interval=float(interval),
            duration=float(duration),
        )

    @staticmethod
    def _fold_injections(
        node_packets: np.ndarray,
        node_series: np.ndarray,
        injections: tuple[np.ndarray, np.ndarray] | None,
        interval: float,
        n_bins: int,
    ) -> None:
        if injections is None:
            return
        hosts, times = injections
        hosts = np.asarray(hosts, dtype=np.int64)
        times = np.asarray(times, dtype=np.float64)
        np.add.at(node_packets, hosts, 1.0)
        bins = np.minimum((times / interval).astype(np.int64), n_bins - 1)
        np.add.at(node_series, (hosts, bins), 1.0)

    @classmethod
    def from_run(
        cls,
        collector: NetFlowCollector,
        trace: EventTrace,
        net: Network,
        interval: float = 5.0,
    ) -> "ProfileData":
        """Convenience: records from the collector + injections from the
        kernel trace of the same run."""
        mask = trace.next_node == INJECTED
        injections = (trace.node[mask], trace.time[mask])
        return cls.from_records(
            collector.records(), net, duration=trace.duration,
            interval=interval, injections=injections,
        )
