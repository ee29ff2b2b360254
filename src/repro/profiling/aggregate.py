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


def _profile_block(block: tuple[int, int], shared) -> tuple:
    """Flattened add-contributions for one slice of the record stream.

    Returns ``(np_nodes, np_vals, lp_links, lp_vals, ns_nodes, ns_bins,
    ns_vals)`` — the exact element-wise additions the sequential loop in
    :meth:`ProfileData.from_records_reference` performs for these
    records, **in the same order** (per record: router, then conditional
    source host, then conditional destination host; spread bins in
    ascending order).  The parent concatenates blocks in record order and
    folds each stream with a single unbuffered ``np.add.at``, which
    applies the same per-element add sequence as the scalar loop — so
    the parallel build is bit-identical to the sequential one.
    """
    records, host_links, host_neighbors, interval, n_bins = shared
    start, stop = block
    np_nodes: list[int] = []
    np_vals: list[float] = []
    lp_links: list[int] = []
    lp_vals: list[float] = []
    ns_nodes: list[int] = []
    ns_bins: list[int] = []
    ns_vals: list[float] = []

    def emit(node: int, packets: float, first: float, last: float) -> None:
        np_nodes.append(node)
        np_vals.append(packets)
        b0, b1 = _spread_bins(first, last, interval, n_bins)
        if b1 <= b0:
            ns_nodes.append(node)
            ns_bins.append(b0)
            ns_vals.append(packets)
        else:
            share = packets / (b1 - b0 + 1)
            for b in range(b0, b1 + 1):
                ns_nodes.append(node)
                ns_bins.append(b)
                ns_vals.append(share)

    for rec in records[start:stop]:
        lp_links.append(rec.out_link)
        lp_vals.append(rec.packets)
        emit(rec.router, rec.packets, rec.first, rec.last)
        src_nbrs = host_neighbors.get(rec.src)
        if src_nbrs is not None and rec.router in src_nbrs:
            emit(rec.src, rec.packets, rec.first, rec.last)
        dst_links = host_links.get(rec.dst)
        if dst_links is not None and rec.out_link in dst_links:
            emit(rec.dst, rec.packets, rec.first, rec.last)

    return (
        np.asarray(np_nodes, dtype=np.int64),
        np.asarray(np_vals, dtype=np.float64),
        np.asarray(lp_links, dtype=np.int64),
        np.asarray(lp_vals, dtype=np.float64),
        np.asarray(ns_nodes, dtype=np.int64),
        np.asarray(ns_bins, dtype=np.int64),
        np.asarray(ns_vals, dtype=np.float64),
    )


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
        *,
        workers: int = 0,
        telemetry=None,
    ) -> "ProfileData":
        """Build from parsed NetFlow records.

        Parameters
        ----------
        records:
            Parsed dump records.
        injections:
            Optional ``(host_ids, times)`` arrays of live-injection events
            (the paper measures injection overhead separately from NetFlow).
        workers:
            ``>= 2`` fans record-block aggregation across a
            :func:`repro.runtime.pmap.parallel_map` pool, **bit-identical**
            to the sequential build (see :func:`_profile_block`); ``0``/``1``
            runs the sequential reference loop.
        """
        if workers and workers >= 2 and len(records) > 1:
            return cls._from_records_parallel(
                records, net, duration, interval, injections,
                workers=workers, telemetry=telemetry,
            )
        return cls.from_records_reference(
            records, net, duration, interval, injections,
        )

    @classmethod
    def from_records_reference(
        cls,
        records: list[FlowRecord],
        net: Network,
        duration: float,
        interval: float = 5.0,
        injections: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "ProfileData":
        """The sequential scalar aggregation loop — the parity oracle for
        the parallel fold path."""
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

    @classmethod
    def _from_records_parallel(
        cls,
        records: list[FlowRecord],
        net: Network,
        duration: float,
        interval: float,
        injections: tuple[np.ndarray, np.ndarray] | None,
        *,
        workers: int,
        telemetry=None,
    ) -> "ProfileData":
        """Fan :func:`_profile_block` over record blocks, fold in order."""
        from repro.runtime.pmap import parallel_map

        if duration <= 0 or interval <= 0:
            raise ValueError("duration and interval must be positive")
        n = net.n_nodes
        n_bins = max(1, int(np.ceil(duration / interval)))
        host_links, host_neighbors = cls._host_incidence(net)
        shared = (records, host_links, host_neighbors, float(interval), n_bins)

        block = max(1, -(-len(records) // max(workers, 1)))
        blocks = [
            (start, min(start + block, len(records)))
            for start in range(0, len(records), block)
        ]
        outs = parallel_map(
            _profile_block, blocks, workers=workers, shared=shared,
            telemetry=telemetry,
        )

        node_packets = np.zeros(n, dtype=np.float64)
        link_packets = np.zeros(net.n_links, dtype=np.float64)
        node_series = np.zeros((n, n_bins), dtype=np.float64)
        # One unbuffered fold per stream, blocks concatenated in record
        # order — the same per-element add sequence as the scalar loop.
        np.add.at(
            node_packets,
            np.concatenate([o[0] for o in outs]),
            np.concatenate([o[1] for o in outs]),
        )
        np.add.at(
            link_packets,
            np.concatenate([o[2] for o in outs]),
            np.concatenate([o[3] for o in outs]),
        )
        np.add.at(
            node_series,
            (
                np.concatenate([o[4] for o in outs]),
                np.concatenate([o[5] for o in outs]),
            ),
            np.concatenate([o[6] for o in outs]),
        )
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
        *,
        workers: int = 0,
        telemetry=None,
    ) -> "ProfileData":
        """Convenience: records from the collector + injections from the
        kernel trace of the same run."""
        mask = trace.next_node == INJECTED
        injections = (trace.node[mask], trace.time[mask])
        return cls.from_records(
            collector.records(), net, duration=trace.duration,
            interval=interval, injections=injections,
            workers=workers, telemetry=telemetry,
        )
