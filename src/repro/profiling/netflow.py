"""NetFlow-like per-router flow accounting.

The collector is handed to :class:`~repro.engine.kernel.EmulationKernel`,
which calls :meth:`NetFlowCollector.record` at every router forwarding
event.  Records accumulate per key; the key granularity is the paper's
tuning knob ("By tuning the granularity of the NetFlow, we can get detailed
network traffic information with small overhead"):

- ``granularity="flow"`` — one record per (router, out-link, flow id):
  maximum detail, most records.
- ``granularity="pair"`` — one record per (router, out-link, src, dst):
  repeated transfers between the same endpoints merge into one record.

Bandwidth is measured in *packets* per the paper: "Instead of using the real
network bandwidth (MB/s) as the bandwidth measurement, we use the number of
packets in a flow, since the real load in the emulator depends on the number
of packets it processes."
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FlowRecord", "NetFlowCollector", "GRANULARITIES"]

GRANULARITIES = ("flow", "pair")


@dataclass
class FlowRecord:
    """One accumulated NetFlow record.

    ``first``/``last`` bound the record's activity in virtual time; the
    record's average bandwidth is ``packets / (last - first)`` as in a real
    NetFlow export.
    """

    router: int
    src: int
    dst: int
    flow_id: int  # 0 when granularity="pair"
    out_link: int
    packets: int
    nbytes: float
    first: float
    last: float

    @property
    def duration(self) -> float:
        return self.last - self.first

    @property
    def mean_packet_rate(self) -> float:
        """Packets per second over the record's active span."""
        span = max(self.duration, 1e-9)
        return self.packets / span


class NetFlowCollector:
    """Accumulates flow records during an emulation run."""

    def __init__(self, granularity: str = "flow") -> None:
        if granularity not in GRANULARITIES:
            raise ValueError(
                f"granularity must be one of {GRANULARITIES}, got "
                f"{granularity!r}"
            )
        self.granularity = granularity
        self._records: dict[tuple, FlowRecord] = {}
        self.events_seen = 0

    def record(
        self, time: float, router: int, out_link: int, src: int, dst: int,
        flow: int, count: int, nbytes: float,
    ) -> None:
        """Account one forwarding event at a router (kernel hook): a train
        of ``count`` packets / ``nbytes`` bytes of flow ``flow`` (``src``
        to ``dst``) leaving ``router`` on ``out_link``."""
        self.events_seen += 1
        if self.granularity == "flow":
            key = (router, out_link, flow)
            flow_id = flow
        else:
            key = (router, out_link, src, dst)
            flow_id = 0
        rec = self._records.get(key)
        if rec is None:
            self._records[key] = FlowRecord(
                router=router, src=src, dst=dst, flow_id=flow_id,
                out_link=out_link, packets=count, nbytes=nbytes,
                first=time, last=time,
            )
        else:
            rec.packets += count
            rec.nbytes += nbytes
            rec.first = min(rec.first, time)
            rec.last = max(rec.last, time)

    def records(self) -> list[FlowRecord]:
        """All records, deterministically ordered."""
        return sorted(
            self._records.values(),
            key=lambda r: (r.router, r.out_link, r.src, r.dst, r.flow_id),
        )

    def records_at(self, router: int) -> list[FlowRecord]:
        """Records collected at one router (its local dump file)."""
        return [r for r in self.records() if r.router == router]

    @property
    def n_records(self) -> int:
        return len(self._records)
