"""Packet-train and transfer records.

The emulator moves *packet trains*: batches of up to ``train_packets``
consecutive packets of one flow.  Load accounting stays per-packet (the
paper's kernel event unit) while the Python event count stays manageable —
fidelity is a knob (``train_packets=1`` is per-packet simulation).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["PacketTrain", "Transfer", "MTU_BYTES"]

MTU_BYTES = 1500

_flow_counter = itertools.count(1)


def next_flow_id() -> int:
    """Process-wide unique flow id (monotone, deterministic per run order)."""
    return next(_flow_counter)


def reset_flow_ids() -> None:
    """Reset the flow-id counter (tests / fresh experiment runs).

    :func:`~repro.engine.kernel.run_kernel` calls this before every run,
    grid workers included: the reset happens in the process that then
    creates the run's transfers, so flow ids depend on the run alone,
    never on which tasks a worker ran before it.
    """
    global _flow_counter
    _flow_counter = itertools.count(1)


@dataclass
class Transfer:
    """One application-level transfer (a flow): ``nbytes`` from src to dst.

    Attributes
    ----------
    src, dst:
        Host node ids.
    nbytes:
        Payload size in bytes.
    flow_id:
        Unique id; assigned by :func:`next_flow_id` when 0.
    on_delivery:
        Optional callback ``fn(kernel, time, transfer)`` invoked when the
        last train reaches ``dst`` — the closed-loop hook (HTTP responses,
        workflow successors).
    tag:
        Free-form label ("http-req", "scalapack", ...) carried into traces
        and NetFlow records.
    """

    src: int
    dst: int
    nbytes: float
    flow_id: int = 0
    on_delivery: Optional[Callable] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("transfer src == dst")
        if self.nbytes <= 0:
            raise ValueError("transfer must carry at least one byte")
        if self.flow_id == 0:
            self.flow_id = next_flow_id()

    @property
    def n_packets(self) -> int:
        """MTU-sized packet count (last packet may be short)."""
        return max(1, -(-int(self.nbytes) // MTU_BYTES))


@dataclass(frozen=True)
class PacketTrain:
    """A batch of consecutive packets of one transfer in flight.

    Attributes
    ----------
    transfer:
        The owning transfer.
    count:
        Packets in this train.
    nbytes:
        Bytes in this train.
    last:
        True for the final train of the transfer (triggers delivery hooks).
    """

    transfer: Transfer
    count: int
    nbytes: float
    last: bool

    @property
    def src(self) -> int:
        return self.transfer.src

    @property
    def dst(self) -> int:
        return self.transfer.dst

    @property
    def flow_id(self) -> int:
        return self.transfer.flow_id


def packetize(transfer: Transfer, train_packets: int) -> list[PacketTrain]:
    """Split a transfer into MTU packets grouped into trains."""
    if train_packets < 1:
        raise ValueError("train_packets must be >= 1")
    total = transfer.n_packets
    trains: list[PacketTrain] = []
    remaining_bytes = float(transfer.nbytes)
    done = 0
    while done < total:
        count = min(train_packets, total - done)
        if done + count >= total:
            nbytes = remaining_bytes
        else:
            nbytes = count * MTU_BYTES
        remaining_bytes -= nbytes
        done += count
        trains.append(
            PacketTrain(
                transfer=transfer, count=count, nbytes=nbytes,
                last=(done >= total),
            )
        )
    return trains
