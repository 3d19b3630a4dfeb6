"""FOBS wire formats.

Three packet types, mirroring the paper's three connections:

* :class:`DataPacket` on the UDP data connection (sender → receiver);
* :class:`AckPacket` on the UDP acknowledgement connection
  (receiver → sender) carrying the full received/not-received bitmap —
  the paper's "infinite selective-acknowledgement window";
* :class:`CompletionSignal` on the TCP control connection
  (receiver → sender) announcing that the whole object arrived.

For the simulator the payloads are Python objects with exact wire-size
accounting; :mod:`repro.runtime.wire` provides the byte encodings used
by the real-socket backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes of FOBS header on a data packet (seq + total + flags).
DATA_HEADER_BYTES = 12
#: Bytes of FOBS header on an acknowledgement (id + count + length).
ACK_HEADER_BYTES = 16
#: Bytes carried by the completion signal.
COMPLETION_BYTES = 12
#: Bytes of the negotiated session extension (transfer id + epoch)
#: carried by resumable sessions on both DATA and ACK datagrams.
SESSION_EXT_BYTES = 12


@dataclass(frozen=True)
class DataPacket:
    """One numbered slice of the object."""

    seq: int
    total: int
    payload_bytes: int
    #: How many times this seq had been sent when this copy left (for
    #: diagnostics; 0 = first transmission).
    transmission: int = 0
    #: Attempt epoch of the session that produced this packet (0 for
    #: non-resumable transfers).  A receiver in a resumed session drops
    #: datagrams from any other epoch — a zombie sender from a previous
    #: attempt can never land bytes in the resumed object.
    epoch: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seq < self.total:
            raise ValueError(f"seq {self.seq} out of range [0, {self.total})")
        if self.payload_bytes <= 0:
            raise ValueError("payload_bytes must be positive")

    @classmethod
    def unchecked(cls, seq: int, total: int, payload_bytes: int,
                  transmission: int, epoch: int) -> "DataPacket":
        """Validation-free construction for the batch-assembly hot path.

        The sender builds tens of thousands of these per transfer from
        values that are in-range by construction; skipping the frozen
        dataclass ``__init__`` + ``__post_init__`` costs nothing in
        safety and roughly a microsecond per packet in speed.
        """
        pkt = object.__new__(cls)
        # Direct stores beat a kwargs dict + ``update`` per packet.
        d = pkt.__dict__
        d["seq"] = seq
        d["total"] = total
        d["payload_bytes"] = payload_bytes
        d["transmission"] = transmission
        d["epoch"] = epoch
        return pkt

    @property
    def wire_bytes(self) -> int:
        return self.payload_bytes + DATA_HEADER_BYTES


def bitmap_wire_bytes(npackets: int) -> int:
    """Bytes of a packed received/not-received bitmap (one bit/packet)."""
    return -(-npackets // 8)


def ack_wire_bytes(npackets: int) -> int:
    """Total wire payload of an acknowledgement packet."""
    return ACK_HEADER_BYTES + bitmap_wire_bytes(npackets)


@dataclass(frozen=True)
class AckPacket:
    """A full-bitmap selective acknowledgement.

    ``bitmap`` is an immutable snapshot (the receiver copies its state
    at build time — in flight, the real protocol's bytes are equally
    frozen).  ``received_count`` lets the sender compute the receiver's
    progress rate between consecutive ACKs, which feeds the adaptive
    batch policy (the paper's phase 2).
    """

    ack_id: int
    received_count: int
    bitmap: np.ndarray
    #: Attempt epoch (see :attr:`DataPacket.epoch`); stale-epoch ACKs
    #: are dropped by a resumed sender.
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.bitmap.dtype != np.bool_:
            raise ValueError("bitmap must be a boolean array")
        self.bitmap.setflags(write=False)

    @property
    def npackets(self) -> int:
        return int(self.bitmap.shape[0])

    @property
    def wire_bytes(self) -> int:
        return ack_wire_bytes(self.npackets)


@dataclass(frozen=True)
class CompletionSignal:
    """Receiver's end-of-transfer notification (sent over TCP)."""

    total_packets: int

    @property
    def wire_bytes(self) -> int:
        return COMPLETION_BYTES
