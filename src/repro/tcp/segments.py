"""TCP segment representation and wire-size accounting.

Segments carry no actual payload bytes (bulk transfers are synthetic),
but their wire sizes — including SACK option bytes — are accounted
exactly, since header overhead is part of what separates TCP from FOBS
in the bandwidth-percentage metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: (start, end) byte ranges, end-exclusive.
SackBlock = Tuple[int, int]


@dataclass(slots=True)
class Segment:
    """One TCP segment.

    ``seq`` is the first payload byte's sequence number, ``length`` the
    payload length; ``ack`` is the cumulative acknowledgement.  ``wnd``
    is the advertised receive window in bytes (scaling is applied by the
    advertising side, so no shift arithmetic is needed here).

    Built once per segment sent (tens of thousands per transfer) and
    never changed after: one hand-written constructor with slots costs
    a quarter of a frozen dataclass's per-field ``object.__setattr__``.
    """

    seq: int
    length: int
    ack: int
    wnd: int
    syn: bool
    fin: bool
    is_ack: bool
    sack_blocks: tuple[SackBlock, ...]
    #: Option flags carried on SYN for negotiation.
    offer_window_scaling: bool
    offer_sack: bool

    def __init__(
        self,
        seq: int = 0,
        length: int = 0,
        ack: int = 0,
        wnd: int = 65535,
        syn: bool = False,
        fin: bool = False,
        is_ack: bool = True,
        sack_blocks: tuple[SackBlock, ...] = (),
        offer_window_scaling: bool = False,
        offer_sack: bool = False,
    ) -> None:
        if length < 0 or seq < 0 or ack < 0:
            raise ValueError("seq/length/ack must be non-negative")
        self.seq = seq
        self.length = length
        self.ack = ack
        self.wnd = wnd
        self.syn = syn
        self.fin = fin
        self.is_ack = is_ack
        self.sack_blocks = sack_blocks
        self.offer_window_scaling = offer_window_scaling
        self.offer_sack = offer_sack

    @property
    def end(self) -> int:
        """Sequence number one past the last payload byte."""
        return self.seq + self.length


def segment_option_bytes(segment: Segment) -> int:
    """TCP option bytes this segment would carry on the wire."""
    nbytes = 0
    if segment.sack_blocks:
        # kind + len + 8 bytes per block, padded to 4-byte boundary.
        raw = 2 + 8 * len(segment.sack_blocks)
        nbytes += (raw + 3) // 4 * 4
    if segment.syn:
        if segment.offer_window_scaling:
            nbytes += 4  # 3 bytes + pad
        if segment.offer_sack:
            nbytes += 4  # sack-permitted, 2 bytes + pad
    return nbytes
