"""Receiver-side sequence space reassembly.

Tracks which byte ranges have arrived, computes the cumulative
acknowledgement point, and produces SACK blocks for out-of-order data.
Backed by a sorted list of disjoint intervals — bulk transfers with
isolated losses keep this list very short, so linear merging is cheap.
"""

from __future__ import annotations

from bisect import bisect_left


class ReassemblyBuffer:
    """Byte-interval set over the receive sequence space."""

    def __init__(self, rcv_nxt: int = 0):
        #: next in-order byte expected (cumulative ACK point)
        self.rcv_nxt = rcv_nxt
        #: disjoint, sorted (start, end) intervals strictly above rcv_nxt
        self._ooo: list[tuple[int, int]] = []
        #: total length of ``_ooo``, kept as it changes: read per segment
        self._ooo_bytes = 0
        #: most recently created/extended interval, reported first in SACK
        self._recent: tuple[int, int] | None = None
        self.duplicate_bytes = 0

    # ------------------------------------------------------------------
    def add(self, seq: int, length: int) -> int:
        """Insert ``[seq, seq+length)``; returns bytes newly accepted.

        Data at or below ``rcv_nxt`` counts as duplicate; the cumulative
        point advances over any out-of-order intervals it meets.
        """
        if length <= 0:
            return 0
        start, end = seq, seq + length
        if end <= self.rcv_nxt:
            self.duplicate_bytes += length
            return 0
        if start < self.rcv_nxt:
            self.duplicate_bytes += self.rcv_nxt - start
            start = self.rcv_nxt

        new_bytes = end - start
        ooo = self._ooo
        i = bisect_left(ooo, (start, start))
        # Merge with a predecessor that overlaps or abuts.
        if i > 0 and ooo[i - 1][1] >= start:
            i -= 1
            prev_start, prev_end = ooo[i]
            overlap = min(prev_end, end) - start
            if overlap > 0:
                new_bytes -= overlap
                self.duplicate_bytes += overlap
            start = prev_start
            end = max(prev_end, end)
            del ooo[i]
            self._ooo_bytes -= prev_end - prev_start
        # Merge with successors.
        while i < len(ooo) and ooo[i][0] <= end:
            nxt_start, nxt_end = ooo[i]
            overlap = min(nxt_end, end) - max(nxt_start, start)
            if overlap > 0:
                new_bytes -= overlap
                self.duplicate_bytes += overlap
            end = max(end, nxt_end)
            del ooo[i]
            self._ooo_bytes -= nxt_end - nxt_start
        ooo.insert(i, (start, end))
        self._ooo_bytes += end - start
        self._recent = (start, end)
        if new_bytes <= 0:
            # fully duplicate of existing out-of-order data
            return 0

        # Advance the cumulative point through any now-contiguous data.
        while ooo and ooo[0][0] <= self.rcv_nxt:
            s, e = ooo.pop(0)
            self._ooo_bytes -= e - s
            if e > self.rcv_nxt:
                self.rcv_nxt = e
        if self._recent and self._recent[1] <= self.rcv_nxt:
            self._recent = None
        return new_bytes

    # ------------------------------------------------------------------
    @property
    def ooo_bytes(self) -> int:
        """Out-of-order bytes held above the cumulative point."""
        return self._ooo_bytes

    def sack_blocks(self, max_blocks: int = 3) -> tuple[tuple[int, int], ...]:
        """Up to ``max_blocks`` SACK blocks, most recent first (RFC 2018)."""
        if not self._ooo:
            return ()
        blocks: list[tuple[int, int]] = []
        if self._recent is not None and self._recent in self._ooo:
            blocks.append(self._recent)
        for iv in reversed(self._ooo):
            if iv not in blocks:
                blocks.append(iv)
            if len(blocks) >= max_blocks:
                break
        return tuple(blocks[:max_blocks])

    def is_complete_through(self, nbytes: int) -> bool:
        """True once every byte below ``nbytes`` has arrived in order."""
        return self.rcv_nxt >= nbytes
