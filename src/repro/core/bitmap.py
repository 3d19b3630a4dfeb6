"""The received/not-received bitmap over the whole object.

This is the data structure the paper builds FOBS around: "a very simple
data structure with one byte (or even one bit) allocated per data
packet".  We keep exactly that — a ``bytearray`` with one flag byte per
packet — and pack to one bit per packet on the wire.  Scalar reads and
writes go to the bytes, "first missing at or after here" is a C
``memchr`` over them (:meth:`bytearray.find`), and the bulk operations
(merge, count, snapshot, packing) are vectorized on a NumPy bool view
of the same memory — the sender touches this structure for every
acknowledgement of a multi-thousand-packet object.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np


class PacketBitmap:
    """Tracks per-packet receipt status with an O(1) count."""

    def __init__(self, npackets: int):
        if npackets <= 0:
            raise ValueError("npackets must be positive")
        self.npackets = npackets
        #: One byte per packet, 1 = received.  Read it freely (index,
        #: ``find(0, start)``); write only through the methods here,
        #: which keep :attr:`count` true.
        self.flags = bytearray(npackets)
        # The same memory as a bool array, for the bulk operations.
        self._arr = np.frombuffer(self.flags, dtype=np.bool_)
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying boolean array."""
        view = self._arr.view()
        view.setflags(write=False)
        return view

    @property
    def count(self) -> int:
        return self._count

    @property
    def missing(self) -> int:
        return self.npackets - self._count

    @property
    def is_complete(self) -> bool:
        return self._count == self.npackets

    # ------------------------------------------------------------------
    def mark(self, seq: int) -> bool:
        """Mark ``seq`` received; True if it was new."""
        if not 0 <= seq < self.npackets:
            raise IndexError(f"seq {seq} out of range [0, {self.npackets})")
        if self.flags[seq]:
            return False
        self.flags[seq] = 1
        self._count += 1
        return True

    def mark_range(self, start: int, count: int) -> int:
        """Mark ``[start, start + count)`` received; returns how many
        were new.  O(count), where :meth:`merge` is O(npackets)."""
        if count <= 0 or start < 0 or start + count > self.npackets:
            raise IndexError(f"range ({start}, {count}) out of [0, {self.npackets})")
        run = self._arr[start:start + count]
        added = count - int(np.count_nonzero(run))
        if added:
            run[:] = True
            self._count += added
        return added

    def clear(self, seq: int) -> bool:
        """Demote ``seq`` back to unreceived; True if it was set.

        The inverse of :meth:`mark`, used by the verify passes: a chunk
        whose on-disk bytes fail their digest is cleared so the
        ordinary FOBS machinery re-fetches it.
        """
        if not 0 <= seq < self.npackets:
            raise IndexError(f"seq {seq} out of range [0, {self.npackets})")
        if not self.flags[seq]:
            return False
        self.flags[seq] = 0
        self._count -= 1
        return True

    def demote(self, seqs) -> int:
        """Clear many sequence numbers at once; returns how many were
        actually set (vectorized — verify passes hand over whole
        corrupt-range arrays)."""
        idx = np.asarray(seqs, dtype=np.int64)
        if idx.size == 0:
            return 0
        if idx.min() < 0 or idx.max() >= self.npackets:
            raise IndexError("demote indices out of range")
        was_set = int(np.count_nonzero(self._arr[idx]))
        self._arr[idx] = False
        self._count = int(np.count_nonzero(self._arr))
        return was_set

    def merge(self, other: np.ndarray) -> int:
        """OR in another bitmap; returns how many packets became new."""
        if other.shape != self._arr.shape:
            raise ValueError("bitmap shape mismatch")
        np.logical_or(self._arr, other, out=self._arr)
        new_count = int(np.count_nonzero(self._arr))
        added = new_count - self._count
        self._count = new_count
        return added

    def snapshot(self) -> np.ndarray:
        """Immutable copy of the current state (for an ACK packet)."""
        copy = self._arr.copy()
        copy.setflags(write=False)
        return copy

    # ------------------------------------------------------------------
    def next_missing(self, start: int = 0) -> Optional[int]:
        """First missing seq at or after ``start``, wrapping circularly.

        Returns None when complete.  The scan is a ``memchr``; callers
        that sweep monotonically (the circular scheduler) get amortized
        constant cost per call.
        """
        if self.is_complete:
            return None
        if not 0 <= start < self.npackets:
            start %= self.npackets
        seq = self.flags.find(0, start)
        return seq if seq >= 0 else self.flags.find(0)

    def missing_indices(self) -> np.ndarray:
        """All missing sequence numbers, ascending."""
        return np.flatnonzero(~self._arr)

    def iter_missing(self) -> Iterator[int]:
        return iter(self.missing_indices().tolist())

    # ------------------------------------------------------------------
    # Wire encoding (used by the real-socket runtime backend)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Pack to one bit per packet (big-endian within bytes)."""
        return np.packbits(self._arr).tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, npackets: int) -> "PacketBitmap":
        bm = cls(npackets)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=npackets)
        bm._arr[:] = bits.astype(np.bool_)
        bm._count = int(np.count_nonzero(bm._arr))
        return bm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketBitmap({self._count}/{self.npackets})"
