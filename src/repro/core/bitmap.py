"""The received/not-received bitmap over the whole object.

This is the data structure the paper builds FOBS around: "a very simple
data structure with one byte (or even one bit) allocated per data
packet".  We keep both.  :attr:`PacketBitmap.flags` is a ``bytearray``
with one flag byte per packet: scalar reads and writes, and a run's
mark (a byte count and a slice assignment), go to the bytes, and "first
missing at or after here" is a C ``memchr`` over them
(:meth:`bytearray.find`).  Beside it every write keeps the
acknowledgement's *image* up to date: one bit per packet, packed
MSB-first (packet 0 is the top bit of byte 0), exactly the bytes an ACK
or a RESUME carries.  So building an acknowledgement is a copy, and
merging one works on Python ints over the window of bytes it changes.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.packets import bitmap_wire_bytes

# Flag bytes <-> ASCII binary digits: with ``int(..., 2)`` and
# ``format(..., "b")`` these pack and unpack a window in C.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def canonical_image(image: bytes, npackets: int) -> bytes:
    """``image`` with the padding bits of its last byte (those past
    packet ``npackets - 1``) cleared; the same object when they are."""
    pad = len(image) * 8 - npackets
    if pad > 0 and image[-1] & ((1 << pad) - 1):
        return bytes(image[:-1]) + bytes((image[-1] >> pad << pad,))
    return image


def pack_flags(flags: bytes) -> bytes:
    """Flag bytes (0 or 1 each, one per packet) as a packed image."""
    pad = -len(flags) % 8
    return (int(flags.translate(_TO_DIGITS) or b"0", 2) << pad).to_bytes(
        bitmap_wire_bytes(len(flags)), "big")


def _pack_bools(bools, npackets: int) -> bytes:
    """A bool array of ``npackets`` as a packed image (what the DES
    resume passes and the tools build; needs NumPy)."""
    import numpy as np

    bools = np.asarray(bools, dtype=np.bool_)
    if bools.shape != (npackets,):
        raise ValueError("bitmap shape mismatch")
    return np.packbits(bools).tobytes()


class PacketBitmap:
    """Tracks per-packet receipt status with an O(1) count."""

    def __init__(self, npackets: int):
        if npackets <= 0:
            raise ValueError("npackets must be positive")
        self.npackets = npackets
        #: One byte per packet, 1 = received.  Read it freely (index,
        #: ``find(0, start)``); write only through the methods here,
        #: which keep :attr:`count` and the image true.
        self.flags = bytearray(npackets)
        # The same state, one bit per packet, MSB first.
        self._image = bytearray(bitmap_wire_bytes(npackets))
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def array(self):
        """Read-only NumPy bool view of :attr:`flags` (for tools and
        tests; imports NumPy)."""
        import numpy as np

        view = np.frombuffer(self.flags, dtype=np.bool_)
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
        self._image[seq >> 3] |= 0x80 >> (seq & 7)
        self._count += 1
        return True

    def mark_range(self, start: int, count: int) -> int:
        """Mark ``[start, start + count)`` received; returns how many
        were new.  O(count) on the flag bytes, where :meth:`merge` is
        O(npackets): the receive path marks a run of packets at once."""
        if count <= 0 or start < 0 or start + count > self.npackets:
            raise IndexError(f"range ({start}, {count}) out of [0, {self.npackets})")
        end = start + count
        added = count - self.flags.count(1, start, end)
        if added:
            self.flags[start:end] = b"\x01" * count
            image = self._image
            first, last = start >> 3, (end - 1) >> 3
            head = 0xFF >> (start & 7)
            tail = 0xFF ^ (0xFF >> (((end - 1) & 7) + 1))
            if first == last:
                image[first] |= head & tail
            else:
                image[first] |= head
                image[first + 1:last] = b"\xff" * (last - first - 1)
                image[last] |= tail
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
        self._image[seq >> 3] &= 0xFF ^ (0x80 >> (seq & 7))
        self._count -= 1
        return True

    def demote(self, seqs) -> int:
        """Clear many sequence numbers at once (verify passes hand over
        whole corrupt ranges); returns how many were set.  Nothing is
        cleared when any of them is out of range."""
        seqs = [int(seq) for seq in seqs]
        if seqs and (min(seqs) < 0 or max(seqs) >= self.npackets):
            raise IndexError("demote indices out of range")
        return sum(self.clear(seq) for seq in seqs)

    def merge(self, other) -> int:
        """OR in another bitmap — a packed image (an ACK's or a
        RESUME's), or a bool array of ``npackets`` — and return how many
        packets became new.  Padding bits of an image are ignored.

        Nothing before this bitmap's first missing packet (a
        ``memchr``) can be new: from that byte on the two images meet as
        ints, and only the bytes between the first and the last new bit
        are written back.  An ACK that adds one run costs a few big-int
        steps and a slice; one that adds many refills that span's flags
        in one ``format``/``translate``.
        """
        if isinstance(other, memoryview):
            other = other.tobytes()
        elif not isinstance(other, (bytes, bytearray)):
            other = _pack_bools(other, self.npackets)
        image = self._image
        if len(other) != len(image):
            raise ValueError("bitmap shape mismatch")
        lo = self.flags.find(0) >> 3
        if lo < 0:
            return 0
        other = canonical_image(other, self.npackets)
        ours = int.from_bytes(image[lo:], "big")
        new = (ours | int.from_bytes(other[lo:], "big")) ^ ours
        if not new:
            return 0
        # Bit b, from the least significant, is packet nbits - 1 - b.
        nbits = len(image) * 8
        low = (new & -new).bit_length() - 1
        first, last = nbits - new.bit_length(), nbits - 1 - low
        start, stop = first >> 3, (last >> 3) + 1
        span = (int.from_bytes(image[start:stop], "big")
                | new >> (len(image) - stop) * 8)
        image[start:stop] = span.to_bytes(stop - start, "big")
        added = new.bit_count()
        run = new >> low
        if run & (run + 1) == 0:
            self.flags[first:last + 1] = b"\x01" * added
        else:
            end = min(stop * 8, self.npackets)
            self.flags[start * 8:end] = format(
                span, f"0{(stop - start) * 8}b").encode().translate(
                    _TO_FLAGS)[:end - start * 8]
        self._count += added
        return added

    def snapshot(self) -> bytes:
        """The packed image of the current state: an ACK's bitmap."""
        return bytes(self._image)

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

    def runs(self) -> Iterator[tuple[int, int]]:
        """The received packets as ascending ``(start, count)`` runs,
        found a ``memchr`` at a time."""
        find, n = self.flags.find, self.npackets
        start = find(1)
        while start >= 0:
            end = find(0, start)
            if end < 0:
                end = n
            yield start, end - start
            start = find(1, end)

    def received(self) -> list[int]:
        """All received sequence numbers, ascending."""
        return [seq for start, count in self.runs()
                for seq in range(start, start + count)]

    def missing_indices(self):
        """All missing sequence numbers, ascending, as a NumPy array
        (for the tools and the ablation schedulers)."""
        import numpy as np

        return np.flatnonzero(self.array == 0)

    def iter_missing(self) -> Iterator[int]:
        find = self.flags.find
        seq = find(0)
        while seq >= 0:
            yield seq
            seq = find(0, seq + 1)

    # ------------------------------------------------------------------
    # Wire encoding (used by the real-socket runtime backend)
    # ------------------------------------------------------------------
    to_bytes = snapshot

    @classmethod
    def from_bytes(cls, data: bytes, npackets: int) -> "PacketBitmap":
        bm = cls(npackets)
        bm.merge(data)
        return bm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketBitmap({self._count}/{self.npackets})"
