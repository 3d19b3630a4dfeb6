"""Per-chunk digest manifest: end-to-end integrity for FOBS objects.

The whole-object bitmap makes repair trivial — any packet marked
unreceived is simply re-sent — but it *trusts the receiver's disk*.  A
torn payload write, bit rot under a resumed journal, or a buggy
filesystem leaves the bitmap claiming bytes the object no longer holds.
This module closes that gap with a digest per packet-sized chunk of the
source object, computed once by the sender and checked by the receiver
on resume and on completion.  A corrupt chunk is *demoted*: its bitmap
bit is cleared and the ordinary FOBS machinery re-fetches it.
Corruption repair is bitmap arithmetic, not a new transfer mode.

Wire/file layout (all integers big-endian)::

    HEADER  !IQIBBHI  magic, total_bytes, packet_size, algo, reserved,
                      digest_size, crc32(header[:-4] || digest blob)
    BLOB    npackets x digest_size raw digests, chunk order

The same bytes serve as the PROTOCOL.md §10 ``VERIFY`` frame body and
as the sidecar manifest file used by ``repro verify``.  The trailing
CRC32 covers the header fields *and* the digest blob, so any
single-byte flip anywhere in a manifest is detected (CRC32 detects all
burst errors up to 32 bits) and the manifest is rejected rather than
trusted — a corrupt manifest must never demote good data or bless bad
data.

Algorithms: ``ALGO_CRC32`` (4-byte digests, the default — fast, and
sufficient against non-adversarial storage faults) and ``ALGO_SHA256``
(32-byte digests for cryptographic strength).  Both ends must be able
to compute whichever algorithm the sender announces; unknown algorithm
ids fail decode loudly.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import (BinaryIO, Generator, Iterable, List, Optional, Sequence,
                    Tuple, Union)

MANIFEST_MAGIC = 0xF0B5D165
_HEADER = struct.Struct("!IQIBBHI")
MANIFEST_HEADER_BYTES = _HEADER.size

ALGO_CRC32 = 1
ALGO_SHA256 = 2
_ALGO_SIZES = {ALGO_CRC32: 4, ALGO_SHA256: 32}
ALGO_NAMES = {ALGO_CRC32: "crc32", ALGO_SHA256: "sha256"}
#: Largest single read of an audit (:meth:`ChunkManifest.verify_file`,
#: the whole-object CRC fallback): verifying an object never costs an
#: object's worth of memory.
VERIFY_READ_BYTES = 1 << 20


def max_manifest_bytes(npackets: int) -> int:
    """Largest encoding a manifest of ``npackets`` chunks can have."""
    return MANIFEST_HEADER_BYTES + npackets * max(_ALGO_SIZES.values())


class ManifestCorrupt(ValueError):
    """The manifest bytes are unusable (short, bad magic/CRC, or an
    unknown digest algorithm).  Callers must not demote or bless
    anything on its say-so; fall back to whole-object CRC."""


def _digest_chunk(chunk: bytes, algo: int) -> bytes:
    if algo == ALGO_CRC32:
        return struct.pack("!I", zlib.crc32(chunk))
    if algo == ALGO_SHA256:
        return hashlib.sha256(chunk).digest()
    raise ValueError(f"unknown manifest algorithm {algo}")


def _digest_chunks(data, chunk_size: int, algo: int) -> bytes:
    """Digests of every ``chunk_size`` slice of ``data`` (views, never
    copies), concatenated."""
    if 0 < len(data) <= chunk_size:  # one chunk: most dataset members
        return _digest_chunk(data, algo)
    view = memoryview(data)
    chunks = (view[off:off + chunk_size]
              for off in range(0, len(view), chunk_size))
    if algo == ALGO_CRC32:
        crcs = list(map(zlib.crc32, chunks))
        return struct.pack(f"!{len(crcs)}I", *crcs)
    return b"".join(_digest_chunk(chunk, algo) for chunk in chunks)


def _file_digests(path: str, chunk_size: int, algo: int) -> Tuple[int, bytes]:
    """Size and chunk digests of the file at ``path`` as one pass to EOF
    reads it: ``os.read`` windows of whole chunks, digested through views."""
    window = max(1, VERIFY_READ_BYTES // chunk_size) * chunk_size
    fd = os.open(path, os.O_RDONLY)
    try:
        size, parts = 0, []
        while True:
            data = os.read(fd, window)
            while 0 < len(data) < window:  # short only at EOF
                more = os.read(fd, window - len(data))
                if not more:
                    break
                data += more
            size += len(data)
            parts.append(_digest_chunks(data, chunk_size, algo))
            if len(data) < window:
                return size, b"".join(parts)
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ChunkManifest:
    """Digests for every packet-sized chunk of one object."""

    total_bytes: int
    packet_size: int
    algo: int
    digests: bytes  # npackets * digest_size raw digests, chunk order

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        size = _ALGO_SIZES.get(self.algo)
        if size is None:
            raise ValueError(f"unknown manifest algorithm {self.algo}")
        if len(self.digests) != self.npackets * size:
            raise ValueError(
                f"digest blob is {len(self.digests)}B, expected "
                f"{self.npackets} x {size}B")

    @property
    def npackets(self) -> int:
        return -(-self.total_bytes // self.packet_size)

    @property
    def digest_size(self) -> int:
        return _ALGO_SIZES[self.algo]

    @property
    def algo_name(self) -> str:
        return ALGO_NAMES[self.algo]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_data(
        cls, data: bytes, packet_size: int, algo: int = ALGO_CRC32
    ) -> "ChunkManifest":
        """Digest an in-memory object chunk by chunk."""
        if not data:
            raise ValueError("cannot build a manifest over an empty object")
        return cls(total_bytes=len(data), packet_size=packet_size,
                   algo=algo, digests=_digest_chunks(data, packet_size, algo))

    @classmethod
    def digesting(
        cls, windows: Iterable, packet_size: int, algo: int = ALGO_CRC32
    ) -> Generator[None, None, "ChunkManifest"]:
        """Digest an object read a window at a time, one step per
        window: ``windows`` yields its bytes in order, every window but
        the last a whole number of chunks.  The generator returns the
        manifest."""
        total = 0
        parts: List[bytes] = []
        for data in windows:
            total += len(data)
            parts.append(_digest_chunks(data, packet_size, algo))
            yield
        if total <= 0:
            raise ValueError("cannot build a manifest over an empty object")
        return cls(total_bytes=total, packet_size=packet_size,
                   algo=algo, digests=b"".join(parts))

    @classmethod
    def from_file(
        cls, path: str, packet_size: int, algo: int = ALGO_CRC32
    ) -> "ChunkManifest":
        """Digest an on-disk object without holding it all in memory:
        one pass to EOF, a window of whole chunks at a time."""
        total, digests = _file_digests(path, packet_size, algo)
        if not total:
            raise ValueError("cannot build a manifest over an empty object")
        return cls(total_bytes=total, packet_size=packet_size,
                   algo=algo, digests=digests)

    # ------------------------------------------------------------------
    # Wire / sidecar codec (same bytes for both)
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        head = _HEADER.pack(
            MANIFEST_MAGIC, self.total_bytes, self.packet_size,
            self.algo, 0, self.digest_size, 0,
        )[:-4]
        crc = zlib.crc32(self.digests, zlib.crc32(head))
        return head + struct.pack("!I", crc) + self.digests

    @classmethod
    def decode(cls, data: bytes) -> "ChunkManifest":
        if len(data) < MANIFEST_HEADER_BYTES:
            raise ManifestCorrupt("manifest shorter than its header")
        magic, total, psize, algo, _rsvd, dsize, crc = _HEADER.unpack_from(data)
        if magic != MANIFEST_MAGIC:
            raise ManifestCorrupt(f"bad manifest magic {magic:#x}")
        size = _ALGO_SIZES.get(algo)
        if size is None:
            raise ManifestCorrupt(f"unknown manifest algorithm {algo}")
        if dsize != size:
            raise ManifestCorrupt(
                f"digest size {dsize} does not match algorithm {algo}")
        if total <= 0 or psize <= 0:
            raise ManifestCorrupt("manifest declares a degenerate object")
        npackets = -(-total // psize)
        blob = data[MANIFEST_HEADER_BYTES:MANIFEST_HEADER_BYTES + npackets * size]
        if len(blob) != npackets * size:
            raise ManifestCorrupt("manifest digest blob truncated")
        expect = zlib.crc32(blob, zlib.crc32(data[:MANIFEST_HEADER_BYTES - 4]))
        if expect != crc:
            raise ManifestCorrupt("manifest failed CRC32 verification")
        return cls(total_bytes=total, packet_size=psize,
                   algo=algo, digests=bytes(blob))

    @property
    def encoded_size(self) -> int:
        return MANIFEST_HEADER_BYTES + len(self.digests)

    def save(self, path: str) -> None:
        """Write the sidecar manifest file (atomic via rename)."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ChunkManifest":
        with open(path, "rb") as fh:
            return cls.decode(fh.read())

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def digest_for(self, seq: int) -> bytes:
        size = self.digest_size
        return self.digests[seq * size:(seq + 1) * size]

    def chunk_length(self, seq: int) -> int:
        if seq == self.npackets - 1:
            tail = self.total_bytes - seq * self.packet_size
            return tail
        return self.packet_size

    def check_chunk(self, seq: int, chunk: bytes) -> bool:
        """True when ``chunk`` matches the recorded digest for ``seq``."""
        if not 0 <= seq < self.npackets:
            raise IndexError(f"seq {seq} out of range [0, {self.npackets})")
        if len(chunk) != self.chunk_length(seq):
            return False
        return _digest_chunk(chunk, self.algo) == self.digest_for(seq)

    def verify_file(
        self,
        fh: Union[str, BinaryIO],
        seqs: Optional[Sequence[int]] = None,
    ) -> List[int]:
        """Audit chunks of an on-disk object against the manifest.

        ``seqs`` restricts the audit to those chunk indices (e.g. the
        journal-claimed packets on resume); None audits every chunk.
        Returns the ascending list of corrupt chunk indices *among
        those checked* — empty means everything checked is intact.
        Reading past EOF (a short or torn file) counts as corrupt.
        No single read is larger than :data:`VERIFY_READ_BYTES`.
        """
        if isinstance(fh, str):
            with open(fh, "rb") as real:
                return self.verify_file(real, seqs)
        runs = ([(0, self.npackets)] if seqs is None
                else corrupt_ranges(seqs))
        if runs and (runs[0][0] < 0 or sum(runs[-1]) > self.npackets):
            raise IndexError(f"seqs outside [0, {self.npackets})")
        psize = self.packet_size
        # CRC32 digests are compared as one unpacked column of ints;
        # check_chunk is the reference, and what everything else takes.
        crcs = (list(struct.unpack(f"!{self.npackets}I", self.digests))
                if self.algo == ALGO_CRC32 else None)
        # Bounded memory, few syscalls: each run of consecutive chunks
        # is read a window at a time and digested through views of it.
        window = max(1, VERIFY_READ_BYTES // psize)
        bad: List[int] = []
        for start, count in runs:
            for first in range(start, start + count, window):
                stop = min(first + window, start + count)
                fh.seek(first * psize)
                want = min(stop * psize, self.total_bytes) - first * psize
                view = memoryview(fh.read(want))
                chunks = (view[off:off + psize]
                          for off in range(0, want, psize))
                if crcs is not None and len(view) == want:
                    # Every byte asked for is here, so every slice has
                    # its chunk's length (the last runs off the end):
                    # one compare for the window, a search only when
                    # it differs.
                    got = list(map(zlib.crc32, chunks))
                    if got != crcs[first:stop]:
                        bad.extend(seq for seq, crc in zip(
                            range(first, stop), got) if crc != crcs[seq])
                else:
                    bad.extend(seq for seq, chunk in zip(
                        range(first, stop), chunks)
                        if not self.check_chunk(seq, chunk))
        return bad

    def verify_blob(
        self, data: bytes, seqs: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Audit chunks of an in-memory object; same contract as
        :meth:`verify_file`."""
        return self.verify_file(io.BytesIO(data), seqs)


def corrupt_ranges(seqs: Sequence[int]) -> List[Tuple[int, int]]:
    """Coalesce ascending chunk indices into (start, count) runs."""
    runs: List[Tuple[int, int]] = []
    for seq in sorted(int(s) for s in seqs):
        if runs and seq == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((seq, 1))
    return runs


@dataclass
class VerifyStats:
    """Outcome of one verify pass (resume audit or completion audit).

    Threaded through attempt outcomes into :class:`SupervisedResult`
    and ``recovery_report`` so operators can see how much corruption
    the digest layer caught and repaired.
    """

    #: "resume" or "complete" — which pass this was.
    phase: str = ""
    #: Digest source: "manifest" (per-chunk) or "crc32" (whole-object
    #: fallback, which can only demote everything).
    mode: str = "manifest"
    chunks_checked: int = 0
    chunks_corrupt: int = 0
    ranges_demoted: int = 0
    bytes_demoted: int = 0
    duration: float = 0.0
    corrupt_seqs: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.chunks_corrupt == 0

    def merge(self, other: "VerifyStats") -> None:
        self.chunks_checked += other.chunks_checked
        self.chunks_corrupt += other.chunks_corrupt
        self.ranges_demoted += other.ranges_demoted
        self.bytes_demoted += other.bytes_demoted
        self.duration += other.duration
        self.corrupt_seqs.extend(other.corrupt_seqs)


__all__ = [
    "ALGO_CRC32",
    "ALGO_SHA256",
    "ALGO_NAMES",
    "ChunkManifest",
    "ManifestCorrupt",
    "MANIFEST_MAGIC",
    "max_manifest_bytes",
    "MANIFEST_HEADER_BYTES",
    "VerifyStats",
    "corrupt_ranges",
]
