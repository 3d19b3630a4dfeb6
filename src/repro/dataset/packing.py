"""Packer/splitter: turn a dataset into well-sized transfer objects.

FOBS moves *objects*; a real tree is the worst of both worlds — millions
of files too small to amortize a session handshake, and a few files too
large for one bitmap to scale (Ghaderi & Towsley's window argument).
The planner normalizes both ends:

* files smaller than ``pack_threshold`` are **coalesced** into packed
  objects of up to ``object_bytes`` payload (tar-like framing with a
  per-member digest, so each member is independently verifiable);
* files larger than ``object_bytes`` are **striped** into fixed-size
  chunk objects of exactly ``object_bytes`` (plus a tail), each an
  independently acked, independently resumable transfer;
* everything in between ships as a single whole-file object.

``object_bytes`` must be a multiple of the manifest's ``chunk_size`` so
every member's byte range starts on a digest boundary — resume audits
can then verify any member against the dataset manifest without
re-reading neighbours.

Packed-object wire format (all integers big-endian)::

    OBJ_HEADER !IHBBI   magic, version, algo, kind, nmembers
    MEMBER     !HHQQ    path_len, reserved, file_offset, length
               path bytes, digest(payload), payload
    TRAILER    !I       crc32 over every preceding byte

Every object — packed, whole or stripe — uses the same self-describing
framing, so a receiver can unpack any object with nothing but the
bytes: the trailer CRC rejects any single-byte flip outright, and the
per-member digests localize corruption to the member for re-fetch.

Each side CRCs a CRC-32 object's payload once, for its member digests, and
folds the trailer CRC from them: ``crc32(A + B) == _crc32_combine(crc32(A),
crc32(B), len(B))``.  SHA-256 members and any under ``_FOLD_MIN`` feed it.
Unpacked against the dataset manifest, a CRC-32 member's digest is itself
combined from the cross-check's chunk CRCs, so the receiver too CRCs a
payload byte once.
"""

from __future__ import annotations

import functools
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.manifest import ALGO_CRC32, _digest_chunk, _digest_chunks
from repro.dataset.manifest import DatasetManifest

OBJECT_MAGIC = 0xF0B50B7E
OBJECT_VERSION = 1
_OBJ_HEADER = struct.Struct("!IHBBI")
_MEMBER = struct.Struct("!HHQQ")
_CRC = struct.Struct("!I")

_ALGO_SIZES = {1: 4, 2: 32}

#: From here up a combine (3-12 us) beat a CRC pass at all of 40 random
#: lengths an octave; under 8 KiB it lost at all (2-vCPU Xeon, 3.11).
_FOLD_MIN = 16 * 1024
_SHIFTS: Dict[int, Callable[[int], int]] = {}  # n: r -> r * x^(8*2^n) mod P

KIND_PACKED = 1
KIND_WHOLE = 2
KIND_STRIPE = 3
KIND_NAMES = {KIND_PACKED: "packed", KIND_WHOLE: "whole",
              KIND_STRIPE: "stripe"}


class PackCorrupt(ValueError):
    """An object's bytes are unusable (bad magic/CRC/framing) or a
    member's payload fails its digest."""


@dataclass(frozen=True)
class PackingConfig:
    """Sizing policy for the planner."""

    #: Target payload bytes per transfer object; stripes are exactly
    #: this size (tail excepted), packed objects close at it.
    object_bytes: int = 4 * 1024 * 1024
    #: Files strictly smaller than this are coalesced into packed
    #: objects; larger ones ship whole (or striped past object_bytes).
    pack_threshold: int = 1024 * 1024

    def validate(self, chunk_size: int) -> None:
        if self.object_bytes <= 0:
            raise ValueError("object_bytes must be positive")
        if not 0 < self.pack_threshold <= self.object_bytes:
            raise ValueError(
                "pack_threshold must be in (0, object_bytes]")
        if self.object_bytes % chunk_size:
            raise ValueError(
                f"object_bytes ({self.object_bytes}) must be a multiple "
                f"of the manifest chunk_size ({chunk_size})")


@dataclass(frozen=True)
class ObjectMember:
    """One byte range of one source file carried by an object."""

    path: str
    file_offset: int
    length: int


@dataclass(frozen=True)
class PlannedObject:
    """One unit of transfer."""

    index: int
    kind: int
    members: Tuple[ObjectMember, ...]
    #: Stripe ordinal within its file (0 for packed/whole objects).
    stripe: int = 0
    nstripes: int = 1

    @property
    def kind_name(self) -> str:
        return KIND_NAMES[self.kind]

    @property
    def name(self) -> str:
        return f"obj-{self.index:08d}.{self.kind_name}"

    @property
    def payload_bytes(self) -> int:
        return sum(m.length for m in self.members)

    def wire_bytes(self, algo: int = ALGO_CRC32) -> int:
        """Exact encoded size without reading any data."""
        dsize = _ALGO_SIZES[algo]
        total = _OBJ_HEADER.size + _CRC.size
        for m in self.members:
            total += (_MEMBER.size + len(m.path.encode("utf-8"))
                      + dsize + m.length)
        return total


@dataclass
class TransferPlan:
    """The full object decomposition of one dataset."""

    manifest: DatasetManifest
    config: PackingConfig
    objects: Tuple[PlannedObject, ...]
    #: Files with size zero — materialized directly, never transferred.
    empty_files: Tuple[str, ...] = ()
    packed_files: int = 0
    whole_files: int = 0
    striped_files: int = 0

    @property
    def nobjects(self) -> int:
        return len(self.objects)

    @property
    def payload_bytes(self) -> int:
        return sum(o.payload_bytes for o in self.objects)

    def wire_bytes(self) -> int:
        return sum(o.wire_bytes(self.manifest.algo) for o in self.objects)

    def counts(self) -> Dict[str, int]:
        out = {name: 0 for name in KIND_NAMES.values()}
        for obj in self.objects:
            out[obj.kind_name] += 1
        return out


def plan_objects(
    manifest: DatasetManifest, config: Optional[PackingConfig] = None
) -> TransferPlan:
    """Deterministically decompose a manifest into transfer objects.

    Iterates entries in manifest (path-sorted) order, so the same
    manifest always yields the same plan.  Invariant: every byte of
    every non-empty file is covered by exactly one member of exactly
    one object.
    """
    config = config if config is not None else PackingConfig()
    config.validate(manifest.chunk_size)
    objects: List[PlannedObject] = []
    empty: List[str] = []
    packed = whole = striped = 0
    pending: List[ObjectMember] = []
    pending_bytes = 0

    def close_pack() -> None:
        nonlocal pending, pending_bytes
        if pending:
            objects.append(PlannedObject(index=len(objects),
                                         kind=KIND_PACKED,
                                         members=tuple(pending)))
            pending = []
            pending_bytes = 0

    for entry in manifest.entries:
        if entry.size == 0:
            empty.append(entry.path)
        elif entry.size < config.pack_threshold:
            if pending and pending_bytes + entry.size > config.object_bytes:
                close_pack()
            pending.append(ObjectMember(entry.path, 0, entry.size))
            pending_bytes += entry.size
            packed += 1
        elif entry.size <= config.object_bytes:
            objects.append(PlannedObject(
                index=len(objects), kind=KIND_WHOLE,
                members=(ObjectMember(entry.path, 0, entry.size),)))
            whole += 1
        else:
            nstripes = -(-entry.size // config.object_bytes)
            for i in range(nstripes):
                off = i * config.object_bytes
                length = min(config.object_bytes, entry.size - off)
                objects.append(PlannedObject(
                    index=len(objects), kind=KIND_STRIPE,
                    members=(ObjectMember(entry.path, off, length),),
                    stripe=i, nstripes=nstripes))
            striped += 1
    close_pack()
    return TransferPlan(manifest=manifest, config=config,
                        objects=tuple(objects), empty_files=tuple(empty),
                        packed_files=packed, whole_files=whole,
                        striped_files=striped)


# ----------------------------------------------------------------------
# Object codec
# ----------------------------------------------------------------------

@dataclass
class UnpackedMember:
    """One member recovered (and digest-verified) from an object.

    ``payload`` is a view into the delivered object, not a copy: it is
    valid while that object is, and changes if the object is mutated.
    """

    path: str
    file_offset: int
    payload: memoryview

    @property
    def length(self) -> int:
        return len(self.payload)


def _multiplier(a: int) -> Callable[[int], int]:
    """``r -> a * r mod P``, one table lookup per byte of ``r``."""
    tables: List[List[int]] = []
    for _ in range(4):  # bit 31 of r is x^0
        table = [0]
        for _ in range(8):  # a * x^i joins as the index's lowest bit
            table = [w for v in table for w in (v, v ^ a)]
            a = a >> 1 ^ 0xEDB88320 if a & 1 else a >> 1  # P, as zlib has it
        tables.insert(0, table)
    t0, t1, t2, t3 = tables
    return lambda r: (t0[r & 255] ^ t1[r >> 8 & 255] ^ t2[r >> 16 & 255]
                      ^ t3[r >> 24])


def _crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``crc32(A + B)`` from ``crc32(A)``, ``crc32(B)``, ``len(B)``, as in
    zlib: ``crc1 * x^(8 * len2) mod P ^ crc2``, by repeated squares."""
    for n in range(len2.bit_length()):
        if n not in _SHIFTS:  # x^8, then each the last one squared
            _SHIFTS.setdefault(n, _multiplier(  # atomic: one entry wins
                _SHIFTS[n - 1](_SHIFTS[n - 1](1 << 31)) if n else 1 << 23))
        if len2 >> n & 1:
            crc1 = _SHIFTS[n](crc1)
    return crc1 ^ crc2


@functools.lru_cache(maxsize=None)
def _shift(nbytes: int) -> Callable[[int], int]:
    """``_crc32_combine`` for a fixed ``len(B)``: ``r -> r * x^(8*nbytes)``."""
    return _multiplier(_crc32_combine(1 << 31, 0, nbytes))


def _joined_crc(crcs: bytes, length: int, chunk_size: int) -> int:
    """``zlib.crc32`` of a ``length``-byte payload from its
    ``chunk_size``-byte chunks' CRCs, packed as digests: one fixed
    multiply per chunk but the last, a general combine for that one."""
    crc, *rest = struct.unpack(f"!{len(crcs) // 4}I", crcs)
    if not rest:
        return crc
    shift = _shift(chunk_size)
    for value in rest[:-1]:
        crc = shift(crc) ^ value
    return _crc32_combine(crc, rest[-1], length - len(rest) * chunk_size)


def _fold(crc: int, framing: memoryview, payload: memoryview, algo: int,
          digest: Optional[bytes] = None) -> Tuple[bytes, int]:
    """``payload``'s digest (``digest``, when the caller derived it), and
    the trailer CRC ``crc`` carried over ``framing``, that digest and
    ``payload``."""
    if digest is None:
        digest = _digest_chunk(payload, algo)
    crc = zlib.crc32(digest, zlib.crc32(framing, crc))
    if algo != ALGO_CRC32 or len(payload) < _FOLD_MIN:
        return digest, zlib.crc32(payload, crc)
    return digest, _crc32_combine(crc, _CRC.unpack(digest)[0], len(payload))


def _pread_into(fd: int, view: memoryview, offset: int) -> int:
    """Fill ``view`` from ``fd`` at ``offset``; bytes read (short at EOF)."""
    got = 0
    while got < len(view):
        n = os.preadv(fd, [view[got:]], offset + got)
        if not n:
            break
        got += n
    return got


def pack_object(
    obj: PlannedObject,
    root: str,
    algo: int = ALGO_CRC32,
    data: Optional[Dict[str, bytes]] = None,
) -> bytearray:
    """Materialize one planned object from the source tree.

    The object is built in one buffer of ``obj.wire_bytes(algo)``: each
    member's bytes are read straight into their slot and digested
    there, and the trailer CRC, folded from theirs, is written in place.
    ``data``, when given, supplies file contents by relative path
    instead of reading from ``root`` (tests, in-memory pipelines).
    """
    dsize = _ALGO_SIZES[algo]
    buf = bytearray(obj.wire_bytes(algo))
    view = memoryview(buf)
    _OBJ_HEADER.pack_into(buf, 0, OBJECT_MAGIC, OBJECT_VERSION, algo,
                          obj.kind, len(obj.members))
    off = _OBJ_HEADER.size
    crc = zlib.crc32(view[:off])
    for m in obj.members:
        start = off
        raw = m.path.encode("utf-8")
        _MEMBER.pack_into(buf, off, len(raw), 0, m.file_offset, m.length)
        off += _MEMBER.size
        buf[off:off + len(raw)] = raw
        digest_at = off + len(raw)
        off = digest_at + dsize
        slot = view[off:off + m.length]
        if data is not None:
            payload = data[m.path][m.file_offset:m.file_offset + m.length]
            got = len(payload)
            slot[:got] = payload
        else:
            fd = os.open(os.path.join(root, m.path.replace("/", os.sep)),
                         os.O_RDONLY)
            try:
                got = _pread_into(fd, slot, m.file_offset)
            finally:
                os.close(fd)
        if got != m.length:
            raise PackCorrupt(
                f"{m.path}: source shrank under the packer "
                f"({got} of {m.length} bytes at {m.file_offset})")
        buf[digest_at:off], crc = _fold(crc, view[start:digest_at], slot, algo)
        off += m.length
    _CRC.pack_into(buf, off, crc)
    return buf


def unpack_object(
    blob: bytes, manifest: Optional[DatasetManifest] = None
) -> Tuple[int, List[UnpackedMember]]:
    """Parse and verify one object; returns ``(kind, members)``.

    The trailer CRC is checked first (any single-byte flip anywhere in
    the object fails it), then each member's payload digest — a failed
    digest names the member, so callers can demote exactly that byte
    range.  Raises :class:`PackCorrupt` on any damage; partial results
    are never returned.  Every check reads ``blob`` through views, and
    each member's ``payload`` is one.  The body is CRC'd whole only if
    the fold disagrees or a later check fails.

    With ``manifest``, every member is also cross-checked against it,
    as :func:`verify_members_against_manifest` does, and the members that
    disagree are named in a last :class:`PackCorrupt`.  A CRC-32 member's
    digest is then combined from the cross-check's chunk CRCs (when the
    manifest is CRC-32 too) instead of taken in a second pass.
    """
    if len(blob) < _OBJ_HEADER.size + _CRC.size:
        raise PackCorrupt("object shorter than its header")
    view = memoryview(blob)
    body = view[:-_CRC.size]
    (trailer,) = _CRC.unpack_from(view, len(body))
    try:
        kind, members, folded, bad = _parse(body, manifest)
    except PackCorrupt:
        if zlib.crc32(body) != trailer:
            raise PackCorrupt("object failed CRC32 verification") from None
        raise
    if folded != trailer and zlib.crc32(body) != trailer:
        raise PackCorrupt("object failed CRC32 verification")
    if bad:
        raise PackCorrupt(
            f"member(s) {bad} do not match the dataset manifest")
    return kind, members


def _parse(
    body: memoryview, manifest: Optional[DatasetManifest]
) -> Tuple[int, List[UnpackedMember], int, List[str]]:
    """The checks after the trailer's, in order; the body's CRC; and the
    paths of the members the ``manifest`` cross-check rejects."""
    magic, version, algo, kind, nmembers = _OBJ_HEADER.unpack_from(body)
    if magic != OBJECT_MAGIC:
        raise PackCorrupt(f"bad object magic {magic:#x}")
    if version != OBJECT_VERSION:
        raise PackCorrupt(f"unsupported object version {version}")
    dsize = _ALGO_SIZES.get(algo)
    if dsize is None:
        raise PackCorrupt(f"unknown digest algorithm {algo}")
    if kind not in KIND_NAMES:
        raise PackCorrupt(f"unknown object kind {kind}")
    off = _OBJ_HEADER.size
    crc = zlib.crc32(body[:off])
    members: List[UnpackedMember] = []
    bad: List[str] = []
    try:
        for _ in range(nmembers):
            start = off
            plen, _rsvd, file_offset, length = _MEMBER.unpack_from(body, off)
            off += _MEMBER.size
            path = str(body[off:off + plen], "utf-8")
            off += plen
            digest = body[off:off + dsize]
            off += dsize
            payload = body[off:off + length]
            if len(payload) != length:
                raise PackCorrupt(f"{path}: member payload truncated")
            want = None
            if manifest is not None:
                chunks, ok = _cross_check(payload, path, file_offset,
                                          manifest)
                if not ok:
                    bad.append(path)
                if algo == manifest.algo == ALGO_CRC32 and length:
                    want = _CRC.pack(_joined_crc(chunks, length,
                                                 manifest.chunk_size))
            want, crc = _fold(crc, body[start:off - dsize], payload, algo,
                              want)
            if digest != want:
                raise PackCorrupt(f"{path}: member digest mismatch at "
                                  f"offset {file_offset}")
            off += length
            members.append(UnpackedMember(path=path, file_offset=file_offset,
                                          payload=payload))
    except (struct.error, UnicodeDecodeError) as exc:
        raise PackCorrupt(f"object framing undecodable: {exc}") from exc
    if off != len(body):
        raise PackCorrupt(f"{len(body) - off} trailing bytes after last "
                          f"member")
    return kind, members, crc, bad


def verify_members_against_manifest(
    members: List[UnpackedMember], manifest: DatasetManifest
) -> List[str]:
    """Cross-check unpacked members against the dataset manifest.

    Defense in depth for the end-to-end path: the object's own digests
    say the bytes survived the transfer; the manifest digests say they
    are the bytes the dataset *scan* promised.  Returns the paths of
    members that disagree (empty = all good).  Each manifest chunk the
    member covers is digested through a view of its payload.
    """
    return [m.path for m in members
            if not _cross_check(m.payload, m.path, m.file_offset,
                                manifest)[1]]


def _cross_check(payload: memoryview, path: str, file_offset: int,
                 manifest: DatasetManifest) -> Tuple[bytes, bool]:
    """The manifest-chunk digests of one member's payload, and whether
    they are the ones the manifest promised at its offset."""
    size = manifest.chunk_size
    got = _digest_chunks(payload, size, manifest.algo)
    try:
        entry = manifest.entry_for(path)
    except KeyError:
        # A member the dataset never promised is damage, not an
        # error: report it so the caller retries/demotes.
        return got, False
    first = file_offset // size * manifest.digest_size
    return got, got == entry.digests[first:first + len(got)]


@dataclass
class PackStats:
    """Aggregate packing telemetry for one plan materialization."""

    objects: int = 0
    members: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0
    overhead: float = field(default=0.0)

    def add(self, obj: PlannedObject, wire: int) -> None:
        self.objects += 1
        self.members += len(obj.members)
        self.payload_bytes += obj.payload_bytes
        self.wire_bytes += wire
        if self.payload_bytes:
            self.overhead = self.wire_bytes / self.payload_bytes - 1.0


__all__ = [
    "KIND_NAMES",
    "KIND_PACKED",
    "KIND_STRIPE",
    "KIND_WHOLE",
    "OBJECT_MAGIC",
    "ObjectMember",
    "PackCorrupt",
    "PackStats",
    "PackingConfig",
    "PlannedObject",
    "TransferPlan",
    "UnpackedMember",
    "pack_object",
    "plan_objects",
    "unpack_object",
    "verify_members_against_manifest",
]
