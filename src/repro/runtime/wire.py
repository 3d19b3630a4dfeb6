"""Byte-level wire formats for the real-socket backend.

All integers are big-endian (network order).  Layouts::

    DATA        !IIi  seq, total, transmission
                [+ !QI transfer_id, epoch when a session is negotiated]
                + payload bytes
                [+ !I crc32(header + payload) trailer when checksumming]
    ACK         !IIII ack_id, received_count, npackets, checksum
                [+ !QI transfer_id, epoch when a session is negotiated]
                + packed bitmap (1 bit per packet, numpy packbits order)

The nine TCP control frames (PROTOCOL.md §3.3) are one table,
:data:`CONTROL_FRAMES`, decoded by one :class:`ControlDecoder`.

Checksumming is negotiated out of band (both endpoints share a
:class:`~repro.core.config.FobsConfig`; its ``checksum`` flag selects
the format).  With checksumming on, data packets carry a 4-byte CRC32
trailer over header+payload, and the ACK header's fourth word — spare
("reserved") in the original format — carries the CRC32 of the packed
bitmap.  With checksumming off the formats are byte-identical to the
original protocol: the fallback costs nothing on trusted paths, at the
price of silently accepting corrupted payloads.

Resumable sessions (PROTOCOL.md §8) negotiate a second extension the
same way: a :class:`SessionContext` — a 64-bit transfer id plus a
32-bit attempt *epoch* — inserted between the base header and the
payload of every DATA and ACK datagram.  Decoding with a session
verifies both: a foreign transfer id raises
:class:`SessionMismatchError`, a non-current epoch raises
:class:`StaleEpochError`, so a zombie endpoint from a crashed attempt
can never land bytes (or acknowledgement bits) in a resumed session.
When checksumming is also on, the CRC trailer covers the extension.

The simulator's :class:`~repro.core.packets.DataPacket` /
:class:`~repro.core.packets.AckPacket` header-size constants are kept
consistent with the plain layouts (12 and 16 bytes); the 4-byte
trailer and the 12-byte session extension are accounted only by the
real-socket backend.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.manifest import max_manifest_bytes
from repro.core.packets import AckPacket, DataPacket

_DATA_HDR = struct.Struct("!IIi")
_ACK_HDR = struct.Struct("!IIII")
_CRC = struct.Struct("!I")
_SESSION_EXT = struct.Struct("!QI")
#: Bytes added to a data packet by the checksum trailer.
CHECKSUM_TRAILER_BYTES = _CRC.size
#: Bytes added to DATA/ACK datagrams by the session extension.
SESSION_EXT_BYTES = _SESSION_EXT.size
#: Where it sits in a DATA datagram (:func:`peek_session`'s window).
DATA_SESSION_EXT = slice(_DATA_HDR.size, _DATA_HDR.size + SESSION_EXT_BYTES)
#: Largest UDP payload over IPv4: what a DATA datagram, headers and
#: all, has to fit.
MAX_DATAGRAM_BYTES = 65507

# TCP control frames: header structs (every one opens with its magic)
# and magics.  The table that frames them is CONTROL_FRAMES below.
_MAGIC = struct.Struct("!I")
# magic, filesize, packet_size, ack_port, flags, crc32(object)
_OFFER = struct.Struct("!IQIIII")
# v2 appends: transfer_id (u64), attempt epoch (u32)
_OFFER2 = struct.Struct("!IQIIIIQI")
# magic, data_port, reserved
_ACCEPT = struct.Struct("!III")
# magic, transfer_id, epoch, data_port, npackets, crc32(packed bitmap);
# the packed bitmap follows.
_RESUME_HDR = struct.Struct("!IQIIII")
# magic, body length; the ChunkManifest bytes follow (PROTOCOL.md §10).
_VERIFY_HDR = struct.Struct("!II")
# magic, total_packets, reserved
_COMPLETION = struct.Struct("!III")
# magic, flags, attempt epoch, client nonce, rate cap (kbit/s, 0=none),
# object-name length; the UTF-8 name follows.
_FETCH_HDR = struct.Struct("!IIIQIH")
# magic, position (QUEUED) or code (REJECT), reserved
_SERVER_REPLY = struct.Struct("!III")
OFFER_MAGIC = 0xF0B50FFE
OFFER2_MAGIC = 0xF0B50FF2
ACCEPT_MAGIC = 0xF0B5ACC0
RESUME_MAGIC = 0xF0B5BE5A
VERIFY_MAGIC = 0xF0B5E51F
COMPLETION_MAGIC = 0xF0B5D011
FETCH_MAGIC = 0xF0B5FE7C
QUEUED_MAGIC = 0xF0B5C0ED
REJECT_MAGIC = 0xF0B57E77


class ChecksumError(ValueError):
    """A datagram failed CRC verification (corrupted in flight)."""


class SessionMismatchError(ValueError):
    """A datagram belongs to a different transfer id entirely."""


class StaleEpochError(ValueError):
    """A datagram carries a dead attempt epoch (zombie endpoint)."""

    def __init__(self, got: int, expected: int, kind: str):
        super().__init__(
            f"stale {kind} epoch {got} (current attempt epoch {expected})")
        self.got = got
        self.expected = expected


@dataclass(frozen=True)
class SessionContext:
    """Identity of one resumable-session attempt on the wire.

    ``transfer_id`` names the object transfer across all its attempts;
    ``epoch`` is the attempt number, bumped by the supervisor on every
    retry.  Both endpoints of an attempt share one context; datagrams
    from any other context are rejected at decode time.
    """

    transfer_id: int
    epoch: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.transfer_id < 1 << 64:
            raise ValueError("transfer_id must fit in 64 bits")
        if not 0 <= self.epoch < 1 << 32:
            raise ValueError("epoch must fit in 32 bits")

    def next_epoch(self) -> "SessionContext":
        return SessionContext(self.transfer_id, self.epoch + 1)


def _check_session(
    data: bytes, offset: int, session: SessionContext, kind: str
) -> int:
    """Verify the session extension at ``offset``; returns its epoch."""
    if len(data) < offset + SESSION_EXT_BYTES:
        raise ValueError(f"{kind} datagram shorter than session extension")
    tid, epoch = _SESSION_EXT.unpack_from(data, offset)
    if tid != session.transfer_id:
        raise SessionMismatchError(
            f"{kind} for transfer {tid:#x}, expected {session.transfer_id:#x}")
    if epoch != session.epoch:
        raise StaleEpochError(epoch, session.epoch, kind)
    return epoch


def encode_data(
    packet: DataPacket,
    payload: bytes,
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> bytes:
    """Serialize a data packet header plus its payload slice.

    With ``session``, the transfer id and attempt epoch are inserted
    between header and payload (the resumable-session extension).
    """
    if len(payload) != packet.payload_bytes:
        raise ValueError(
            f"payload length {len(payload)} != declared {packet.payload_bytes}"
        )
    datagram = _DATA_HDR.pack(packet.seq, packet.total, packet.transmission)
    if session is not None:
        datagram += _SESSION_EXT.pack(session.transfer_id, session.epoch)
    datagram += payload
    if checksum:
        datagram += _CRC.pack(zlib.crc32(datagram))
    return datagram


def decode_data(
    datagram: bytes,
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> tuple[DataPacket, bytes]:
    """Parse a data datagram; returns (header, payload bytes).

    With ``checksum`` set, verifies and strips the CRC32 trailer,
    raising :class:`ChecksumError` on mismatch.  With ``session`` set,
    verifies the transfer id and attempt epoch — raising
    :class:`SessionMismatchError` / :class:`StaleEpochError` — *after*
    the CRC check, so a corrupted extension reads as corruption, not as
    a stale datagram.
    """
    if len(datagram) < _DATA_HDR.size:
        raise ValueError("datagram shorter than data header")
    if checksum:
        if len(datagram) < _DATA_HDR.size + CHECKSUM_TRAILER_BYTES:
            raise ValueError("checksummed datagram shorter than header + trailer")
        body, trailer = datagram[:-CHECKSUM_TRAILER_BYTES], datagram[-CHECKSUM_TRAILER_BYTES:]
        (crc,) = _CRC.unpack(trailer)
        if zlib.crc32(body) != crc:
            raise ChecksumError("data packet failed CRC32 verification")
        datagram = body
    seq, total, transmission = _DATA_HDR.unpack_from(datagram)
    offset = _DATA_HDR.size
    epoch = 0
    if session is not None:
        epoch = _check_session(datagram, offset, session, "data")
        offset += SESSION_EXT_BYTES
    payload = datagram[offset:]
    if not payload:
        raise ValueError("data packet with empty payload")
    pkt = DataPacket(
        seq=seq, total=total, payload_bytes=len(payload),
        transmission=transmission, epoch=epoch,
    )
    return pkt, payload


# The session extension rides right behind the base header, so one
# struct covers both when a session is negotiated.
_DATA_SESSION_HDR = struct.Struct("!IIiQI")


def encode_data_burst(
    seqs: "list[int]",
    transmissions: "list[int]",
    total: int,
    payloads: "list",
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> list[memoryview]:
    """Serialize a whole batch of DATA datagrams into one buffer.

    The batch comes as columns — packet ``i`` is ``seqs[i]`` of
    ``total``, on transmission ``transmissions[i]``, carrying
    ``payloads[i]`` — so the send path builds no object per datagram.
    Byte-identical to calling :func:`encode_data` per packet — the
    burst equivalence property the hypothesis suite pins — but with one
    allocation for the batch: each header (and session extension) is
    packed in place, each payload copied once, each CRC32 trailer
    computed over the finished region.  Returns one writable memoryview
    per datagram, all windows into the shared buffer, ready to hand to
    ``sendmsg``/``sendto`` without further copies.
    """
    n = len(seqs)
    if len(payloads) != n or len(transmissions) != n:
        raise ValueError(
            f"{n} packets but {len(transmissions)} transmission counts "
            f"and {len(payloads)} payloads")
    if n == 0:
        return []
    if session is not None:
        pack_into, base = _DATA_SESSION_HDR.pack_into, _DATA_SESSION_HDR.size
        ext = (session.transfer_id, session.epoch)
    else:
        pack_into, base = _DATA_HDR.pack_into, _DATA_HDR.size
        ext = ()
    trailer = CHECKSUM_TRAILER_BYTES if checksum else 0
    buf = bytearray((base + trailer) * n + sum(map(len, payloads)))
    mv = memoryview(buf)
    crc32 = zlib.crc32
    crc_into = _CRC.pack_into
    views = []
    start = 0
    for seq, transmission, payload in zip(seqs, transmissions, payloads):
        body = start + base
        end = body + len(payload)
        if end == body:
            raise ValueError("data packet with empty payload")
        pack_into(buf, start, seq, total, transmission, *ext)
        mv[body:end] = payload
        if checksum:
            crc_into(buf, end, crc32(mv[start:end]))
            end += trailer
        views.append(mv[start:end])
        start = end
    return views


def decode_data_burst(
    datagrams: "list",
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> tuple[list, list]:
    """Parse a batch of DATA datagrams: the receive path's codec.

    Returns ``(results, errors)``: ``results[i]`` is a plain ``(seq,
    total, transmission, payload_view)`` tuple — the payload view is
    zero-copy into the caller's buffer — or ``None`` where datagram
    ``i`` was rejected; ``errors`` lists ``(index, exception)`` pairs
    for the rejects, in index order.  Each datagram is validated
    independently with exactly :func:`decode_data`'s semantics (same
    checks, same order, same exception types), so one corrupted
    datagram in a burst never takes its neighbours down.
    """
    results: list = [None] * len(datagrams)
    errors: list = []
    hdr_size = _DATA_HDR.size
    if session is not None:
        unpack_from, base = (_DATA_SESSION_HDR.unpack_from,
                             _DATA_SESSION_HDR.size)
        my_tid, my_epoch = session.transfer_id, session.epoch
    else:
        unpack_from, base = _DATA_HDR.unpack_from, hdr_size
    trailer = CHECKSUM_TRAILER_BYTES if checksum else 0
    crc32 = zlib.crc32
    crc_from = _CRC.unpack_from
    for i, datagram in enumerate(datagrams):
        view = memoryview(datagram)
        try:
            if len(view) < hdr_size:
                raise ValueError("datagram shorter than data header")
            body_end = len(view) - trailer
            if checksum:
                if body_end < hdr_size:
                    raise ValueError(
                        "checksummed datagram shorter than header + trailer")
                if crc32(view[:body_end]) != crc_from(view, body_end)[0]:
                    raise ChecksumError(
                        "data packet failed CRC32 verification")
            if session is None:
                seq, total, transmission = unpack_from(view)
            elif body_end < base:
                raise ValueError(
                    "data datagram shorter than session extension")
            else:
                seq, total, transmission, tid, epoch = unpack_from(view)
                if tid != my_tid:
                    raise SessionMismatchError(
                        f"data for transfer {tid:#x}, expected {my_tid:#x}")
                if epoch != my_epoch:
                    raise StaleEpochError(epoch, my_epoch, "data")
            if body_end == base:
                raise ValueError("data packet with empty payload")
            # DataPacket's own range check.
            if seq >= total:
                raise ValueError(f"seq {seq} out of range [0, {total})")
            results[i] = (seq, total, transmission, view[base:body_end])
        except ValueError as exc:  # includes Checksum/Session/Stale
            errors.append((i, exc))
    return results, errors


def encode_ack(
    ack: AckPacket,
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> bytes:
    """Serialize an acknowledgement: header [+ session ext] + bitmap.

    The header's fourth word carries the bitmap CRC32 when checksumming
    (zero otherwise, matching the original reserved field).
    """
    packed = np.packbits(np.asarray(ack.bitmap)).tobytes()
    crc = zlib.crc32(packed) if checksum else 0
    out = _ACK_HDR.pack(ack.ack_id, ack.received_count, ack.npackets, crc)
    if session is not None:
        out += _SESSION_EXT.pack(session.transfer_id, session.epoch)
    return out + packed


def decode_ack(
    datagram: bytes,
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> AckPacket:
    """Parse an acknowledgement datagram, verifying the bitmap CRC."""
    if len(datagram) < _ACK_HDR.size:
        raise ValueError("datagram shorter than ack header")
    ack_id, received_count, npackets, crc = _ACK_HDR.unpack_from(datagram)
    offset = _ACK_HDR.size
    epoch = 0
    if session is not None:
        epoch = _check_session(datagram, offset, session, "ack")
        offset += SESSION_EXT_BYTES
    packed = np.frombuffer(datagram, dtype=np.uint8, offset=offset)
    expected = -(-npackets // 8)
    if packed.shape[0] < expected:
        raise ValueError("ack bitmap truncated")
    if checksum and zlib.crc32(packed[:expected].tobytes()) != crc:
        raise ChecksumError("ack bitmap failed CRC32 verification")
    bits = np.unpackbits(packed[:expected], count=npackets).astype(np.bool_)
    return AckPacket(ack_id=ack_id, received_count=received_count,
                     bitmap=bits, epoch=epoch)


# ----------------------------------------------------------------------
# TCP control frames (PROTOCOL.md §3.3)
# ----------------------------------------------------------------------
# Each frame opens with its own 32-bit magic and is sized by its fixed
# header alone, so one table and one incremental decoder frame them
# all; nothing outside this module knows a layout or a length.

#: Offer flag bit: per-packet CRC32 checksumming on the data plane.
#: The receiver adopts whatever the sender offers — the negotiated
#: fallback for the checksum field in the wire formats.
FLAG_CHECKSUM = 1
#: Offer flag bit (v2 offers only): resumable session.  The receiver
#: journals progress and replies with RESUME instead of ACCEPT.
FLAG_RESUME = 2
#: Offer flag bit (v2 offers only, requires FLAG_RESUME): a VERIFY
#: frame carrying the per-chunk digest manifest follows the offer on
#: the control channel (PROTOCOL.md §10).
FLAG_VERIFY = 4

#: FETCH flag bit: per-packet CRC32 checksumming requested.
FETCH_FLAG_CHECKSUM = 1
#: FETCH flag bit: crash-resumable session (journal + RESUME reply).
FETCH_FLAG_RESUME = 2
#: FETCH flag bit: per-chunk digest manifest (VERIFY frame) requested.
FETCH_FLAG_VERIFY = 4

#: REJECT codes (the second word of a REJECT reply).
REJECT_FULL = 1          # max-active reached and the wait queue is full
REJECT_DRAINING = 2      # server is draining; not admitting new work
REJECT_NOT_FOUND = 3     # no such object under the served root
REJECT_CLIENT_CAP = 4    # this client already holds its per-client cap


@dataclass
class Offer:
    """A v1 or v2 OFFER: the data source describes its object and names
    its UDP acknowledgement port.  Construction checks the geometry, so
    an ``Offer``, decoded or not, always describes an object FOBS can
    move: at least one byte, in packets that fit a UDP datagram beside
    the headers its flags negotiate."""

    filesize: int
    packet_size: int
    ack_port: int
    flags: int
    crc: int
    transfer_id: int = 0
    epoch: int = 0

    def __post_init__(self) -> None:
        room = (MAX_DATAGRAM_BYTES - _DATA_HDR.size
                - SESSION_EXT_BYTES * self.resumable
                - CHECKSUM_TRAILER_BYTES * bool(self.flags & FLAG_CHECKSUM))
        if self.filesize < 1 or not 1 <= self.packet_size <= room:
            raise ValueError(f"offer of {self.filesize} bytes in packets of "
                             f"{self.packet_size} (1..{room}) is no object")

    @property
    def resumable(self) -> bool:
        return bool(self.flags & FLAG_RESUME)

    @property
    def verify(self) -> bool:
        """A VERIFY frame (digest manifest) follows this offer."""
        return self.resumable and bool(self.flags & FLAG_VERIFY)

    @property
    def npackets(self) -> int:
        return -(-self.filesize // self.packet_size)


@dataclass(frozen=True)
class Accept:
    """The receiver's reply to a non-resumable offer: its UDP data port."""

    data_port: int


@dataclass(frozen=True)
class ResumeInfo:
    """The receiver's RESUME reply to a session offer.

    Carries the attempt identity, the UDP data port for this attempt,
    and the receiver's journal-reconstructed bitmap (all-zero on a
    fresh transfer) whose packed encoding is CRC32-protected — the
    sender merges it to skip every already-delivered packet.
    """

    transfer_id: int
    epoch: int
    data_port: int
    bitmap: np.ndarray

    @property
    def npackets(self) -> int:
        return int(self.bitmap.shape[0])

    @property
    def packets_recovered(self) -> int:
        return int(np.count_nonzero(self.bitmap))


@dataclass(frozen=True)
class Verify:
    """The digest manifest that follows an offer flagged ``FLAG_VERIFY``:
    the :class:`~repro.core.manifest.ChunkManifest` encoding, as sent."""

    manifest: bytes


@dataclass(frozen=True)
class Completion:
    """The receiver's completion signal (the paper's third connection)."""

    total_packets: int


@dataclass(frozen=True)
class FetchRequest:
    """A client's request to download one served object.

    ``epoch`` is the client's attempt number (its retry supervisor
    bumps it, exactly like a resumable sender's).  ``client_nonce`` is
    a client-chosen 64-bit value, stable across that client's restarts
    but distinct between clients; the server folds it into the
    content-addressed transfer id so two clients fetching the *same*
    object get disjoint sessions (no shared journal, no cross-transfer
    bitmap bleed).  ``rate_cap_bps`` (0 = uncapped) bounds this
    transfer's demand in the server's max-min allocation.
    """

    name: str
    flags: int = FETCH_FLAG_CHECKSUM | FETCH_FLAG_RESUME
    epoch: int = 0
    client_nonce: int = 0
    rate_cap_bps: int = 0

    @property
    def resumable(self) -> bool:
        return bool(self.flags & FETCH_FLAG_RESUME)

    @property
    def checksum(self) -> bool:
        return bool(self.flags & FETCH_FLAG_CHECKSUM)

    @property
    def verify(self) -> bool:
        return bool(self.flags & FETCH_FLAG_VERIFY)


@dataclass(frozen=True)
class Queued:
    """The server's QUEUED reply; ``position`` is 1-based."""

    position: int


@dataclass(frozen=True)
class Reject:
    """The server's REJECT reply; ``code`` is one of ``REJECT_*``."""

    code: int


def encode_offer(offer: Offer) -> bytes:
    """Serialize an offer (v2 iff it carries the resume flag)."""
    if offer.resumable:
        return _OFFER2.pack(OFFER2_MAGIC, offer.filesize, offer.packet_size,
                            offer.ack_port, offer.flags, offer.crc,
                            offer.transfer_id, offer.epoch)
    return _OFFER.pack(OFFER_MAGIC, offer.filesize, offer.packet_size,
                       offer.ack_port, offer.flags, offer.crc)


def encode_accept(data_port: int) -> bytes:
    """Serialize the ACCEPT reply (receiver → sender)."""
    return _ACCEPT.pack(ACCEPT_MAGIC, data_port, 0)


def encode_resume(
    transfer_id: int, epoch: int, data_port: int, bitmap: np.ndarray
) -> bytes:
    """Serialize the RESUME reply (receiver → sender, TCP)."""
    bits = np.asarray(bitmap, dtype=np.bool_)
    packed = np.packbits(bits).tobytes()
    return _RESUME_HDR.pack(
        RESUME_MAGIC, transfer_id, epoch, data_port,
        int(bits.shape[0]), zlib.crc32(packed),
    ) + packed


def encode_verify(manifest_bytes: bytes) -> bytes:
    """Frame a :class:`~repro.core.manifest.ChunkManifest` for TCP.

    Sent by the data source immediately after its OFFER when the offer
    flags carry ``FLAG_VERIFY``; the receiver audits journal-claimed
    chunks against the manifest *before* building its RESUME bitmap.
    The body is the manifest's own encoding (self-describing and
    CRC32-protected); this frame only adds magic + length so the
    control stream stays parseable.
    """
    if not manifest_bytes:
        raise ValueError("verify frame requires a manifest body")
    return _VERIFY_HDR.pack(VERIFY_MAGIC, len(manifest_bytes)) + manifest_bytes


def encode_completion(total_packets: int) -> bytes:
    """Serialize the TCP completion signal."""
    return _COMPLETION.pack(COMPLETION_MAGIC, total_packets, 0)


def encode_fetch(req: FetchRequest) -> bytes:
    """Serialize a FETCH request (client → server, TCP)."""
    name = req.name.encode("utf-8")
    if not name or len(name) > 0xFFFF:
        raise ValueError("object name must be 1..65535 UTF-8 bytes")
    cap_kbps = min(req.rate_cap_bps // 1000, 0xFFFFFFFF)
    return _FETCH_HDR.pack(FETCH_MAGIC, req.flags, req.epoch,
                           req.client_nonce, cap_kbps, len(name)) + name


def encode_queued(position: int) -> bytes:
    """Serialize the QUEUED reply (server → client, TCP).

    ``position`` is 1-based: the client's place in the wait queue at
    admission-control time.  The OFFER (or a REJECT, if the server
    drains first) follows later on the same connection.
    """
    return _SERVER_REPLY.pack(QUEUED_MAGIC, position, 0)


def encode_reject(code: int) -> bytes:
    """Serialize the REJECT reply (server → client, TCP)."""
    return _SERVER_REPLY.pack(REJECT_MAGIC, code, 0)


def reject_reason(code: int) -> str:
    """Human-readable description of a REJECT code."""
    return {
        REJECT_FULL: "server full (wait queue at capacity)",
        REJECT_DRAINING: "server draining (not admitting transfers)",
        REJECT_NOT_FOUND: "no such object",
        REJECT_CLIENT_CAP: "per-client transfer cap reached",
    }.get(code, f"rejected (code {code})")


def _resume_body(fields: tuple, npackets: Optional[int]) -> int:
    if fields[4] != npackets:
        raise ValueError(f"RESUME for {fields[4]} packets, {npackets} offered")
    return -(-npackets // 8)


def _verify_body(fields: tuple, npackets: Optional[int]) -> int:
    if npackets is None or not 0 < fields[1] <= max_manifest_bytes(npackets):
        raise ValueError(f"VERIFY of {fields[1]} bytes after an offer of "
                         f"{npackets} packets")
    return fields[1]


def _resume(fields: tuple, packed: bytes) -> ResumeInfo:
    _magic, tid, epoch, data_port, npackets, crc = fields
    if zlib.crc32(packed) != crc:
        raise ChecksumError("resume bitmap failed CRC32 verification")
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                         count=npackets).astype(np.bool_)
    return ResumeInfo(transfer_id=tid, epoch=epoch, data_port=data_port,
                      bitmap=bits)


def _fetch(fields: tuple, name: bytes) -> FetchRequest:
    _magic, flags, epoch, nonce, cap_kbps, _name_len = fields
    return FetchRequest(name=name.decode("utf-8"), flags=flags, epoch=epoch,
                        client_nonce=nonce, rate_cap_bps=cap_kbps * 1000)


@dataclass(frozen=True)
class FrameSpec:
    """One row of the control-frame table."""

    name: str
    magic: int
    #: The fixed header, magic first.
    header: struct.Struct
    #: ``(header fields, body) -> typed frame``.
    build: Callable[[tuple, bytes], object]
    #: ``(header fields, negotiated npackets) -> body bytes`` that
    #: follow the header (none without a rule); raises ``ValueError``
    #: on a length the negotiated object cannot have.
    body_bytes: Optional[Callable[[tuple, Optional[int]], int]] = None


#: Every frame of the TCP control connection (PROTOCOL.md §3.3 renders
#: this table; ``tests/test_wire_control.py`` holds the two together).
CONTROL_FRAMES = (
    FrameSpec("OFFER", OFFER_MAGIC, _OFFER, lambda f, _: Offer(*f[1:])),
    FrameSpec("OFFER2", OFFER2_MAGIC, _OFFER2, lambda f, _: Offer(*f[1:])),
    FrameSpec("ACCEPT", ACCEPT_MAGIC, _ACCEPT, lambda f, _: Accept(f[1])),
    FrameSpec("RESUME", RESUME_MAGIC, _RESUME_HDR, _resume, _resume_body),
    FrameSpec("VERIFY", VERIFY_MAGIC, _VERIFY_HDR,
              lambda _, body: Verify(body), _verify_body),
    FrameSpec("COMPLETION", COMPLETION_MAGIC, _COMPLETION,
              lambda f, _: Completion(f[1])),
    FrameSpec("FETCH", FETCH_MAGIC, _FETCH_HDR, _fetch, lambda f, _: f[5]),
    FrameSpec("QUEUED", QUEUED_MAGIC, _SERVER_REPLY,
              lambda f, _: Queued(f[1])),
    FrameSpec("REJECT", REJECT_MAGIC, _SERVER_REPLY,
              lambda f, _: Reject(f[1])),
)
_BY_MAGIC = {spec.magic: spec for spec in CONTROL_FRAMES}


class ControlDecoder:
    """Incremental decoder of one control connection's frames.

    :meth:`feed` it whatever the stream yields, in any pieces;
    :meth:`next_frame` returns the next whole frame as its typed result
    (:class:`Offer`, :class:`Accept`, :class:`ResumeInfo`,
    :class:`Verify`, :class:`Completion`, :class:`FetchRequest`,
    :class:`Queued`, :class:`Reject`), None while it is incomplete, and
    raises ``ValueError`` for what is no frame: an unknown magic, an
    offer that cannot be an object, a body that fails its check, a
    RESUME or VERIFY sized for another object than the negotiated
    ``npackets`` — refused on the header, before the declared body is
    waited for.  An endpoint that *sent* the offer passes ``npackets``
    in; one that receives it learns it from the decoded frame.
    """

    def __init__(self, npackets: Optional[int] = None):
        self.npackets = npackets
        self._buf = bytearray()

    def feed(self, data) -> None:
        self._buf += data

    def next_frame(self):
        buf = self._buf
        if len(buf) < _MAGIC.size:
            return None
        (magic,) = _MAGIC.unpack_from(buf)
        spec = _BY_MAGIC.get(magic)
        if spec is None:
            raise ValueError(f"unknown control-frame magic {magic:#x}")
        start = spec.header.size
        if len(buf) < start:
            return None
        fields = spec.header.unpack_from(buf)
        end = start + (spec.body_bytes(fields, self.npackets)
                       if spec.body_bytes is not None else 0)
        if len(buf) < end:
            return None
        frame = spec.build(fields, bytes(buf[start:end]))
        del buf[:end]
        if isinstance(frame, Offer):
            self.npackets = frame.npackets
        return frame


class ControlClosed(ConnectionError):
    """The peer closed the control connection (a clean end of stream)."""


def read_frame(sock, decoder: ControlDecoder):
    """The next frame of control connection ``sock``, read through its
    ``decoder``: blocks on a blocking socket; on a non-blocking one
    returns None when no whole frame has arrived yet.
    :class:`ControlClosed` at end of stream, ``ValueError`` as
    :meth:`ControlDecoder.next_frame`.
    """
    while True:
        frame = decoder.next_frame()
        if frame is not None:
            return frame
        try:
            chunk = sock.recv(65536)
        except BlockingIOError:
            return None
        if not chunk:
            raise ControlClosed("control connection closed early")
        decoder.feed(chunk)


def expect(frame, kind: type):
    """``frame``, which the protocol says is a ``kind`` at this point."""
    if not isinstance(frame, kind):
        raise ValueError(f"{type(frame).__name__} frame where "
                         f"{kind.__name__} was due")
    return frame


def _decode_whole(data: bytes, kind: type, npackets: Optional[int] = None):
    """One-buffer decode of a frame that must be a whole ``kind``."""
    decoder = ControlDecoder(npackets)
    decoder.feed(data)
    return expect(decoder.next_frame(), kind)


def decode_completion(data: bytes) -> int:
    """Parse the completion signal; returns the total packet count."""
    return _decode_whole(data, Completion).total_packets


def decode_resume(data: bytes) -> ResumeInfo:
    """Parse a RESUME message, verifying the bitmap digest.  Takes the
    message's own word for the object size; a :class:`ControlDecoder`
    holds it to the offer."""
    claimed = (_RESUME_HDR.unpack_from(data)[4]
               if len(data) >= _RESUME_HDR.size else None)
    return _decode_whole(data, ResumeInfo, claimed)


def peek_session(datagram: bytes, kind: str) -> Optional[tuple[int, int]]:
    """Read the session extension without full (or any) verification.

    The multi-transfer server receives every datagram of every session
    on one shared UDP socket; before it can *decode* (which needs the
    per-transfer :class:`SessionContext`), it must learn which transfer
    the datagram belongs to.  This peeks the ``(transfer_id, epoch)``
    pair at the extension offset for ``kind`` (``"ack"`` or ``"data"``)
    and returns None when the datagram is too short to carry one.

    The peek is a routing hint only: the registry's subsequent full
    decode re-verifies id, epoch and (when negotiated) the CRC, so a
    garbage datagram that happens to resolve to an active transfer is
    still rejected before it can touch protocol state.
    """
    base = _ACK_HDR.size if kind == "ack" else _DATA_HDR.size
    if len(datagram) < base + SESSION_EXT_BYTES:
        return None
    tid, epoch = _SESSION_EXT.unpack_from(datagram, base)
    return tid, epoch
