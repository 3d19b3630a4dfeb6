"""Byte-level wire formats for the real-socket backend.

All integers are big-endian (network order).  Layouts::

    DATA        !IIi  seq, total, transmission
                [+ !QI transfer_id, epoch when a session is negotiated]
                + payload bytes
                [+ !I crc32(header + payload) trailer when checksumming]
    ACK         !IIII ack_id, received_count, npackets, checksum
                [+ !QI transfer_id, epoch when a session is negotiated]
                + packed bitmap (1 bit per packet, numpy packbits order)
    COMPLETION  !III  magic, total_packets, reserved
    RESUME      !IQIIII magic, transfer_id, epoch, data_port, npackets,
                crc32(bitmap) + packed bitmap   (TCP control channel)

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
from typing import Optional

import numpy as np

from repro.core.packets import AckPacket, DataPacket

_DATA_HDR = struct.Struct("!IIi")
_ACK_HDR = struct.Struct("!IIII")
_COMPLETION = struct.Struct("!III")
_CRC = struct.Struct("!I")
_SESSION_EXT = struct.Struct("!QI")
_RESUME_HDR = struct.Struct("!IQIIII")
# magic, flags, attempt epoch, client nonce, rate cap (kbit/s, 0=none),
# object-name length; the UTF-8 name follows.
_FETCH_HDR = struct.Struct("!IIIQIH")
# magic, code/position, reserved
_SERVER_REPLY = struct.Struct("!III")
COMPLETION_MAGIC = 0xF0B5D011
RESUME_MAGIC = 0xF0B5BE5A
VERIFY_MAGIC = 0xF0B5E51F
# magic, body length; the ChunkManifest bytes follow (PROTOCOL.md §10).
_VERIFY_HDR = struct.Struct("!II")
FETCH_MAGIC = 0xF0B5FE7C
QUEUED_MAGIC = 0xF0B5C0ED
REJECT_MAGIC = 0xF0B57E77
#: Bytes added to a data packet by the checksum trailer.
CHECKSUM_TRAILER_BYTES = _CRC.size
#: Bytes added to DATA/ACK datagrams by the session extension.
SESSION_EXT_BYTES = _SESSION_EXT.size
#: Size of the TCP completion frame; a read may return less of it.
COMPLETION_BYTES = _COMPLETION.size


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
    packets: "list[DataPacket]",
    payloads: "list",
    checksum: bool = False,
    session: Optional[SessionContext] = None,
) -> list[memoryview]:
    """Serialize a whole batch of DATA datagrams into one buffer.

    Byte-identical to calling :func:`encode_data` per packet — the
    burst equivalence property the hypothesis suite pins — but with one
    allocation for the batch: each header (and session extension) is
    packed in place, each payload copied once, each CRC32 trailer
    computed over the finished region.  Returns one writable memoryview
    per datagram, all windows into the shared buffer, ready to hand to
    ``sendmsg``/``sendto`` without further copies.
    """
    n = len(packets)
    if len(payloads) != n:
        raise ValueError(
            f"{n} packets but {len(payloads)} payloads")
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
    for pkt, payload in zip(packets, payloads):
        if len(payload) != pkt.payload_bytes:
            raise ValueError(
                f"payload length {len(payload)} != declared "
                f"{pkt.payload_bytes}")
        pack_into(buf, start, pkt.seq, pkt.total, pkt.transmission, *ext)
        end = start + base + len(payload)
        mv[start + base:end] = payload
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

    Returns ``(results, errors)``: ``results[i]`` is a
    ``(DataPacket, memoryview)`` pair — the payload view is zero-copy
    into the caller's buffer — or ``None`` where datagram ``i`` was
    rejected; ``errors`` lists ``(index, exception)`` pairs for the
    rejects, in index order.  Each datagram is validated independently
    with exactly :func:`decode_data`'s semantics (same checks, same
    order, same exception types), so one corrupted datagram in a burst
    never takes its neighbours down.
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
    packet = DataPacket.unchecked
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
                epoch = 0
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
            # DataPacket's own range check, without the frozen
            # dataclass's __init__ + __post_init__ per datagram.
            if seq >= total:
                raise ValueError(f"seq {seq} out of range [0, {total})")
            results[i] = (packet(seq, total, body_end - base, transmission,
                                 epoch), view[base:body_end])
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


def encode_completion(total_packets: int) -> bytes:
    """Serialize the TCP completion signal."""
    return _COMPLETION.pack(COMPLETION_MAGIC, total_packets, 0)


def decode_completion(data: bytes) -> int:
    """Parse the completion signal; returns the total packet count."""
    if len(data) < COMPLETION_BYTES:
        raise ValueError("completion message truncated")
    magic, total_packets, _reserved = _COMPLETION.unpack_from(data)
    if magic != COMPLETION_MAGIC:
        raise ValueError(f"bad completion magic {magic:#x}")
    return total_packets


# ----------------------------------------------------------------------
# RESUME exchange (TCP control channel; PROTOCOL.md §8)
# ----------------------------------------------------------------------

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


def resume_wire_bytes(npackets: int) -> int:
    """Total bytes of a RESUME message for an ``npackets`` object."""
    return _RESUME_HDR.size + -(-npackets // 8)


def decode_resume(data: bytes) -> ResumeInfo:
    """Parse a RESUME message, verifying the bitmap digest."""
    if len(data) < _RESUME_HDR.size:
        raise ValueError("resume message truncated")
    magic, tid, epoch, data_port, npackets, crc = _RESUME_HDR.unpack_from(data)
    if magic != RESUME_MAGIC:
        raise ValueError(f"bad resume magic {magic:#x}")
    packed = np.frombuffer(data, dtype=np.uint8, offset=_RESUME_HDR.size)
    expected = -(-npackets // 8)
    if packed.shape[0] < expected:
        raise ValueError("resume bitmap truncated")
    if zlib.crc32(packed[:expected].tobytes()) != crc:
        raise ChecksumError("resume bitmap failed CRC32 verification")
    bits = np.unpackbits(packed[:expected], count=npackets).astype(np.bool_)
    return ResumeInfo(transfer_id=tid, epoch=epoch, data_port=data_port,
                      bitmap=bits)


# ----------------------------------------------------------------------
# VERIFY extension (TCP control channel; PROTOCOL.md §10)
# ----------------------------------------------------------------------

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


def verify_body_bytes(header: bytes) -> int:
    """Body length declared by a VERIFY header (for framed reads).

    Raises on a bad magic — the caller knows a VERIFY frame is due
    (the offer announced ``FLAG_VERIFY``), so anything else here is a
    protocol violation, not a dispatch choice.
    """
    if len(header) < _VERIFY_HDR.size:
        raise ValueError("verify frame truncated")
    magic, body_len = _VERIFY_HDR.unpack_from(header)
    if magic != VERIFY_MAGIC:
        raise ValueError(f"bad verify magic {magic:#x}")
    if body_len == 0:
        raise ValueError("verify frame with empty body")
    return body_len


def decode_verify(data: bytes) -> bytes:
    """Parse a whole VERIFY frame; returns the manifest bytes."""
    body_len = verify_body_bytes(data)
    body = data[_VERIFY_HDR.size:_VERIFY_HDR.size + body_len]
    if len(body) != body_len:
        raise ValueError("verify frame body truncated")
    return bytes(body)


VERIFY_HDR_BYTES = _VERIFY_HDR.size


# ----------------------------------------------------------------------
# Server control plane (TCP; PROTOCOL.md §9)
# ----------------------------------------------------------------------

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


def encode_fetch(req: FetchRequest) -> bytes:
    """Serialize a FETCH request (client → server, TCP)."""
    name = req.name.encode("utf-8")
    if not name or len(name) > 0xFFFF:
        raise ValueError("object name must be 1..65535 UTF-8 bytes")
    cap_kbps = min(req.rate_cap_bps // 1000, 0xFFFFFFFF)
    return _FETCH_HDR.pack(FETCH_MAGIC, req.flags, req.epoch,
                           req.client_nonce, cap_kbps, len(name)) + name


def fetch_name_bytes(header: bytes) -> int:
    """Name length declared by a FETCH header (for framed reads)."""
    *_rest, name_len = _FETCH_HDR.unpack(header)
    return name_len


def decode_fetch(data: bytes) -> FetchRequest:
    """Parse a FETCH request (header + name)."""
    if len(data) < _FETCH_HDR.size:
        raise ValueError("fetch request truncated")
    magic, flags, epoch, nonce, cap_kbps, name_len = _FETCH_HDR.unpack_from(data)
    if magic != FETCH_MAGIC:
        raise ValueError(f"bad fetch magic {magic:#x}")
    name = data[_FETCH_HDR.size:_FETCH_HDR.size + name_len]
    if len(name) != name_len:
        raise ValueError("fetch name truncated")
    return FetchRequest(name=name.decode("utf-8"), flags=flags, epoch=epoch,
                        client_nonce=nonce, rate_cap_bps=cap_kbps * 1000)


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


def decode_server_reply(data: bytes) -> tuple[str, int]:
    """Parse a QUEUED/REJECT reply; returns (kind, detail).

    ``kind`` is ``"queued"`` (detail = queue position) or ``"reject"``
    (detail = reject code).  Raises on any other magic — the caller
    dispatches OFFER messages separately by their own magic.
    """
    if len(data) < _SERVER_REPLY.size:
        raise ValueError("server reply truncated")
    magic, detail, _reserved = _SERVER_REPLY.unpack_from(data)
    if magic == QUEUED_MAGIC:
        return "queued", detail
    if magic == REJECT_MAGIC:
        return "reject", detail
    raise ValueError(f"bad server reply magic {magic:#x}")


SERVER_REPLY_BYTES = _SERVER_REPLY.size
FETCH_HDR_BYTES = _FETCH_HDR.size


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
