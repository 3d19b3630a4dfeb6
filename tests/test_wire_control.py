"""The TCP control-frame codec: one table, one incremental decoder.

The golden bytes below were produced by the encoders of the commit
*before* the codec existed (``files.encode_offer`` / ``_ACCEPT.pack`` and
the ``wire.encode_*`` functions, PR 19), so a byte here that stops
matching is a wire-format change, not a refactor.
"""

import os
import re
import socket
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from _support import DribbleSocket, RunningServer, after, packed, raw_offer
from repro.core.config import FobsConfig
from repro.core.manifest import ChunkManifest, max_manifest_bytes
from repro.runtime import transfer, wire
from repro.runtime.files import receive_endpoint, send_endpoint

TID = 0x0123456789ABCDEF
OBJECT = bytes(i % 251 for i in range(5000))  # 5 packets of 1 KiB

GOLDEN = {
    "OFFER": "f0b50ffe00000000000013880000040000009c4100000001deadbeef",
    "OFFER2": "f0b50ff200000000000013880000040000009c4100000007deadbeef"
              "0123456789abcdef00000003",
    "RESUME": "f0b5be5a0123456789abcdef0000000300009c420000000519635c01b0",
    "VERIFY": "f0b5e51f0000002cf0b5d16500000000000013880000040001000004"
              "cc9b1b077be4dfd0649fe5fa336bc33a83273e4065084d9b",
    "COMPLETION": "f0b5d0110000000500000000",
    "FETCH": "f0b5fe7c0000000700000003feedfacecafebeef00001388000d"
             "6469722f6f626ac3a92e62696e",
    "QUEUED": "f0b5c0ed0000000200000000",
    "REJECT": "f0b57e770000000400000000",
}

#: What each golden frame says, as this commit's typed frames; the v1
#: OFFER says nothing any more (it is refused, see TestRefusedOffers).
FRAMES = {
    "OFFER2": wire.Offer(5000, 1024, 40001, 7, 0xDEADBEEF, TID, 3),
    "RESUME": wire.ResumeInfo(TID, 3, 40002, packed([1, 0, 1, 1, 0]), 5),
    "VERIFY": wire.Verify(ChunkManifest.from_data(OBJECT, 1024).encode()),
    "COMPLETION": wire.Completion(5),
    "FETCH": wire.FetchRequest("dir/objé.bin", 7, 3,
                               0xFEEDFACECAFEBEEF, 5_000_000),
    "QUEUED": wire.Queued(2),
    "REJECT": wire.Reject(wire.REJECT_CLIENT_CAP),
}


def encode(frame) -> bytes:
    """Any typed frame back to bytes, through the public encoders."""
    if isinstance(frame, wire.Offer):
        return wire.encode_offer(frame)
    if isinstance(frame, wire.ResumeInfo):
        return wire.encode_resume(frame.transfer_id, frame.epoch,
                                  frame.data_port, frame.bitmap,
                                  frame.npackets)
    if isinstance(frame, wire.Verify):
        return wire.encode_verify(frame.manifest)
    if isinstance(frame, wire.Completion):
        return wire.encode_completion(frame.total_packets)
    if isinstance(frame, wire.FetchRequest):
        return wire.encode_fetch(frame)
    if isinstance(frame, wire.Queued):
        return wire.encode_queued(frame.position)
    assert isinstance(frame, wire.Reject), frame
    return wire.encode_reject(frame.code)


def decode_all(chunks, npackets=None) -> list:
    """Every frame a decoder yields when fed ``chunks`` in order."""
    decoder = wire.ControlDecoder(npackets)
    frames = []
    for chunk in chunks:
        decoder.feed(chunk)
        while (frame := decoder.next_frame()) is not None:
            frames.append(frame)
    return frames


class TestGoldenBytes:
    def test_the_table_has_the_eight_frames(self):
        assert [spec.name for spec in wire.CONTROL_FRAMES] == list(GOLDEN)
        magics = [spec.magic for spec in wire.CONTROL_FRAMES]
        assert len(set(magics)) == 8
        assert all(spec.header.format.startswith("!I")
                   for spec in wire.CONTROL_FRAMES)

    @pytest.mark.parametrize("name", list(FRAMES))
    def test_encoders_still_write_the_parents_bytes(self, name):
        assert encode(FRAMES[name]).hex() == GOLDEN[name]

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_decoder_reads_the_parents_bytes(self, name):
        if name not in FRAMES:  # the v1 OFFER: read only to be refused
            with pytest.raises(ValueError, match="v1 OFFER refused"):
                decode_all([bytes.fromhex(GOLDEN[name])], npackets=5)
            return
        (frame,) = decode_all([bytes.fromhex(GOLDEN[name])], npackets=5)
        assert type(frame) is type(FRAMES[name])
        assert encode(frame).hex() == GOLDEN[name]
        assert frame == FRAMES[name]

    def test_a_whole_session_in_one_read(self):
        """A decoder learns the geometry from the offer it decodes, so
        the VERIFY and RESUME behind it need no caller's help."""
        order = ["OFFER2", "VERIFY", "RESUME", "COMPLETION"]
        stream = b"".join(bytes.fromhex(GOLDEN[name]) for name in order)
        frames = decode_all([stream])
        assert [encode(f).hex() for f in frames] == [GOLDEN[n] for n in order]

    def test_one_shot_decoders_kept_for_the_public_api(self):
        assert wire.decode_completion(bytes.fromhex(GOLDEN["COMPLETION"])) == 5
        info = wire.decode_resume(bytes.fromhex(GOLDEN["RESUME"]))
        assert (info.transfer_id, info.epoch, info.data_port) == (TID, 3, 40002)
        assert info.bitmap == packed([True, False, True, True, False])
        assert info.npackets == 5 and info.packets_recovered == 3
        flipped = bytearray.fromhex(GOLDEN["RESUME"])
        flipped[-1] ^= 0x08
        with pytest.raises(wire.ChecksumError):
            wire.decode_resume(bytes(flipped))
        with pytest.raises(ValueError):
            wire.decode_resume(bytes.fromhex(GOLDEN["COMPLETION"]))


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

u32 = st.integers(0, 0xFFFFFFFF)
ports = st.integers(0, 0xFFFF)


@st.composite
def sessions(draw):
    """An offer and a shuffled run of frames valid behind it."""
    npackets = draw(st.integers(1, 300))
    packet_size = draw(st.integers(1, 2000))
    filesize = (npackets - 1) * packet_size + draw(
        st.integers(1, packet_size))
    flags = draw(st.integers(0, 7)) | wire.FLAG_RESUME
    offer = wire.Offer(filesize, packet_size, draw(ports), flags, draw(u32),
                       draw(st.integers(0, (1 << 64) - 1)), draw(u32))
    rest = draw(st.lists(st.one_of(
        st.builds(wire.ResumeInfo, st.integers(0, (1 << 64) - 1), u32, ports,
                  st.lists(st.booleans(), min_size=npackets,
                           max_size=npackets).map(packed),
                  st.just(npackets)),
        st.builds(wire.Verify, st.binary(
            min_size=1, max_size=min(max_manifest_bytes(npackets), 4096))),
        st.builds(wire.Completion, u32),
        st.builds(wire.FetchRequest,
                  st.text(min_size=1, max_size=40),
                  u32.map(lambda f: f | wire.FETCH_FLAG_RESUME), u32,
                  st.integers(0, (1 << 64) - 1),
                  st.integers(0, 4_000_000).map(lambda k: k * 1000)),
        st.builds(wire.Queued, u32),
        st.builds(wire.Reject, u32),
    ), max_size=6))
    return [offer] + rest


def cut(data: bytes, points: list) -> list:
    """``data`` in pieces, cut at the drawn fractions of its length."""
    edges = sorted({0, len(data), *(int(p * len(data)) for p in points)})
    return [data[a:b] for a, b in zip(edges, edges[1:])]


fractions = st.lists(st.floats(0, 1), max_size=12)


class TestDecoderProperties:
    @given(sessions(), fractions)
    @settings(max_examples=150, deadline=None)
    def test_any_chunking_yields_the_same_frames(self, frames, points):
        pieces = [encode(frame) for frame in frames]
        decoded = decode_all(cut(b"".join(pieces), points))
        assert [encode(frame) for frame in decoded] == pieces
        assert all(type(a) is type(b) for a, b in zip(decoded, frames))

    @given(sessions(), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_a_truncated_frame_is_no_frame_and_no_error(self, frames, where):
        *before, last = [encode(frame) for frame in frames]
        short = last[:int(where * (len(last) - 1))]
        decoded = decode_all([b"".join(before) + short])
        assert [encode(frame) for frame in decoded] == before

    @given(sessions(), st.floats(0, 1), st.integers(1, 255))
    @settings(max_examples=300, deadline=None)
    def test_one_changed_byte_is_an_error_a_wait_or_a_valid_frame(
            self, frames, where, flip):
        """Never another exception type, and — nothing being fed but
        the frame itself — never a read past the bytes fed."""
        raw = bytearray(encode(frames[-1]))
        raw[int(where * (len(raw) - 1))] ^= flip
        decoder = wire.ControlDecoder(frames[0].npackets)
        decoder.feed(bytes(raw))
        try:
            frame = decoder.next_frame()
        except ValueError:
            return
        if frame is not None:
            encode(frame)   # what came out validates: it encodes

    @given(st.binary(min_size=4, max_size=64))
    def test_an_unknown_magic_raises(self, data):
        known = {spec.magic for spec in wire.CONTROL_FRAMES}
        if int.from_bytes(data[:4], "big") in known:
            data = b"\x00" + data[1:]
        decoder = wire.ControlDecoder()
        decoder.feed(data)
        with pytest.raises(ValueError, match="unknown control-frame magic"):
            decoder.next_frame()
        with pytest.raises(ValueError):  # and the stream stays refused
            decoder.next_frame()


# ----------------------------------------------------------------------
# Geometry: what cannot be an object is refused on the header
# ----------------------------------------------------------------------

class TestGeometry:
    @pytest.mark.parametrize("filesize, packet_size, flags", [
        (0, 1024, 0),            # an empty object
        (5000, 0, 0),            # packets of nothing
        (5000, 65496, 0),        # header + packet > one UDP datagram
        (5000, 65492, wire.FLAG_CHECKSUM),   # ... with the CRC trailer
    ])
    def test_an_offer_that_cannot_be_an_object(self, filesize, packet_size,
                                               flags):
        decoder = wire.ControlDecoder()
        decoder.feed(raw_offer(filesize, packet_size, flags))
        with pytest.raises(ValueError, match="is no object"):
            decoder.next_frame()
        with pytest.raises(ValueError, match="is no object"):
            wire.Offer(filesize, packet_size, 40001,
                       flags | wire.FLAG_RESUME, 0, TID, 0)

    @pytest.mark.parametrize("flags, most", [
        (wire.FLAG_RESUME, 523_832),   # the ACK's session extension
    ])
    def test_an_object_one_ack_cannot_cover_is_no_offer(self, flags, most):
        assert wire.Offer(most, 1, 40001, flags, 0, TID, 0).npackets == most
        decoder = wire.ControlDecoder()
        decoder.feed(raw_offer(most + 1, 1, flags))
        with pytest.raises(ValueError, match=f"covers at most {most}"):
            decoder.next_frame()

    def test_the_largest_packets_udp_can_carry_are_offers(self):
        """65,507 bytes of UDP payload, less 24 of header and session
        extension (and 4 of CRC trailer): one more byte is no object."""
        assert decode_all([raw_offer(10**6, 65483)])[0].packet_size == 65483
        assert decode_all([raw_offer(10**6, 65479, wire.FLAG_CHECKSUM)])
        for packet_size, flags in ((65484, 0), (65480, wire.FLAG_CHECKSUM)):
            with pytest.raises(ValueError, match="is no object"):
                decode_all([raw_offer(10**6, packet_size, flags)])

    def test_resume_for_another_geometry_refused_on_its_header(self):
        """The daemon-killer: right id, right length, ``npackets=8`` for a
        196-packet object.  Refused from the 28 header bytes alone."""
        resume = wire.encode_resume(TID, 3, 40002, bytes(1), 8)
        decoder = wire.ControlDecoder(196)
        decoder.feed(resume[:28])
        with pytest.raises(ValueError, match="RESUME for 8 packets, 196"):
            decoder.next_frame()
        unoffered = wire.ControlDecoder()
        unoffered.feed(resume)
        with pytest.raises(ValueError, match="None offered"):
            unoffered.next_frame()

    def test_verify_bounded_by_the_offered_geometry(self):
        header = bytes.fromhex("f0b5e51f") + (1 << 30).to_bytes(4, "big")
        decoder = wire.ControlDecoder()
        decoder.feed(bytes.fromhex(GOLDEN["OFFER2"]))
        assert decoder.next_frame().npackets == 5
        decoder.feed(header)   # 8 bytes in, a GiB declared
        with pytest.raises(ValueError, match="VERIFY of 1073741824 bytes"):
            decoder.next_frame()
        # The largest manifest five chunks can have passes; one more
        # byte, an empty body, or a VERIFY before any offer does not.
        bound = max_manifest_bytes(5)
        assert decode_all([wire.encode_verify(b"m" * bound)], npackets=5)
        for body, npackets in ((bound + 1, 5), (0, 5), (8, None)):
            with pytest.raises(ValueError, match="VERIFY of"):
                decode_all([bytes.fromhex("f0b5e51f")
                            + body.to_bytes(4, "big")], npackets)


# ----------------------------------------------------------------------
# An offer that is no resumable session is refused by name
# ----------------------------------------------------------------------

#: The golden v1 OFFER; the same with FLAG_RESUME set (which must not
#: pass for a resumable offer of transfer id 0); the golden OFFER2
#: without FLAG_RESUME.  Each with the reason it is refused for.
REFUSED_OFFERS = {
    "v1": (bytes.fromhex(GOLDEN["OFFER"]), "v1 OFFER refused"),
    "v1-resume-flag": (struct.pack("!IQIIII", wire.OFFER_MAGIC, 5000, 1024,
                                   40001, 3, 0xDEADBEEF), "v1 OFFER refused"),
    "offer2-no-resume-flag": (
        struct.pack("!IQIIIIQI", wire.OFFER2_MAGIC, 5000, 1024, 40001,
                    wire.FLAG_CHECKSUM | wire.FLAG_VERIFY, 0xDEADBEEF,
                    TID, 3),
        "without FLAG_RESUME refused"),
}


def offering(port: int, frames: bytes) -> transfer.Endpoint:
    """A peer that writes ``frames`` and then reads; its result is the
    first frame the other end answers with, or "closed"."""
    end = transfer.Endpoint()

    def turns():
        deadline = time.monotonic() + 10
        sock = yield from transfer.connecting(end, ("127.0.0.1", port),
                                              deadline)
        with sock:
            yield from transfer.writing(end, sock, frames, deadline)
            try:
                return (yield from transfer.reading(
                    end, sock, wire.ControlDecoder(), deadline))
            except wire.ControlClosed:
                return "closed"

    end.turns = turns()
    return end


@pytest.mark.parametrize("offer", list(REFUSED_OFFERS))
def test_an_offer_of_no_session_is_refused_before_any_file(offer, tmp_path):
    """Decoded only to be refused: the receiver fails the attempt naming
    the reason with no ``.part`` or journal on disk, and the daemon
    records the refusal and serves the next (resumable) push."""
    frames, reason = REFUSED_OFFERS[offer]
    decoder = wire.ControlDecoder()
    decoder.feed(frames)
    with pytest.raises(ValueError, match=reason):
        decoder.next_frame()

    out = tmp_path / "rx" / "out.bin"
    out.parent.mkdir()
    rx = receive_endpoint(str(out), 0, bind="127.0.0.1", timeout=10)
    peer = offering(rx.socks[0].getsockname()[1], frames)
    transfer.run_endpoints([rx, peer])
    assert not rx.result.completed
    assert rx.result.failure_reason.startswith("bad offer: ")
    assert reason in rx.result.failure_reason
    assert peer.result == "closed"
    assert os.listdir(out.parent) == []

    root = tmp_path / "served"
    root.mkdir()
    data = bytes(i % 253 for i in range(50_000))
    running = RunningServer(root)
    server = running.server
    refused, pushed = running.run(
        offering(running.port, frames),
        after(lambda: server.history, send_endpoint(
            data, "127.0.0.1", running.port,
            FobsConfig(ack_frequency=32), timeout=30)))
    assert refused == "closed"
    assert pushed.completed, pushed.failure_reason
    (ctrl, push) = server.history
    assert ctrl[:4] == ("-", "ctrl", "127.0.0.1", False)
    assert reason in ctrl[4]
    assert push[1:4] == ("recv", "127.0.0.1", True)
    assert (root / push[0]).read_bytes() == data
    assert running.snapshot.failed == 1
    assert running.snapshot.completed == 1


# ----------------------------------------------------------------------
# read_frame: the one socket read
# ----------------------------------------------------------------------

class TestReadFrame:
    def test_blocking_polling_and_end_of_stream(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            decoder = wire.ControlDecoder()
            theirs.sendall(bytes.fromhex(GOLDEN["QUEUED"] + GOLDEN["OFFER2"]
                                         + GOLDEN["VERIFY"])[:-3])
            assert wire.read_frame(ours, decoder) == wire.Queued(2)
            assert wire.read_frame(ours, decoder) == FRAMES["OFFER2"]
            ours.setblocking(False)
            assert wire.read_frame(ours, decoder) is None   # 3 bytes short
            theirs.sendall(bytes.fromhex(GOLDEN["VERIFY"])[-3:])
            assert wire.read_frame(ours, decoder) == FRAMES["VERIFY"]
            assert wire.read_frame(ours, decoder) is None
            theirs.close()
            with pytest.raises(wire.ControlClosed):
                wire.read_frame(ours, decoder)
            assert issubclass(wire.ControlClosed, ConnectionError)

    def test_a_stream_that_dribbles(self):
        ours, theirs = socket.socketpair()
        with ours, theirs:
            theirs.sendall(bytes.fromhex(GOLDEN["FETCH"]))
            frame = wire.read_frame(DribbleSocket(ours, 5),
                                    wire.ControlDecoder())
            assert frame == FRAMES["FETCH"]

    def test_expect_names_both_frames(self):
        assert wire.expect(wire.Queued(1), wire.Queued) == wire.Queued(1)
        with pytest.raises(ValueError, match="Reject frame where Offer"):
            wire.expect(wire.Reject(1), wire.Offer)


# ----------------------------------------------------------------------
# PROTOCOL.md renders the same table
# ----------------------------------------------------------------------

def test_protocol_md_table_matches_the_codec():
    path = os.path.join(os.path.dirname(__file__), "..", "PROTOCOL.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("Control frames at a glance"):]
    rows = re.findall(
        r"^\| `?(\w+)`? +\| `(0x[0-9A-F]{8})` +\| `(![A-Za-z]+)` +\| (\d+) +\|",
        section, re.MULTILINE)
    documented = [(name, int(magic, 16), fmt, int(size))
                  for name, magic, fmt, size in rows[:len(wire.CONTROL_FRAMES)]]
    assert documented == [
        (spec.name, spec.magic, spec.header.format, spec.header.size)
        for spec in wire.CONTROL_FRAMES]
