"""The TCP control-frame codec: one table, one incremental decoder.

The golden bytes below were produced by the encoders of the commit
*before* the codec existed (``files.encode_offer`` / ``_ACCEPT.pack`` and
the ``wire.encode_*`` functions, PR 19), so a byte here that stops
matching is a wire-format change, not a refactor.
"""

import os
import re
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import DribbleSocket, raw_offer
from repro.core.manifest import ChunkManifest, max_manifest_bytes
from repro.runtime import wire

TID = 0x0123456789ABCDEF
OBJECT = bytes(i % 251 for i in range(5000))  # 5 packets of 1 KiB

GOLDEN = {
    "OFFER": "f0b50ffe00000000000013880000040000009c4100000001deadbeef",
    "OFFER2": "f0b50ff200000000000013880000040000009c4100000007deadbeef"
              "0123456789abcdef00000003",
    "ACCEPT": "f0b5acc000009c4200000000",
    "RESUME": "f0b5be5a0123456789abcdef0000000300009c420000000519635c01b0",
    "VERIFY": "f0b5e51f0000002cf0b5d16500000000000013880000040001000004"
              "cc9b1b077be4dfd0649fe5fa336bc33a83273e4065084d9b",
    "COMPLETION": "f0b5d0110000000500000000",
    "FETCH": "f0b5fe7c0000000700000003feedfacecafebeef00001388000d"
             "6469722f6f626ac3a92e62696e",
    "QUEUED": "f0b5c0ed0000000200000000",
    "REJECT": "f0b57e770000000400000000",
}

#: What each golden frame says, as this commit's typed frames.
FRAMES = {
    "OFFER": wire.Offer(5000, 1024, 40001, wire.FLAG_CHECKSUM, 0xDEADBEEF),
    "OFFER2": wire.Offer(5000, 1024, 40001, 7, 0xDEADBEEF, TID, 3),
    "ACCEPT": wire.Accept(40002),
    "RESUME": wire.ResumeInfo(TID, 3, 40002,
                              np.array([1, 0, 1, 1, 0], dtype=bool)),
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
    if isinstance(frame, wire.Accept):
        return wire.encode_accept(frame.data_port)
    if isinstance(frame, wire.ResumeInfo):
        return wire.encode_resume(frame.transfer_id, frame.epoch,
                                  frame.data_port, frame.bitmap)
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
    def test_the_table_has_the_nine_frames(self):
        assert [spec.name for spec in wire.CONTROL_FRAMES] == list(GOLDEN)
        magics = [spec.magic for spec in wire.CONTROL_FRAMES]
        assert len(set(magics)) == 9
        assert all(spec.header.format.startswith("!I")
                   for spec in wire.CONTROL_FRAMES)

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_encoders_still_write_the_parents_bytes(self, name):
        assert encode(FRAMES[name]).hex() == GOLDEN[name]

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_decoder_reads_the_parents_bytes(self, name):
        (frame,) = decode_all([bytes.fromhex(GOLDEN[name])], npackets=5)
        assert type(frame) is type(FRAMES[name])
        assert encode(frame).hex() == GOLDEN[name]
        if name != "RESUME":  # an ndarray inside: compared as bytes above
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
        assert info.bitmap.tolist() == [True, False, True, True, False]
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
    flags = draw(st.integers(0, 7))
    offer = wire.Offer(filesize, packet_size, draw(ports), flags, draw(u32),
                       draw(st.integers(0, (1 << 64) - 1)), draw(u32))
    if not offer.resumable:  # a v1 offer carries no identity
        offer = wire.Offer(filesize, packet_size, offer.ack_port, flags,
                           offer.crc)
    rest = draw(st.lists(st.one_of(
        st.builds(wire.Accept, ports),
        st.builds(wire.ResumeInfo, st.integers(0, (1 << 64) - 1), u32, ports,
                  st.lists(st.booleans(), min_size=npackets,
                           max_size=npackets).map(
                               lambda bits: np.array(bits, dtype=bool))),
        st.builds(wire.Verify, st.binary(
            min_size=1, max_size=min(max_manifest_bytes(npackets), 4096))),
        st.builds(wire.Completion, u32),
        st.builds(wire.FetchRequest,
                  st.text(min_size=1, max_size=40), u32, u32,
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
        with pytest.raises(ValueError):
            wire.Offer(filesize, packet_size, 40001, flags, 0)

    @pytest.mark.parametrize("flags, most", [
        (wire.FLAG_RESUME, 523_832),   # the ACK's session extension
        (0, 523_928),
    ])
    def test_an_object_one_ack_cannot_cover_is_no_offer(self, flags, most):
        assert wire.Offer(most, 1, 40001, flags, 0).npackets == most
        decoder = wire.ControlDecoder()
        decoder.feed(raw_offer(most + 1, 1, flags))
        with pytest.raises(ValueError, match=f"covers at most {most}"):
            decoder.next_frame()

    def test_the_largest_packets_udp_can_carry_are_offers(self):
        assert decode_all([raw_offer(10**6, 65495)])[0].packet_size == 65495
        assert decode_all([raw_offer(10**6, 65491, wire.FLAG_CHECKSUM)])

    def test_resume_for_another_geometry_refused_on_its_header(self):
        """The daemon-killer: right id, right length, ``npackets=8`` for a
        196-packet object.  Refused from the 28 header bytes alone."""
        resume = wire.encode_resume(TID, 3, 40002, np.zeros(8, dtype=bool))
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
                  for name, magic, fmt, size in rows[:9]]
    assert documented == [
        (spec.name, spec.magic, spec.header.format, spec.header.size)
        for spec in wire.CONTROL_FRAMES]
