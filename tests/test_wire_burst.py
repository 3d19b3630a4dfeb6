"""Burst wire codec: equivalence with the per-packet codec.

The burst codec exists purely for speed; its contract is that every
byte on the wire and every decode outcome is identical to running
:func:`~repro.runtime.wire.encode_data` / ``decode_data`` once per
datagram.  The hypothesis properties here pin that contract across the
format matrix (checksum on/off × session extension on/off), including
the per-datagram rejection behaviour under corruption.
"""

import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packets import DataPacket
from repro.runtime import wire

from _support import decode_burst, encode_burst


def _variants():
    return [
        (False, None),
        (True, None),
        (False, wire.SessionContext(transfer_id=0xABCDEF0123, epoch=7)),
        (True, wire.SessionContext(transfer_id=0xABCDEF0123, epoch=7)),
    ]


@st.composite
def bursts(draw):
    """A coherent burst: packets of one transfer plus their payloads."""
    total = draw(st.integers(min_value=1, max_value=500))
    n = draw(st.integers(min_value=1, max_value=12))
    packets, payloads = [], []
    for _ in range(n):
        payload = draw(st.binary(min_size=1, max_size=64))
        packets.append(DataPacket(
            seq=draw(st.integers(0, total - 1)), total=total,
            payload_bytes=len(payload),
            transmission=draw(st.integers(0, 5)),
        ))
        payloads.append(payload)
    return packets, payloads


class TestEncodeEquivalence:
    @settings(max_examples=60)
    @given(burst=bursts(), variant=st.sampled_from(range(4)))
    def test_burst_bytes_identical_to_per_packet(self, burst, variant):
        packets, payloads = burst
        checksum, session = _variants()[variant]
        singles = [wire.encode_data(p, pl, checksum, session)
                   for p, pl in zip(packets, payloads)]
        views = encode_burst(packets, payloads, checksum, session)
        assert [bytes(v) for v in views] == singles

    def test_empty_burst(self):
        assert encode_burst([], []) == []

    def test_length_mismatch_rejected(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        with pytest.raises(ValueError):
            encode_burst([pkt], [b"toolongpayload"])
        with pytest.raises(ValueError):
            encode_burst([pkt], [])

    def test_views_share_one_buffer(self):
        pkts = [DataPacket(seq=i, total=3, payload_bytes=8)
                for i in range(3)]
        views = encode_burst(pkts, [bytes(8)] * 3)
        assert len({id(v.obj) for v in views}) == 1


class TestDecodeEquivalence:
    @settings(max_examples=60)
    @given(burst=bursts(), variant=st.sampled_from(range(4)))
    def test_burst_decode_matches_per_packet(self, burst, variant):
        packets, payloads = burst
        checksum, session = _variants()[variant]
        singles = [wire.encode_data(p, pl, checksum, session)
                   for p, pl in zip(packets, payloads)]
        results, errors = decode_burst(singles, checksum, session)
        assert not errors
        for datagram, (pkt, payload) in zip(singles, results):
            ref_pkt, ref_payload = wire.decode_data(
                datagram, checksum, session)
            assert pkt == ref_pkt
            assert bytes(payload) == ref_payload

    @settings(max_examples=40)
    @given(burst=bursts(), data=st.data())
    def test_one_byte_flip_rejects_only_that_datagram(self, burst, data):
        packets, payloads = burst
        session = wire.SessionContext(transfer_id=5, epoch=1)
        singles = [wire.encode_data(p, pl, True, session)
                   for p, pl in zip(packets, payloads)]
        victim = data.draw(st.integers(0, len(singles) - 1))
        pos = data.draw(st.integers(0, len(singles[victim]) - 1))
        damaged = bytearray(singles[victim])
        damaged[pos] ^= data.draw(st.integers(1, 255))
        singles[victim] = bytes(damaged)
        results, errors = decode_burst(singles, True, session)
        assert [i for i, _ in errors] == [victim]
        assert isinstance(errors[0][1], wire.ChecksumError)
        assert results[victim] is None
        for i, r in enumerate(results):
            if i != victim:
                assert r is not None and bytes(r[1]) == payloads[i]

    def test_mixed_wrong_session_and_stale_epoch(self):
        mine = wire.SessionContext(transfer_id=10, epoch=2)
        other = wire.SessionContext(transfer_id=11, epoch=2)
        stale = wire.SessionContext(transfer_id=10, epoch=1)
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        burst = [wire.encode_data(pkt, b"good", session=mine),
                 wire.encode_data(pkt, b"evil", session=other),
                 wire.encode_data(pkt, b"dead", session=stale)]
        results, errors = decode_burst(burst, session=mine)
        assert results[0] is not None and results[1] is None
        assert results[2] is None
        kinds = {i: type(e) for i, e in errors}
        assert kinds == {1: wire.SessionMismatchError, 2: wire.StaleEpochError}

    def test_truncated_datagrams_rejected_individually(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        good = wire.encode_data(pkt, b"abcd", checksum=True)
        burst = [b"\x00\x01", good, good[:wire._DATA_HDR.size + 1]]
        results, errors = decode_burst(burst, checksum=True)
        assert results[1] is not None
        assert sorted(i for i, _ in errors) == [0, 2]
        for _, exc in errors:
            assert isinstance(exc, ValueError)

    def test_zero_copy_payload_views(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        backing = bytearray(wire.encode_data(pkt, b"abcd"))
        (result,), errors = decode_burst([backing])
        assert not errors
        _decoded, payload = result
        assert isinstance(payload, memoryview)
        backing[-1] ^= 0xFF  # mutating the buffer shows through the view
        assert bytes(payload) != b"abcd"

    def test_empty_burst(self):
        assert decode_burst([]) == ([], [])


class TestCrcTrailers:
    def test_trailer_is_crc_of_header_and_payload(self):
        pkts = [DataPacket(seq=i, total=2, payload_bytes=6) for i in range(2)]
        views = encode_burst(pkts, [b"abcdef", b"ghijkl"],
                                       checksum=True)
        for v in views:
            body, trailer = bytes(v[:-4]), bytes(v[-4:])
            assert zlib.crc32(body) == int.from_bytes(trailer, "big")
