"""Tests for the real-socket wire formats, incl. roundtrip properties."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from _support import ack_of
from repro.core.packets import DataPacket
from repro.runtime import wire

SESSION = wire.SessionContext(0x5E55)


class TestDataRoundtrip:
    def test_roundtrip(self):
        pkt = DataPacket(seq=5, total=10, payload_bytes=4, transmission=2)
        decoded, payload = wire.decode_data(
            wire.encode_data(pkt, b"abcd", session=SESSION), session=SESSION)
        assert decoded == pkt
        assert payload == b"abcd"

    def test_payload_length_checked(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        with pytest.raises(ValueError):
            wire.encode_data(pkt, b"toolongpayload", session=SESSION)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_data(b"\x00\x01", session=SESSION)

    def test_empty_payload_rejected(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=1)
        raw = wire.encode_data(pkt, b"x", session=SESSION)[:-1]
        with pytest.raises(ValueError):
            wire.decode_data(raw, session=SESSION)

    @given(
        total=st.integers(min_value=1, max_value=1000),
        data=st.data(),
    )
    def test_property_roundtrip(self, total, data):
        seq = data.draw(st.integers(0, total - 1))
        payload = data.draw(st.binary(min_size=1, max_size=100))
        pkt = DataPacket(seq=seq, total=total, payload_bytes=len(payload))
        decoded, out = wire.decode_data(
            wire.encode_data(pkt, payload, session=SESSION), session=SESSION)
        assert decoded == pkt and out == payload


class TestAckRoundtrip:
    def make(self, n, marked):
        bm = np.zeros(n, dtype=np.bool_)
        bm[list(marked)] = True
        return ack_of(3, len(marked), bm)

    def test_roundtrip(self):
        ack = self.make(20, [0, 7, 19])
        decoded = wire.decode_ack(wire.encode_ack(ack, session=SESSION),
                                  session=SESSION)
        assert decoded.ack_id == 3
        assert decoded.received_count == 3
        assert decoded.bitmap == ack.bitmap and decoded.npackets == 20

    def test_truncated_bitmap_rejected(self):
        raw = wire.encode_ack(self.make(100, [5]), session=SESSION)
        with pytest.raises(ValueError):
            wire.decode_ack(raw[:-5], session=SESSION)

    @given(n=st.integers(min_value=1, max_value=500), data=st.data())
    def test_property_roundtrip(self, n, data):
        marked = data.draw(st.sets(st.integers(0, n - 1), max_size=50))
        ack = self.make(n, marked)
        decoded = wire.decode_ack(wire.encode_ack(ack, session=SESSION),
                                  session=SESSION)
        assert decoded.bitmap == ack.bitmap and decoded.npackets == n


class TestCompletion:
    def test_roundtrip(self):
        assert wire.decode_completion(wire.encode_completion(12345)) == 12345

    def test_bad_magic_rejected(self):
        raw = bytearray(wire.encode_completion(1))
        raw[0] ^= 0xFF
        with pytest.raises(ValueError):
            wire.decode_completion(bytes(raw))

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_completion(b"\x00")
