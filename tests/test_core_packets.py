"""Tests for FOBS wire-format objects."""

import numpy as np
import pytest

from _support import ack_of
from repro.core.packets import (
    ACK_HEADER_BYTES,
    AckPacket,
    CompletionSignal,
    DataPacket,
    ack_wire_bytes,
    bitmap_wire_bytes,
)


class TestDataPacket:
    def test_wire_size_adds_header(self):
        pkt = DataPacket(seq=0, total=10, payload_bytes=1024)
        assert pkt.wire_bytes == 1024 + 12

    def test_seq_bounds_checked(self):
        with pytest.raises(ValueError):
            DataPacket(seq=10, total=10, payload_bytes=1)
        with pytest.raises(ValueError):
            DataPacket(seq=-1, total=10, payload_bytes=1)

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            DataPacket(seq=0, total=1, payload_bytes=0)


class TestAckPacket:
    def make(self, n=20):
        bm = np.zeros(n, dtype=np.bool_)
        bm[:5] = True
        return ack_of(1, 5, bm)

    def test_wire_size_one_bit_per_packet(self):
        ack = self.make(20)
        assert ack.wire_bytes == ACK_HEADER_BYTES + 3  # ceil(20/8)

    def test_bitmap_frozen_on_construction(self):
        ack = self.make()
        with pytest.raises(TypeError):
            ack.bitmap[0] = 0

    def test_non_bool_bitmap_rejected(self):
        """A bitmap that is not the image of ``npackets`` packets."""
        with pytest.raises(ValueError):
            AckPacket(ack_id=0, received_count=0, bitmap=bytes(2),
                      npackets=4)
        with pytest.raises(ValueError):
            AckPacket(ack_id=0, received_count=0, bitmap=bytes(1),
                      npackets=9)

    def test_npackets(self):
        assert self.make(20).npackets == 20


class TestWireSizes:
    def test_bitmap_wire_bytes(self):
        assert bitmap_wire_bytes(1) == 1
        assert bitmap_wire_bytes(8) == 1
        assert bitmap_wire_bytes(9) == 2
        # the paper's 40 MB / 1 KB object: 39063 packets -> ~4.8 KB ack
        assert bitmap_wire_bytes(39063) == 4883

    def test_ack_wire_bytes(self):
        assert ack_wire_bytes(8) == ACK_HEADER_BYTES + 1

    def test_completion_signal(self):
        assert CompletionSignal(total_packets=10).wire_bytes == 12
