"""Property-based tests for fault injection and the hardened wire formats.

Two families:

* **Transfer properties** — for *any* seeded fault schedule, a FOBS
  transfer terminates with a diagnosable outcome; whenever it reports
  success the receiver holds every packet and accepted no corrupted
  one; and replaying the same (schedule, seed) pair produces an
  identical packet trace.
* **Wire properties** — the checksummed real-socket formats round-trip
  losslessly, and no single-byte corruption can change the decoded
  payload or acknowledgement bitmap undetected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FobsConfig
from repro.core.packets import DataPacket
from repro.core.session import FobsTransfer
from repro.runtime import wire
from repro.simnet import FaultSchedule, Tracer, install_faults

from _support import SESSION, ack_of, tiny_path, unpacked

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NBYTES = 64_000


def schedules() -> st.SearchStrategy[FaultSchedule]:
    """Random-but-valid fault schedules, biased toward survivable ones."""
    windows = st.one_of(
        st.just(()),
        st.tuples(st.floats(0.0, 0.05), st.floats(0.06, 0.5)).map(
            lambda w: (w,)),
    )
    return st.builds(
        FaultSchedule,
        blackholes=windows,
        loss_rate=st.floats(0.0, 0.15),
        duplicate_rate=st.floats(0.0, 0.10),
        corrupt_rate=st.floats(0.0, 0.05),
    )


def run_with_faults(schedule: FaultSchedule, seed: int, traced: bool = False):
    net = tiny_path(seed=seed)
    install_faults(net, schedule, direction="both")
    tracer = Tracer(enabled=traced)
    config = FobsConfig(ack_frequency=16, stall_timeout=0.5,
                        stall_abort_after=8.0, receiver_idle_timeout=10.0,
                        ack_refresh_interval=0.4)
    transfer = FobsTransfer(net, NBYTES, config, tracer=tracer)
    stats = transfer.run(time_limit=60.0)
    trace = [(r.time, r.kind, r.detail) for r in tracer.records]
    return transfer, stats, trace


class TestTransferProperties:
    @settings(max_examples=12, deadline=None)
    @given(schedule=schedules(), seed=st.integers(0, 2**16))
    def test_success_implies_integrity(self, schedule, seed):
        """Terminates; on success, every packet landed and nothing
        corrupted was ever accepted into the object."""
        transfer, stats, _ = run_with_faults(schedule, seed)
        # Exactly one diagnosable outcome.
        assert stats.ok or stats.failed or stats.timed_out
        if stats.ok:
            assert transfer.receiver.bitmap.is_complete
            assert transfer.receiver.stats.packets_new == transfer.receiver.npackets
            # Corrupted frames were counted and dropped, never marked.
            delivered_corrupt = transfer.receiver.stats.packets_corrupt
            assert stats.corrupt_data_dropped == delivered_corrupt
        if stats.failed:
            assert stats.failure_reason

    @settings(max_examples=8, deadline=None)
    @given(schedule=schedules(), seed=st.integers(0, 2**16))
    def test_replay_is_byte_identical(self, schedule, seed):
        """The same (schedule, seed) pair replays the same trace."""
        _, stats_a, trace_a = run_with_faults(schedule, seed, traced=True)
        _, stats_b, trace_b = run_with_faults(schedule, seed, traced=True)
        assert trace_a == trace_b
        assert stats_a.packets_sent == stats_b.packets_sent
        assert stats_a.ok == stats_b.ok
        # Schedules round-trip through their dict form, replaying too.
        clone = FaultSchedule.from_dict(schedule.to_dict())
        _, stats_c, trace_c = run_with_faults(clone, seed, traced=True)
        assert trace_c == trace_a


class TestWireProperties:
    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=1400),
           seq=st.integers(0, 2**31 - 1),
           transmission=st.integers(0, 2**15))
    def test_data_round_trip(self, payload, seq, transmission):
        pkt = DataPacket(seq=seq, total=seq + 1, payload_bytes=len(payload),
                         transmission=transmission)
        datagram = wire.encode_data(pkt, payload, checksum=True, session=SESSION)
        decoded, out = wire.decode_data(datagram, checksum=True, session=SESSION)
        assert out == payload
        assert (decoded.seq, decoded.transmission) == (seq, transmission)

    @settings(max_examples=50, deadline=None)
    @given(payload=st.binary(min_size=1, max_size=1400),
           flip=st.integers(0, 2**31), data=st.data())
    def test_data_corruption_always_detected(self, payload, flip, data):
        """Any single-byte flip anywhere in a checksummed data datagram
        raises ChecksumError — silent payload corruption is impossible."""
        pkt = DataPacket(seq=3, total=10, payload_bytes=len(payload))
        datagram = bytearray(wire.encode_data(pkt, payload, checksum=True, session=SESSION))
        pos = flip % len(datagram)
        delta = data.draw(st.integers(1, 255))
        datagram[pos] ^= delta
        with pytest.raises(wire.ChecksumError):
            wire.decode_data(bytes(datagram), checksum=True, session=SESSION)

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.booleans(), min_size=1, max_size=400),
           ack_id=st.integers(0, 2**31 - 1))
    def test_ack_round_trip(self, bits, ack_id):
        bitmap = np.asarray(bits, dtype=np.bool_)
        ack = ack_of(ack_id, int(bitmap.sum()), bitmap)
        decoded = wire.decode_ack(
            wire.encode_ack(ack, checksum=True, session=SESSION),
            checksum=True, session=SESSION)
        assert decoded.ack_id == ack_id
        assert np.array_equal(unpacked(decoded.bitmap, decoded.npackets),
                              bitmap)

    @settings(max_examples=50, deadline=None)
    @given(bits=st.lists(st.booleans(), min_size=8, max_size=400),
           flip=st.integers(0, 2**31), data=st.data())
    def test_ack_bitmap_never_silently_corrupted(self, bits, flip, data):
        """A flipped byte either raises or leaves the decoded bitmap
        intact (the CRC covers the bitmap, the payload that matters)."""
        bitmap = np.asarray(bits, dtype=np.bool_)
        ack = ack_of(7, int(bitmap.sum()), bitmap)
        datagram = bytearray(wire.encode_ack(ack, checksum=True, session=SESSION))
        pos = flip % len(datagram)
        delta = data.draw(st.integers(1, 255))
        datagram[pos] ^= delta
        try:
            decoded = wire.decode_ack(bytes(datagram), checksum=True,
                                      session=SESSION)
        except ValueError:
            return  # detected (ChecksumError is a ValueError)
        # A flip in the uncovered header words may survive, but it can
        # never fabricate a "received" bit: a false positive would make
        # the sender skip a packet forever, a false negative merely
        # re-sends one.
        got = unpacked(decoded.bitmap, decoded.npackets)
        n = min(got.shape[0], bitmap.shape[0])
        assert np.array_equal(got[:n], bitmap[:n])
        assert not got[n:].any()

    def test_fallback_format_is_byte_identical(self):
        """checksum=False is the checksummed format without its trailer,
        and with the ACK's CRC word (the original reserved one) zero."""
        pkt = DataPacket(seq=1, total=4, payload_bytes=3)
        plain = wire.encode_data(pkt, b"abc", checksum=False, session=SESSION)
        summed = wire.encode_data(pkt, b"abc", checksum=True, session=SESSION)
        assert summed[:-wire.CHECKSUM_TRAILER_BYTES] == plain
        ack = ack_of(0, 2, [True, False, True, False])
        plain_ack = wire.encode_ack(ack, checksum=False, session=SESSION)
        summed_ack = wire.encode_ack(ack, checksum=True, session=SESSION)
        # Only the formerly reserved fourth header word differs.
        assert plain_ack[:12] == summed_ack[:12]
        assert plain_ack[16:] == summed_ack[16:]
        assert plain_ack[12:16] == b"\x00\x00\x00\x00"
