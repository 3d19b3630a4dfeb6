"""Burst wire codec: equivalence with the per-packet codec.

The burst codec exists purely for speed; its contract is that every
byte on the wire and every decode outcome is identical to running
:func:`~repro.runtime.wire.encode_data` / ``decode_data`` once per
datagram.  The hypothesis properties here pin that contract across the
format matrix (checksum on/off × two session contexts), including
the per-datagram rejection behaviour under corruption, for trains
given as separate datagrams and as regions (datagrams end to end, as
a segmented send and a ``UDP_GRO`` read move them).
"""

import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.packets import DataPacket
from repro.runtime import wire
from repro.runtime.driver import ObjectFile

from _support import SESSION, decode_burst, joined


def _variants():
    return [
        (False, SESSION),
        (True, SESSION),
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


@st.composite
def batches(draw):
    """An object, its packet size and a batch of its packets: often in
    order (a first pass), the short last packet anywhere."""
    packet_size = draw(st.integers(1, 48))
    nbytes = draw(st.integers(1, 12 * packet_size))
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    total = -(-nbytes // packet_size)
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        first = draw(st.integers(0, total - 1))
        seqs = [(first + i) % total for i in range(n)]
    else:
        seqs = draw(st.lists(st.integers(0, total - 1), min_size=n,
                             max_size=n))
    transmissions = draw(st.lists(st.integers(0, 5), min_size=n,
                                  max_size=n))
    return data, packet_size, seqs, transmissions


def singles(data, packet_size, seqs, transmissions, checksum, session):
    """The batch through :func:`wire.encode_data`, one call a packet."""
    total = -(-len(data) // packet_size)
    out = []
    for seq, transmission in zip(seqs, transmissions):
        payload = data[seq * packet_size:(seq + 1) * packet_size]
        out.append(wire.encode_data(
            DataPacket(seq=seq, total=total, payload_bytes=len(payload),
                       transmission=transmission),
            payload, checksum, session=session))
    return out


@pytest.mark.guard
class TestEncodeEquivalence:
    @settings(max_examples=100)
    @given(batch=batches(), variant=st.sampled_from(range(4)))
    def test_burst_bytes_identical_to_per_packet(self, batch, variant):
        data, packet_size, seqs, transmissions = batch
        checksum, session = _variants()[variant]
        ref = singles(data, packet_size, seqs, transmissions, checksum,
                      session)
        train = wire.encode_data_burst(seqs, transmissions, data,
                                       packet_size, checksum,
                                       session=session)
        assert [bytes(d) for d in train] == ref
        assert len(train) == len(ref)
        # Region-shaped: each run is its datagrams end to end, all of
        # the full size but the last, and only the object's short last
        # packet ends a run early.
        assert b"".join(bytes(region) for region, _ in train.runs) \
            == b"".join(ref)
        full = 24 + packet_size + 4 * checksum
        assert all(size == full for _region, size in train.runs)
        short = (-(-len(data) // packet_size) - 1
                 if len(data) % packet_size else None)
        ends = [i for i, seq in enumerate(seqs) if seq == short]
        assert len(train.runs) == len(ends) + bool(
            seqs and (not ends or ends[-1] != len(seqs) - 1))

    @settings(max_examples=100)
    @given(batch=batches(), variant=st.sampled_from(range(4)),
           source=st.sampled_from(["file", "bytes", "bytearray"]))
    def test_every_source_encodes_the_per_packet_bytes(self, batch, variant,
                                                       source):
        """An object read from its file a run at a time, or held in
        memory, makes the same datagrams as the per-packet codec."""
        data, packet_size, seqs, transmissions = batch
        checksum, session = _variants()[variant]
        ref = singles(data, packet_size, seqs, transmissions, checksum,
                      session)
        with tempfile.TemporaryDirectory() as tmp:
            if source == "file":
                path = os.path.join(tmp, "object.bin")
                with open(path, "wb") as fh:
                    fh.write(data)
                obj = ObjectFile(path)
            else:
                obj = bytearray(data) if source == "bytearray" else data
            train = wire.encode_data_burst(seqs, transmissions, obj,
                                           packet_size, checksum,
                                           session=session)
            if source == "file":
                obj.close()
        assert [bytes(d) for d in train] == ref

    def test_empty_burst(self):
        train = wire.encode_data_burst([], [], b"abc", 2, session=SESSION)
        assert not train and len(train) == 0 and list(train) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wire.encode_data_burst([0, 1], [0], bytes(8), 4,
                                   session=SESSION)
        for seq in (-1, 2):      # a packet the object does not have
            with pytest.raises(ValueError):
                wire.encode_data_burst([0, seq], [0, 0], bytes(8), 4,
                                       session=SESSION)

    def test_views_share_one_buffer(self):
        # The short last packet mid-batch ends the first run.
        train = wire.encode_data_burst([1, 2, 0, 1], [0] * 4, bytes(20), 8,
                                       session=SESSION)
        assert [(len(region), size) for region, size in train.runs] == [
            (32 + 28, 32), (64, 32)]
        assert len({id(region.obj) for region, _size in train.runs}) == 1


class TestDecodeEquivalence:
    @settings(max_examples=60)
    @given(burst=bursts(), variant=st.sampled_from(range(4)),
           shape=st.sampled_from((list, joined)))
    def test_burst_decode_matches_per_packet(self, burst, variant, shape):
        packets, payloads = burst
        checksum, session = _variants()[variant]
        singles = [wire.encode_data(p, pl, checksum, session=session)
                   for p, pl in zip(packets, payloads)]
        results, errors = decode_burst(shape(singles), checksum, session)
        assert not errors
        for datagram, (pkt, payload) in zip(singles, results):
            ref_pkt, ref_payload = wire.decode_data(
                datagram, checksum, session=session)
            assert pkt == ref_pkt
            assert bytes(payload) == ref_payload

    @settings(max_examples=40)
    @given(burst=bursts(), data=st.data(),
           shape=st.sampled_from((list, joined)))
    def test_one_byte_flip_rejects_only_that_datagram(self, burst, data,
                                                      shape):
        packets, payloads = burst
        session = wire.SessionContext(transfer_id=5, epoch=1)
        singles = [wire.encode_data(p, pl, True, session=session)
                   for p, pl in zip(packets, payloads)]
        victim = data.draw(st.integers(0, len(singles) - 1))
        pos = data.draw(st.integers(0, len(singles[victim]) - 1))
        damaged = bytearray(singles[victim])
        damaged[pos] ^= data.draw(st.integers(1, 255))
        singles[victim] = bytes(damaged)
        results, errors = decode_burst(shape(singles), True, session)
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
        good = wire.encode_data(pkt, b"abcd", checksum=True, session=SESSION)
        burst = [b"\x00\x01", good, good[:wire._DATA_HDR.size + 1]]
        results, errors = decode_burst(burst, checksum=True)
        assert results[1] is not None
        assert sorted(i for i, _ in errors) == [0, 2]
        for _, exc in errors:
            assert isinstance(exc, ValueError)

    def test_zero_copy_payload_views(self):
        pkt = DataPacket(seq=0, total=1, payload_bytes=4)
        backing = bytearray(wire.encode_data(pkt, b"abcd", session=SESSION))
        (result,), errors = decode_burst([backing])
        assert not errors
        _decoded, payload = result
        assert isinstance(payload, memoryview)
        backing[-1] ^= 0xFF  # mutating the buffer shows through the view
        assert bytes(payload) != b"abcd"

    def test_empty_burst(self):
        assert decode_burst([]) == ([], [])


FAULTS = ("none", "flipped", "foreign", "stale", "truncated")


@st.composite
def reads(draw):
    """A read as the kernel hands it over — consecutive packets of one
    object, the last possibly its short last packet — with one datagram
    at any index damaged: a flipped byte, a foreign session, a stale
    epoch or a truncation (which ends its run)."""
    checksum, session = _variants()[draw(st.sampled_from(range(4)))]
    packet_size = draw(st.integers(1, 48))
    nbytes = draw(st.integers(1, 20 * packet_size))
    data = draw(st.binary(min_size=nbytes, max_size=nbytes))
    total = -(-nbytes // packet_size)
    n = draw(st.integers(1, min(total, 16)))
    first = draw(st.integers(0, total - n))
    seqs = list(range(first, first + n))
    datagrams = singles(data, packet_size, seqs, [0] * n, checksum,
                        session)
    fault, at = draw(st.sampled_from(FAULTS)), draw(st.integers(0, n - 1))
    if fault == "flipped":
        damaged = bytearray(datagrams[at])
        damaged[draw(st.integers(0, len(damaged) - 1))] ^= draw(
            st.integers(1, 255))
        datagrams[at] = bytes(damaged)
    elif fault in ("foreign", "stale"):
        other = (wire.SessionContext(session.transfer_id + 1, session.epoch)
                 if fault == "foreign" else
                 wire.SessionContext(session.transfer_id, session.epoch + 1))
        datagrams[at] = singles(data, packet_size, seqs[at:at + 1], [0],
                                checksum, other)[0]
    elif fault == "truncated":
        datagrams[at] = datagrams[at][:draw(st.integers(
            0, len(datagrams[at]) - 1))]
    return datagrams, checksum, session


def per_datagram(datagrams, checksum, session) -> list:
    """What :func:`wire.decode_data` makes of each datagram."""
    out = []
    for datagram in datagrams:
        try:
            pkt, payload = wire.decode_data(datagram, checksum,
                                            session=session)
        except ValueError as exc:
            out.append((type(exc), str(exc)))
        else:
            out.append((pkt.seq, pkt.total, pkt.transmission,
                        bytes(payload)))
    return out


@pytest.mark.guard
class TestRegionTrains:
    """Trains as regions: what the codec makes of each datagram is what
    :func:`wire.decode_data` makes of it, wherever it sits."""

    @settings(max_examples=300, deadline=None)
    @given(read=reads())
    def test_a_region_decodes_as_its_datagrams_do(self, read):
        datagrams, checksum, session = read
        train = joined(datagrams)
        results, errors = wire.decode_data_burst(train, checksum,
                                                 session=session)
        got = [(r[0], r[1], r[2], bytes(r[3])) if r is not None else None
               for r in results]
        for i, exc in errors:
            assert got[i] is None
            got[i] = (type(exc), str(exc))
        assert got == per_datagram(datagrams, checksum, session)
        assert [i for i, _exc in errors] == sorted(i for i, _ in errors)
        # Zero-copy: each payload is a window of its run's buffer.
        buffers = {id(region.obj) for region, _size in train.runs}
        assert all(r[3].obj is not None and id(r[3].obj) in buffers
                   for r in results if r is not None)

    @pytest.mark.parametrize("checksum", [False, True])
    def test_each_verdict_comes_in_decode_datas_order(self, checksum):
        """Datagrams that fail two checks at once, alone and as runs of
        their length: the first check :func:`wire.decode_data` makes
        names the verdict."""
        def framed(seq, total, payload=b"", session=SESSION):
            body = struct.pack("!IIiQI", seq, total, 0, session.transfer_id,
                               session.epoch) + payload
            return body + struct.pack("!I", zlib.crc32(body)) * checksum

        stale = wire.SessionContext(SESSION.transfer_id, SESSION.epoch + 1)
        odd = [framed(5, 3),                    # empty and out of range
               framed(5, 3, session=stale),     # empty and stale
               framed(7, 2, b"x"),              # out of range
               framed(0, 1)[:20],               # no session extension
               framed(0, 1)[:11]]               # no header
        for datagrams in [odd] + [[d, d, d] for d in odd]:
            results, errors = wire.decode_data_burst(
                joined(datagrams), checksum, session=SESSION)
            assert results == [None] * len(datagrams)
            assert [(i, type(e), str(e)) for i, e in errors] == [
                (i, *ref) for i, ref in enumerate(
                    per_datagram(datagrams, checksum, SESSION))]

    def test_a_short_last_datagram_and_a_train_of_one(self):
        data = bytes(range(50))
        train = wire.encode_data_burst([2, 3, 4], [0, 1, 0], data, 12, True,
                                       session=SESSION)
        ((region, size),) = train.runs
        assert (len(region), size) == (2 * 40 + 30, 40)
        results, errors = wire.decode_data_burst(train, True,
                                                 session=SESSION)
        assert not errors
        assert [(r[0], r[2], bytes(r[3])) for r in results] == [
            (2, 0, data[24:36]), (3, 1, data[36:48]), (4, 0, data[48:])]
        one = wire.Train([(region[:40], 40)])
        assert [r[0] for r in wire.decode_data_burst(
            one, True, session=SESSION)[0]] == [2]


class TestCrcTrailers:
    def test_trailer_is_crc_of_header_and_payload(self):
        views = wire.encode_data_burst([0, 1], [0, 0], b"abcdefghijkl", 6,
                                       checksum=True, session=SESSION)
        for v in views:
            body, trailer = bytes(v[:-4]), bytes(v[-4:])
            assert zlib.crc32(body) == int.from_bytes(trailer, "big")
