"""Tests for the packet bitmap, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import unpacked
from repro.core.bitmap import PacketBitmap


class TestMark:
    def test_mark_new_returns_true(self):
        bm = PacketBitmap(10)
        assert bm.mark(3)
        assert bm.count == 1

    def test_mark_duplicate_returns_false(self):
        bm = PacketBitmap(10)
        bm.mark(3)
        assert not bm.mark(3)
        assert bm.count == 1

    def test_out_of_range_rejected(self):
        bm = PacketBitmap(10)
        with pytest.raises(IndexError):
            bm.mark(10)
        with pytest.raises(IndexError):
            bm.mark(-1)

    def test_complete(self):
        bm = PacketBitmap(3)
        for i in range(3):
            bm.mark(i)
        assert bm.is_complete
        assert bm.missing == 0

    def test_zero_packets_rejected(self):
        with pytest.raises(ValueError):
            PacketBitmap(0)


class TestMerge:
    def test_merge_adds_new_bits(self):
        bm = PacketBitmap(10)
        bm.mark(0)
        other = np.zeros(10, dtype=np.bool_)
        other[[0, 5, 7]] = True
        assert bm.merge(other) == 2
        assert bm.count == 3

    def test_merge_never_clears(self):
        bm = PacketBitmap(10)
        bm.mark(4)
        assert bm.merge(np.zeros(10, dtype=np.bool_)) == 0
        assert bm.array[4]

    def test_shape_mismatch_rejected(self):
        bm = PacketBitmap(10)
        with pytest.raises(ValueError):
            bm.merge(np.zeros(5, dtype=np.bool_))


class TestScan:
    def test_next_missing_from_start(self):
        bm = PacketBitmap(10)
        bm.mark(0)
        bm.mark(1)
        assert bm.next_missing(0) == 2

    def test_next_missing_wraps(self):
        bm = PacketBitmap(5)
        for i in (2, 3, 4):
            bm.mark(i)
        assert bm.next_missing(2) == 0

    def test_next_missing_none_when_complete(self):
        bm = PacketBitmap(3)
        for i in range(3):
            bm.mark(i)
        assert bm.next_missing(0) is None

    def test_next_missing_out_of_range_start_wraps(self):
        bm = PacketBitmap(5)
        assert bm.next_missing(7) == 2

    def test_missing_indices(self):
        bm = PacketBitmap(5)
        bm.mark(1)
        bm.mark(3)
        assert bm.missing_indices().tolist() == [0, 2, 4]

    def test_iter_missing(self):
        bm = PacketBitmap(4)
        bm.mark(0)
        assert list(bm.iter_missing()) == [1, 2, 3]


class TestSnapshotAndWire:
    def test_snapshot_is_immutable_copy(self):
        bm = PacketBitmap(5)
        bm.mark(0)
        snap = bm.snapshot()
        bm.mark(1)
        bits = unpacked(snap, 5)
        assert bits[0] and not bits[1]
        with pytest.raises(TypeError):
            snap[0] = 0xFF

    def test_array_view_read_only(self):
        bm = PacketBitmap(5)
        with pytest.raises(ValueError):
            bm.array[0] = True

    def test_bytes_roundtrip(self):
        bm = PacketBitmap(13)
        for i in (0, 5, 12):
            bm.mark(i)
        restored = PacketBitmap.from_bytes(bm.to_bytes(), 13)
        assert np.array_equal(restored.array, bm.array)
        assert restored.count == 3

    def test_packed_size(self):
        assert len(PacketBitmap(13).to_bytes()) == 2
        assert len(PacketBitmap(16).to_bytes()) == 2
        assert len(PacketBitmap(17).to_bytes()) == 3


@given(
    npackets=st.integers(min_value=1, max_value=300),
    data=st.data(),
)
def test_property_count_matches_unique_marks(npackets, data):
    """count == number of distinct marked sequence numbers, always."""
    bm = PacketBitmap(npackets)
    seqs = data.draw(st.lists(st.integers(0, npackets - 1), max_size=200))
    for seq in seqs:
        bm.mark(seq)
    assert bm.count == len(set(seqs))
    assert bm.missing == npackets - len(set(seqs))
    assert bm.is_complete == (len(set(seqs)) == npackets)


@given(npackets=st.integers(min_value=1, max_value=200), data=st.data())
def test_property_bytes_roundtrip(npackets, data):
    """to_bytes/from_bytes is the identity on bitmap state."""
    bm = PacketBitmap(npackets)
    for seq in data.draw(st.lists(st.integers(0, npackets - 1), max_size=100)):
        bm.mark(seq)
    restored = PacketBitmap.from_bytes(bm.to_bytes(), npackets)
    assert np.array_equal(restored.array, bm.array)


@given(npackets=st.integers(min_value=2, max_value=100), data=st.data())
def test_property_next_missing_is_first_false_circularly(npackets, data):
    """next_missing(start) returns the circularly-first unmarked seq."""
    bm = PacketBitmap(npackets)
    marked = data.draw(st.sets(st.integers(0, npackets - 1),
                               max_size=npackets - 1))
    for seq in marked:
        bm.mark(seq)
    start = data.draw(st.integers(0, npackets - 1))
    result = bm.next_missing(start)
    expected = next(
        (start + off) % npackets
        for off in range(npackets)
        if (start + off) % npackets not in marked
    )
    assert result == expected


@given(npackets=st.integers(min_value=1, max_value=200), data=st.data())
def test_property_mark_range_is_mark_folded_over_the_range(npackets, data):
    """One ``mark_range`` leaves the flags, the count and the returned
    number of new packets exactly where ``mark`` over each packet of the
    range does, whatever of the range was already set."""
    marked = data.draw(st.lists(st.integers(0, npackets - 1), max_size=60))
    start = data.draw(st.integers(0, npackets - 1))
    count = data.draw(st.integers(1, npackets - start))
    ours, ref = PacketBitmap(npackets), PacketBitmap(npackets)
    for seq in marked:
        ours.mark(seq)
        ref.mark(seq)
    added = ours.mark_range(start, count)
    assert added == sum(ref.mark(seq) for seq in range(start, start + count))
    assert bytes(ours.flags) == bytes(ref.flags)
    assert ours.count == ref.count


class TestFlagsAndArrayAreOneMemory:
    """The byte per packet the scalar paths and the ``memchr`` sweep
    use and the bool array the bulk operations use are the same bytes."""

    def test_scalar_writes_show_in_the_array(self):
        bm = PacketBitmap(8)
        view = bm.array
        bm.mark(5)
        assert view[5] and bm.flags[5] == 1
        bm.clear(5)
        assert not view[5] and bm.flags[5] == 0

    def test_bulk_writes_show_in_find(self):
        bm = PacketBitmap(8)
        other = np.ones(8, dtype=np.bool_)
        other[6] = False
        bm.merge(other)
        assert bm.flags.find(0) == 6 and bm.next_missing(7) == 6
        bm.mark_range(6, 1)
        assert bm.flags.find(0) == -1 and bm.next_missing(0) is None
        bm.demote([2, 3])
        assert bm.flags.find(0, 3) == 3 and bm.count == 6
        restored = PacketBitmap.from_bytes(bm.to_bytes(), 8)
        assert bytes(restored.flags) == bytes(bm.flags)

    def test_snapshot_is_an_independent_immutable_copy(self):
        bm = PacketBitmap(4)
        bm.mark(1)
        snap = bm.snapshot()
        bm.mark(2)
        assert unpacked(snap, 4).tolist() == [False, True, False, False]
        with pytest.raises(TypeError):
            snap[0] = 0xFF

    def test_array_stays_read_only(self):
        bm = PacketBitmap(4)
        with pytest.raises(ValueError):
            bm.array[0] = True
        assert bm.count == 0 and bm.flags[0] == 0


# ----------------------------------------------------------------------
# Differential: the flags and the packed image against a NumPy model
# ----------------------------------------------------------------------
def _image_of_runs(npackets, runs):
    bits = np.zeros(npackets, dtype=np.bool_)
    for start, count in runs:
        bits[start:start + count] = True
    return np.packbits(bits).tobytes()


def _with_padding(image, npackets):
    """``image`` with every padding bit of its last byte set."""
    pad = len(image) * 8 - npackets
    return image[:-1] + bytes((image[-1] | ((1 << pad) - 1),))


@st.composite
def _bitmap_programs(draw):
    npackets = draw(st.one_of(st.integers(1, 70), st.sampled_from([8192, 8193])))
    nbytes = -(-npackets // 8)
    seq = st.integers(0, npackets - 1)
    image = st.one_of(
        st.binary(min_size=nbytes, max_size=nbytes),
        st.lists(st.tuples(seq, st.integers(1, 80)), max_size=24).map(
            lambda runs: _image_of_runs(
                npackets, [(s, min(c, npackets - s)) for s, c in runs])),
    )
    image = st.tuples(image, st.booleans()).map(
        lambda pair: _with_padding(pair[0], npackets) if pair[1] else pair[0])
    op = st.one_of(
        st.tuples(st.just("mark"), seq),
        st.tuples(st.just("mark_range"), seq, st.integers(1, 200)),
        st.tuples(st.just("clear"), seq),
        st.tuples(st.just("demote"), st.lists(seq, max_size=12)),
        st.tuples(st.just("merge"), image),
        st.tuples(st.just("merge_bools"), image),
    )
    return npackets, draw(st.lists(op, max_size=25))


def _reference(ref, op):
    """What ``op`` does to the bool array ``ref``; what it returns."""
    name, arg = op[0], op[1]
    n = ref.shape[0]
    if name == "mark":
        was = bool(ref[arg])
        ref[arg] = True
        return not was
    if name == "mark_range":
        count = min(op[2], n - arg)
        added = count - int(ref[arg:arg + count].sum())
        ref[arg:arg + count] = True
        return added
    if name == "clear":
        was = bool(ref[arg])
        ref[arg] = False
        return was
    if name == "demote":
        was = {seq for seq in arg if ref[seq]}
        ref[list(arg)] = False
        return len(was)
    other = np.unpackbits(np.frombuffer(arg, dtype=np.uint8), count=n)
    other = other.astype(np.bool_)
    added = int((other & ~ref).sum())
    ref |= other
    return added


def _apply(bm, op):
    name, arg = op[0], op[1]
    if name == "mark_range":
        return bm.mark_range(arg, min(op[2], bm.npackets - arg))
    if name == "merge_bools":
        return bm.merge(np.unpackbits(np.frombuffer(arg, dtype=np.uint8),
                                      count=bm.npackets).astype(np.bool_))
    return getattr(bm, name)(arg)


@settings(max_examples=300, deadline=None)
@given(_bitmap_programs())
def test_property_flags_count_and_image_follow_a_numpy_model(program):
    """After every ``mark``/``mark_range``/``clear``/``demote``/``merge``
    (of an image — random, of many runs, padding bits set — or of a bool
    array): the same return value, flags, count, and a snapshot that is
    ``np.packbits`` of the flags; and the ACK and RESUME codecs carry
    that image unchanged."""
    from repro.core.packets import AckPacket
    from repro.runtime import wire

    npackets, ops = program
    bm, ref = PacketBitmap(npackets), np.zeros(npackets, dtype=np.bool_)
    for op in ops:
        assert _apply(bm, op) == _reference(ref, op), op[0]
        assert bytes(bm.flags) == ref.astype(np.uint8).tobytes()
        assert bm.count == int(ref.sum())
        assert bm.snapshot() == np.packbits(ref).tobytes()
    image = bm.snapshot()
    session = wire.SessionContext(0x5E55, 2)
    ack = AckPacket(ack_id=1, received_count=bm.count, bitmap=image,
                    npackets=npackets, epoch=2)
    for checksum in (False, True):
        decoded = wire.decode_ack(
            wire.encode_ack(ack, checksum, session=session), checksum,
            session=session)
        assert (decoded.bitmap, decoded.npackets) == (image, npackets)
    resume = wire.decode_resume(wire.encode_resume(7, 2, 40002, image,
                                                   npackets))
    assert (resume.bitmap, resume.npackets) == (image, npackets)
    assert resume.packets_recovered == bm.count
    assert PacketBitmap.from_bytes(image, npackets).flags == bm.flags
    assert list(bm.runs()) == _runs_of(ref)


def _runs_of(bits):
    padded = np.concatenate(([False], bits, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return [(int(s), int(e - s)) for s, e in zip(edges[::2], edges[1::2])]


@pytest.mark.parametrize("npackets", [1, 7, 9, 8193])
def test_the_codecs_clear_padding_bits_an_image_arrives_with(npackets):
    from repro.core.packets import AckPacket
    from repro.runtime import wire

    clean = _image_of_runs(npackets, [(0, 1)])
    padded = _with_padding(clean, npackets)
    session = wire.SessionContext(1)
    ack = AckPacket(ack_id=0, received_count=1, bitmap=padded,
                    npackets=npackets)
    decoded = wire.decode_ack(wire.encode_ack(ack, True, session=session),
                              True, session=session)
    assert decoded.bitmap == clean
    resume = wire.decode_resume(wire.encode_resume(1, 0, 1, padded, npackets))
    assert resume.bitmap == clean and resume.packets_recovered == 1
    bm = PacketBitmap(npackets)
    assert bm.merge(padded) == 1 and bm.snapshot() == clean
