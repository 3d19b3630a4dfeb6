"""Tests for the packet bitmap, including property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        assert snap[0] and not snap[1]
        with pytest.raises(ValueError):
            snap[2] = True

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
        assert snap.tolist() == [False, True, False, False]
        with pytest.raises(ValueError):
            snap[0] = True

    def test_array_stays_read_only(self):
        bm = PacketBitmap(4)
        with pytest.raises(ValueError):
            bm.array[0] = True
        assert bm.count == 0 and bm.flags[0] == 0
