"""Property-based tests for the receiver write-ahead journal.

The contract under test (ISSUE acceptance): journal write → crash →
replay reconstructs the flushed bitmap *exactly*, and every damage
mode — torn final record, truncated file, corrupted entries — is
detected and dropped, never mis-applied.  A corrupted journal may
lose progress (forcing retransmission) but can never fabricate a
received packet (which would corrupt the resumed object).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.journal import (
    HEADER_BYTES,
    RECORD_BYTES,
    JournalCorrupt,
    JournalHeader,
    ReceiverJournal,
    ReplayResult,
    encode_record,
    replay_journal,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NPACKETS = 64
TID = 0xDEADBEEF
TOTAL_BYTES = NPACKETS * 1000
PACKET_SIZE = 1000


def seqs() -> st.SearchStrategy[list[int]]:
    """Arrival orders: shuffled, duplicated, partially sequential."""
    return st.lists(st.integers(0, NPACKETS - 1), min_size=0, max_size=200)


def make_journal(tmp_path, **kwargs) -> ReceiverJournal:
    return ReceiverJournal.create(
        str(tmp_path / "j.journal"), TID, TOTAL_BYTES, PACKET_SIZE, **kwargs)


class TestReplayExact:
    @given(before=seqs(), after=seqs(), flush_every=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_crash_replay_brackets_durability_boundary(
        self, tmp_path_factory, before, after, flush_every
    ):
        """Replay recovers everything flushed, fabricates nothing.

        ``before`` arrives and is explicitly flushed (durable);
        ``after`` arrives and the process crashes.  The recovered
        bitmap must contain every ``before`` packet and no packet that
        was never marked — the unflushed tail may go either way, which
        is exactly the contract (lost progress is retransmitted; a
        fabricated packet would corrupt the object).
        """
        tmp = tmp_path_factory.mktemp("journal")
        journal = ReceiverJournal.create(
            str(tmp / "j.journal"), TID, TOTAL_BYTES, PACKET_SIZE,
            flush_every=flush_every)
        for seq in before:
            if journal.bitmap.mark(seq):
                journal.record(seq)
        journal.flush()
        durable = journal.bitmap.array.copy()
        for seq in after:
            if journal.bitmap.mark(seq):
                journal.record(seq)
        everything = journal.bitmap.array.copy()
        journal.simulate_crash()
        replay = replay_journal(journal.path)
        assert replay.records_dropped == 0
        assert replay.torn_tail_bytes == 0
        recovered = replay.bitmap.array
        assert recovered[durable].all(), "flushed progress lost"
        assert not (recovered & ~everything).any(), "fabricated packets"

    @given(arrivals=seqs())
    @settings(max_examples=40, deadline=None)
    def test_clean_close_replays_everything(self, tmp_path_factory, arrivals):
        tmp = tmp_path_factory.mktemp("journal")
        journal = ReceiverJournal.create(
            str(tmp / "j.journal"), TID, TOTAL_BYTES, PACKET_SIZE)
        for seq in arrivals:
            if not journal.bitmap.array[seq]:
                journal.record(seq)
        expected = journal.bitmap.array.copy()
        journal.close()
        replay = replay_journal(str(tmp / "j.journal"))
        assert np.array_equal(replay.bitmap.array, expected)
        assert replay.records_dropped == 0

    @given(arrivals=seqs(), compact_threshold=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_compaction_preserves_bitmap(
        self, tmp_path_factory, arrivals, compact_threshold
    ):
        """Compaction rewrites the file but never the recovered state."""
        tmp = tmp_path_factory.mktemp("journal")
        journal = ReceiverJournal.create(
            str(tmp / "j.journal"), TID, TOTAL_BYTES, PACKET_SIZE,
            flush_every=1, compact_threshold=compact_threshold)
        for seq in arrivals:
            if not journal.bitmap.array[seq]:
                journal.record(seq)
        expected = journal.bitmap.array.copy()
        journal.compact()
        journal.close()
        replay = replay_journal(str(tmp / "j.journal"))
        assert np.array_equal(replay.bitmap.array, expected)
        # O(bitmap): a compacted file holds at most one record per run.
        runs = int(np.count_nonzero(np.diff(
            np.concatenate(([False], expected)).astype(np.int8)) == 1))
        size = os.path.getsize(str(tmp / "j.journal"))
        assert size <= HEADER_BYTES + runs * RECORD_BYTES


class TestDamageModes:
    def _journal_bytes(self, tmp_path, ranges) -> bytes:
        path = str(tmp_path / "j.journal")
        journal = ReceiverJournal.create(path, TID, TOTAL_BYTES, PACKET_SIZE,
                                         flush_every=1)
        for start, count in ranges:
            journal.record_range(start, count)
        journal.close()
        with open(path, "rb") as fh:
            return fh.read()

    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, NPACKETS - 1), st.integers(1, 8)).map(
                lambda rc: (rc[0], min(rc[1], NPACKETS - rc[0]))),
            min_size=1, max_size=20),
        torn=st.integers(1, RECORD_BYTES - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_torn_final_record_discarded(self, tmp_path_factory, ranges, torn):
        """A crash mid-append never desyncs or fabricates packets."""
        tmp = tmp_path_factory.mktemp("journal")
        blob = self._journal_bytes(tmp, ranges)
        path = str(tmp / "torn.journal")
        # Simulate the torn write: all complete records plus a fragment
        # of one more.
        with open(path, "wb") as fh:
            fh.write(blob + encode_record(3, 2, TID)[:torn])
        replay = replay_journal(path)
        assert replay.torn_tail_bytes == torn
        assert replay.records_dropped == 0
        full = replay_journal(str(tmp / "j.journal"))
        assert np.array_equal(replay.bitmap.array, full.bitmap.array)

    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, NPACKETS - 1), st.integers(1, 8)).map(
                lambda rc: (rc[0], min(rc[1], NPACKETS - rc[0]))),
            min_size=1, max_size=20),
        cut=st.integers(0, HEADER_BYTES - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_truncated_header_raises(self, tmp_path_factory, ranges, cut):
        tmp = tmp_path_factory.mktemp("journal")
        blob = self._journal_bytes(tmp, ranges)
        path = str(tmp / "cut.journal")
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(JournalCorrupt):
            replay_journal(path)

    @given(
        ranges=st.lists(
            st.tuples(st.integers(0, NPACKETS - 1), st.integers(1, 8)).map(
                lambda rc: (rc[0], min(rc[1], NPACKETS - rc[0]))),
            min_size=2, max_size=20),
        victim=st.integers(0, 1 << 30),
        flip_byte=st.integers(0, RECORD_BYTES - 1),
        flip_bits=st.integers(1, 255),
    )
    @settings(max_examples=60, deadline=None)
    def test_corrupted_record_dropped_never_misapplied(
        self, tmp_path_factory, ranges, victim, flip_byte, flip_bits
    ):
        """Flip any byte of any record: detected, dropped, rest intact."""
        tmp = tmp_path_factory.mktemp("journal")
        blob = bytearray(self._journal_bytes(tmp, ranges))
        nrecords = (len(blob) - HEADER_BYTES) // RECORD_BYTES
        victim %= nrecords
        off = HEADER_BYTES + victim * RECORD_BYTES + flip_byte
        blob[off] ^= flip_bits
        path = str(tmp / "corrupt.journal")
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        replay = replay_journal(path)
        assert replay.records_dropped == 1
        assert replay.records_applied == nrecords - 1
        # The corrupted record is dropped, never reinterpreted: the
        # recovered bitmap is a subset of the uncorrupted journal's.
        full = replay_journal(str(tmp / "j.journal"))
        fabricated = replay.bitmap.array & ~full.bitmap.array
        assert not fabricated.any()

    def test_foreign_transfer_rejected(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_range(0, 10)
        journal.close()
        with pytest.raises(JournalCorrupt):
            replay_journal(journal.path,
                           expect=JournalHeader(TID + 1, TOTAL_BYTES,
                                                PACKET_SIZE))
        with pytest.raises(JournalCorrupt):
            replay_journal(journal.path,
                           expect=JournalHeader(TID, TOTAL_BYTES,
                                                PACKET_SIZE * 2))

    def test_cross_transfer_record_never_verifies(self, tmp_path):
        """A record salted with another transfer id fails its CRC."""
        journal = make_journal(tmp_path)
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(encode_record(0, 5, TID + 1))
        replay = replay_journal(journal.path)
        assert replay.records_dropped == 1
        assert replay.bitmap.count == 0


class TestJournalLifecycle:
    def test_open_resumes_or_creates(self, tmp_path):
        path = str(tmp_path / "j.journal")
        journal, replay = ReceiverJournal.open(path, TID, TOTAL_BYTES,
                                               PACKET_SIZE)
        assert replay is None
        journal.record_range(4, 6)
        journal.close()
        journal2, replay2 = ReceiverJournal.open(path, TID, TOTAL_BYTES,
                                                 PACKET_SIZE)
        assert replay2 is not None and replay2.packets_recovered == 6
        assert journal2.bitmap.array[4:10].all()
        journal2.close()

    def test_resume_truncates_torn_tail(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.record_range(0, 3)
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b"\x01\x02\x03")  # torn fragment
        journal2, replay = ReceiverJournal.resume(journal.path, TID,
                                                  TOTAL_BYTES, PACKET_SIZE)
        assert replay.torn_tail_bytes == 3
        journal2.record_range(10, 2)
        journal2.close()
        final = replay_journal(journal.path)
        assert final.records_dropped == 0
        assert final.bitmap.array[0:3].all() and final.bitmap.array[10:12].all()

    def test_a_demotion_inside_the_pending_run_is_exact(self, tmp_path):
        """The bitmap holds a run still pending (not yet appended), and a
        demotion inside it is exact on disk too."""
        journal = make_journal(tmp_path)
        for seq in (3, 4, 5, 6):
            journal.record(seq)
        assert journal.records_written == 0  # still pending
        assert journal.bitmap.array[3:7].all() and journal.bitmap.count == 4
        assert journal.demote([5]) == 1
        journal.record(9)
        journal.close()
        final = replay_journal(journal.path)
        assert np.flatnonzero(final.bitmap.array).tolist() == [3, 4, 6, 9]

    def test_record_validation(self, tmp_path):
        journal = make_journal(tmp_path)
        with pytest.raises(ValueError):
            journal.record_range(0, 0)
        with pytest.raises(ValueError):
            journal.record_range(NPACKETS - 1, 2)
        journal.close()
        with pytest.raises(ValueError):
            journal.record(0)

    def test_replay_result_counters(self, tmp_path):
        journal = make_journal(tmp_path)  # default flush_every coalesces
        for seq in (0, 1, 2, 10, 11, 30):
            journal.record(seq)
        journal.close()
        replay = replay_journal(journal.path)
        assert isinstance(replay, ReplayResult)
        assert replay.packets_recovered == 6
        # Coalescing: three runs, three records.
        assert replay.records_applied == 3
