"""Tests for the sans-IO FOBS receiver state machine."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FobsConfig
from repro.core.receiver import FobsReceiver


class TestAckTriggering:
    def test_ack_after_frequency_new_packets(self):
        r = FobsReceiver(FobsConfig(ack_frequency=3), 10 * 1024)
        assert r.on_data(0, now=0.1) is None
        assert r.on_data(1, now=0.2) is None
        ack = r.on_data(2, now=0.3)
        assert ack is not None
        assert ack.received_count == 3

    def test_duplicates_do_not_count_toward_frequency(self):
        r = FobsReceiver(FobsConfig(ack_frequency=2), 10 * 1024)
        r.on_data(0, now=0.1)
        assert r.on_data(0, now=0.2) is None  # dup
        assert r.stats.packets_duplicate == 1
        ack = r.on_data(1, now=0.3)
        assert ack is not None

    def test_counter_resets_after_ack(self):
        r = FobsReceiver(FobsConfig(ack_frequency=2), 10 * 1024)
        r.on_data(0, 0.1)
        assert r.on_data(1, 0.2) is not None
        assert r.on_data(2, 0.3) is None  # counter restarted

    def test_ack_ids_increment(self):
        r = FobsReceiver(FobsConfig(ack_frequency=1), 10 * 1024)
        a0 = r.on_data(0, 0.1)
        a1 = r.on_data(1, 0.2)
        assert (a0.ack_id, a1.ack_id) == (0, 1)

    def test_ack_bitmap_snapshot_reflects_state(self):
        r = FobsReceiver(FobsConfig(ack_frequency=2), 4 * 1024)
        r.on_data(3, 0.1)
        ack = r.on_data(1, 0.2)
        assert list(ack.bitmap) == [False, True, False, True]


class TestCompletion:
    def test_final_packet_always_triggers_ack(self):
        r = FobsReceiver(FobsConfig(ack_frequency=1000), 3 * 1024)
        r.on_data(0, 0.1)
        r.on_data(1, 0.2)
        ack = r.on_data(2, 0.3)
        assert ack is not None
        assert r.complete
        assert r.stats.completed_at == 0.3

    def test_completion_signal_requires_completion(self):
        r = FobsReceiver(FobsConfig(), 2 * 1024)
        with pytest.raises(RuntimeError):
            r.completion_signal()
        r.on_data(0, 0.1)
        r.on_data(1, 0.2)
        assert r.completion_signal().total_packets == 2

    def test_completed_at_not_overwritten(self):
        r = FobsReceiver(FobsConfig(ack_frequency=1), 1024)
        r.on_data(0, 0.5)
        r.on_data(0, 0.9)
        assert r.stats.completed_at == 0.5


class TestStats:
    def test_new_and_duplicate_counts(self):
        r = FobsReceiver(FobsConfig(ack_frequency=100), 10 * 1024)
        for seq in (0, 1, 1, 2, 0):
            r.on_data(seq, 0.1)
        assert r.stats.packets_new == 3
        assert r.stats.packets_duplicate == 2

    def test_acks_built_counted(self):
        r = FobsReceiver(FobsConfig(ack_frequency=1), 3 * 1024)
        for seq in range(3):
            r.on_data(seq, 0.1)
        assert r.stats.acks_built == 3


class FailingJournal:
    """Keeps every ``record`` call; the ``fail_at``-th raises."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.records: list = []

    def record(self, seq: int) -> None:
        self.records.append(seq)
        if len(self.records) == self.fail_at:
            raise OSError(28, "No space left on device")


def fold_on_data(rx: FobsReceiver, seqs, now: float, acks: list) -> None:
    """``on_data`` over ``seqs`` one packet at a time, up to and
    including the one that completes the object: the reference
    :meth:`FobsReceiver.on_train` is held to."""
    for seq in seqs:
        was_complete = rx.complete
        ack = rx.on_data(seq, now)
        if ack is not None:
            acks.append(ack)
        if rx.complete and not was_complete:
            break


def receiver_state(rx: FobsReceiver) -> dict:
    return dict(bitmap=rx.bitmap.array.tolist(), count=rx.bitmap.count,
                stats=dataclasses.asdict(rx.stats),
                next_ack_id=rx._next_ack_id,
                new_since_ack=rx._new_since_ack,
                last_data_time=rx.last_data_time,
                last_ack_time=rx._last_ack_time,
                journal=rx.journal.records)


@st.composite
def train_runs(draw):
    npackets = draw(st.integers(1, 24))
    # Mostly in range; -1 and npackets are what on_data rejects.
    seq = st.one_of(st.integers(0, npackets - 1),
                    st.integers(-1, npackets))
    trains = draw(st.lists(st.tuples(
        st.lists(seq, max_size=20),
        # Some gaps cross ack_refresh_interval (5 s), most do not.
        st.sampled_from((0.001, 0.5, 6.0)),
        # The tuner reassigns F between trains.
        st.one_of(st.none(), st.integers(1, 6)),
    ), min_size=1, max_size=8))
    fail_at = draw(st.one_of(st.none(), st.integers(1, 30)))
    return npackets, draw(st.integers(1, 6)), trains, fail_at


@settings(max_examples=300, deadline=None)
@given(run=train_runs())
def test_property_on_train_equals_folding_on_data(run):
    """One ``on_train`` call per train leaves the bitmap, every counter,
    the ACK numbering, the journal's record sequence and the returned
    acknowledgements exactly where per-packet ``on_data`` calls do --
    through duplicates, rejected sequence numbers, refresh-rule gaps,
    a retuned ``ack_frequency`` and a journal that raises mid-train."""
    npackets, frequency, trains, fail_at = run
    config = FobsConfig(ack_frequency=frequency)
    ours, ref = (FobsReceiver(config, npackets * config.packet_size,
                              journal=FailingJournal(fail_at), epoch=2)
                 for _ in range(2))
    now = 0.0
    for seqs, gap, retuned in trains:
        now += gap
        if retuned is not None:
            ours.ack_frequency = ref.ack_frequency = retuned
        ref_acks: list = []
        ref_error = error = acks = None
        try:
            fold_on_data(ref, seqs, now, ref_acks)
        except (IndexError, OSError) as exc:
            ref_error = exc
        try:
            acks = ours.on_train(seqs, now)
        except (IndexError, OSError) as exc:
            error = exc
        assert (type(error), str(error)) == (type(ref_error), str(ref_error))
        assert receiver_state(ours) == receiver_state(ref)
        if error is None:
            assert [(a.ack_id, a.received_count, a.bitmap.tolist(), a.epoch)
                    for a in acks] == [
                (a.ack_id, a.received_count, a.bitmap.tolist(), a.epoch)
                for a in ref_acks]
