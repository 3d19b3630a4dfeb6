"""Tests for packet-selection policies, incl. the circular invariant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import stepwise
from repro.core.bitmap import PacketBitmap
from repro.core.config import SCHEDULERS
from repro.core.scheduling import (
    CircularScheduler,
    RandomScheduler,
    SequentialRestartScheduler,
    make_scheduler,
)


@pytest.mark.parametrize("name", SCHEDULERS)
@settings(max_examples=150, deadline=None)
@given(npackets=st.integers(min_value=1, max_value=48), data=st.data())
def test_property_take_batch_equals_stepwise(name, npackets, data):
    """``take_batch`` -- the path every backend runs -- makes the picks,
    reports the pre-increment counts and leaves the state that ``size``
    single steps on a twin do, under any interleaving of ACK marks,
    verify demotions, single steps and batches of 1..3 x npackets
    (wrap-around, more than is missing, the old 32-packet boundary)."""
    seq = st.integers(0, npackets - 1)
    ops = data.draw(st.lists(st.one_of(
        st.tuples(st.just("mark"), seq),
        st.tuples(st.just("demote"), st.lists(seq, min_size=1, max_size=4)),
        st.tuples(st.just("step"), st.just(1)),
        st.tuples(st.just("take"), st.integers(1, 3 * npackets)),
    ), max_size=30))
    acked = PacketBitmap(npackets)
    sched = make_scheduler(name, npackets, np.random.default_rng(5))
    twin = make_scheduler(name, npackets, np.random.default_rng(5))
    for op, arg in ops + [("take", 1)]:     # ends on "same next pick"
        if op == "mark":
            acked.mark(arg)
        elif op == "demote":
            acked.demote(arg)
        else:
            got = (sched.take_batch(acked, arg) if op == "take"
                   else stepwise(sched, acked, arg))
            assert got == stepwise(twin, acked, arg)
            assert len(got[0]) == (arg if acked.missing else 0)
            assert getattr(sched, "rounds", 0) == getattr(twin, "rounds", 0)
            assert np.array_equal(sched.send_count, twin.send_count)


class TestCircular:
    def test_first_pass_is_sequential(self):
        acked = PacketBitmap(5)
        sched = CircularScheduler(5)
        order = []
        for _ in range(5):
            seq = sched.next_seq(acked)
            sched.record_sent(seq)
            order.append(seq)
        assert order == [0, 1, 2, 3, 4]

    def test_skips_acked_packets(self):
        acked = PacketBitmap(5)
        acked.mark(1)
        acked.mark(3)
        sched = CircularScheduler(5)
        order = []
        for _ in range(3):
            seq = sched.next_seq(acked)
            sched.record_sent(seq)
            order.append(seq)
        assert order == [0, 2, 4]

    def test_wraps_around(self):
        acked = PacketBitmap(3)
        sched = CircularScheduler(3)
        order = []
        for _ in range(6):
            seq = sched.next_seq(acked)
            sched.record_sent(seq)
            order.append(seq)
        assert order == [0, 1, 2, 0, 1, 2]
        assert sched.rounds >= 1

    def test_returns_none_when_complete(self):
        acked = PacketBitmap(2)
        acked.mark(0)
        acked.mark(1)
        assert CircularScheduler(2).next_seq(acked) is None

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            CircularScheduler(0)

    @settings(max_examples=30)
    @given(
        npackets=st.integers(min_value=2, max_value=40),
        data=st.data(),
    )
    def test_property_fairness_invariant(self, npackets, data):
        """max(send_count) - min(send_count) <= 1 over unacked packets:
        no packet is retransmitted the (n+1)st time while another
        unacked packet has been sent fewer than n times."""
        acked = PacketBitmap(npackets)
        sched = CircularScheduler(npackets)
        steps = data.draw(st.integers(min_value=1, max_value=200))
        for _ in range(steps):
            # occasionally ack a random packet (simulates ACK arrival)
            if data.draw(st.booleans()) and not acked.is_complete:
                candidates = acked.missing_indices()
                idx = data.draw(st.integers(0, len(candidates) - 1))
                acked.mark(int(candidates[idx]))
            seq = sched.next_seq(acked)
            if seq is None:
                break
            sched.record_sent(seq)
            unacked = ~np.asarray(acked.array)
            counts = sched.send_count[unacked]
            if counts.size:
                assert counts.max() - counts.min() <= 1


    @pytest.mark.parametrize("missing", [0, 40_959])
    def test_one_straggler_at_either_end_goes_round(self, missing):
        """The worst case for a scan: one unacked packet in a
        paper-sized bitmap, a batch of 64.  Every pick is that packet,
        every pick after the first closes a round, and the reference
        agrees."""
        npackets = 40_960
        acked = PacketBitmap(npackets)
        everything = np.ones(npackets, dtype=np.bool_)
        everything[missing] = False
        acked.merge(everything)
        sched, twin = CircularScheduler(npackets), CircularScheduler(npackets)
        for _ in range(2):
            got = sched.take_batch(acked, 64)
            assert got == stepwise(twin, acked, 64)
            assert got[0] == [missing] * 64
        assert sched.rounds == twin.rounds >= 127
        assert np.array_equal(sched.send_count, twin.send_count)

    def test_a_demotion_between_batches_is_seen_by_the_next_sweep(self):
        """Nothing is cached between batches: a verify pass clearing
        packets behind the pointer steers the very next pick."""
        acked = PacketBitmap(8)
        for seq in range(8):
            if seq != 6:
                acked.mark(seq)
        sched = CircularScheduler(8)
        assert sched.take_batch(acked, 1) == ([6], [0])
        acked.clear(7)
        assert sched.take_batch(acked, 2) == ([7, 6], [0, 1])
        acked.demote([1, 2])
        assert sched.take_batch(acked, 4) == ([7, 1, 2, 6], [1, 0, 0, 2])
        acked.mark(6)
        assert sched.take_batch(acked, 3) == ([7, 1, 2], [2, 1, 1])


class TestSequentialRestart:
    def test_restarts_from_lowest_unacked(self):
        acked = PacketBitmap(100)
        sched = SequentialRestartScheduler(100, window=4)
        order = []
        for _ in range(10):
            seq = sched.next_seq(acked)
            sched.record_sent(seq)
            order.append(seq)
        # window of 4, nothing acked: cycles 0-3 repeatedly
        assert order == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_advances_past_acked(self):
        acked = PacketBitmap(10)
        sched = SequentialRestartScheduler(10, window=4)
        for _ in range(4):
            sched.record_sent(sched.next_seq(acked))
        for i in range(4):
            acked.mark(i)
        seq = sched.next_seq(acked)
        assert seq == 4

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SequentialRestartScheduler(10, window=0)


class TestRandom:
    def test_only_returns_unacked(self):
        acked = PacketBitmap(10)
        for i in range(9):
            acked.mark(i)
        sched = RandomScheduler(10, np.random.default_rng(0))
        for _ in range(5):
            assert sched.next_seq(acked) == 9

    def test_none_when_complete(self):
        acked = PacketBitmap(2)
        acked.mark(0)
        acked.mark(1)
        assert RandomScheduler(2).next_seq(acked) is None

    def test_deterministic_given_rng(self):
        acked = PacketBitmap(100)
        a = RandomScheduler(100, np.random.default_rng(7))
        b = RandomScheduler(100, np.random.default_rng(7))
        assert [a.next_seq(acked) for _ in range(10)] == [
            b.next_seq(acked) for _ in range(10)
        ]


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("circular", CircularScheduler),
        ("sequential_restart", SequentialRestartScheduler),
        ("random", RandomScheduler),
    ])
    def test_known_names(self, name, cls):
        assert isinstance(make_scheduler(name, 10), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_scheduler("fifo", 10)
