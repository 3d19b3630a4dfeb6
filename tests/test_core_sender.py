"""Tests for the sans-IO FOBS sender state machine."""

import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import ack_of, stepwise
from repro.core.config import FobsConfig
from repro.core.scheduling import CircularScheduler
from repro.core.sender import FobsSender


def make_ack(sender, seqs, ack_id=0):
    bm = np.zeros(sender.npackets, dtype=np.bool_)
    bm[list(seqs)] = True
    return ack_of(ack_id, len(seqs), bm)


class TestBatches:
    def test_batch_size_honoured(self):
        s = FobsSender(FobsConfig(batch_size=2), 10 * 1024)
        assert [p.seq for p in s.next_batch()] == [0, 1]
        assert [p.seq for p in s.next_batch()] == [2, 3]

    def test_first_pass_counts_first_transmissions(self):
        s = FobsSender(FobsConfig(batch_size=5), 5 * 1024)
        s.next_batch()
        assert s.stats.first_transmissions == 5
        assert s.stats.retransmissions == 0

    def test_wrap_counts_retransmissions(self):
        s = FobsSender(FobsConfig(batch_size=5), 5 * 1024)
        s.next_batch()
        batch = s.next_batch()
        assert [p.seq for p in batch] == [0, 1, 2, 3, 4][:len(batch)]
        assert s.stats.retransmissions == len(batch)
        assert all(p.transmission == 1 for p in batch)

    def test_empty_after_all_acked(self):
        s = FobsSender(FobsConfig(batch_size=2), 4 * 1024)
        s.on_ack(make_ack(s, range(4)), now=1.0)
        assert s.next_batch() == []
        assert s.all_acked

    def test_empty_after_completion(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        s.on_completion(now=1.0)
        assert s.next_batch() == []
        assert s.complete

    def test_last_packet_may_be_short(self):
        s = FobsSender(FobsConfig(packet_size=1000), 2500)
        assert s.npackets == 3
        assert s.payload_bytes(0) == 1000
        assert s.payload_bytes(2) == 500

    def test_batch_counter(self):
        s = FobsSender(FobsConfig(batch_size=2), 10 * 1024)
        s.next_batch()
        s.next_batch()
        assert s.stats.batches == 2


class TestAckProcessing:
    def test_acked_packets_not_resent(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        s.on_ack(make_ack(s, [0, 2]), now=0.1)
        resent = [p.seq for p in s.next_batch()]
        # Greedy: the batch cycles over the unacked set, never touching
        # acknowledged packets.
        assert resent[:2] == [1, 3]
        assert set(resent) == {1, 3}

    def test_stale_ack_still_merges_bitmap(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        s.on_ack(make_ack(s, [0], ack_id=5), now=0.1)
        s.on_ack(make_ack(s, [0, 1], ack_id=3), now=0.2)  # stale id
        assert s.stats.stale_acks == 1
        assert bool(s.acked.array[1])  # info still merged

    def test_newly_confirmed_count_returned(self):
        s = FobsSender(FobsConfig(), 4 * 1024)
        assert s.on_ack(make_ack(s, [0, 1], ack_id=0), now=0.1) == 2
        assert s.on_ack(make_ack(s, [0, 1, 2], ack_id=1), now=0.2) == 1

    def test_progress_feeds_congestion_policy(self):
        cfg = FobsConfig(congestion_mode="backoff", congestion_threshold=0.1)
        s = FobsSender(cfg, 100 * 1024)
        # heavy implied loss: sent many, receiver gained little
        for i in range(20):
            for _ in range(20):
                s.next_batch()
            s.on_ack(make_ack(s, [i], ack_id=i), now=0.01 * (i + 1))
        assert s.congestion.batch_delay() > 0


class TestWaste:
    def test_waste_zero_when_no_retransmissions(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        assert s.wasted_fraction == 0.0

    def test_waste_counts_duplicates(self):
        s = FobsSender(FobsConfig(batch_size=4), 4 * 1024)
        s.next_batch()
        s.next_batch()
        assert s.wasted_fraction == pytest.approx(1.0)

    def test_waste_validates_required(self):
        from repro.core.sender import SenderStats
        with pytest.raises(ValueError):
            SenderStats().wasted_fraction(0)


class TestCompletion:
    def test_completion_records_time_once(self):
        s = FobsSender(FobsConfig(), 1024)
        s.on_completion(now=5.0)
        s.on_completion(now=9.0)
        assert s.stats.completed_at == 5.0


class TestSelectionPath:
    """``next_batch`` on the path production runs (circular scheduler)."""

    @settings(max_examples=100, deadline=None)
    @given(npackets=st.integers(min_value=1, max_value=40),
           tail=st.integers(min_value=1, max_value=100),
           data=st.data())
    def test_property_batches_match_a_stepped_twin(self, npackets, tail, data):
        """Every batch is what single scheduler steps on a twin pick,
        stamped with the right sizes and counted in the stats, and the
        paper's invariant holds after each: no unacked packet is two
        transmissions ahead of another."""
        config = FobsConfig(packet_size=100, batch_size=3)
        s = FobsSender(config, (npackets - 1) * 100 + tail)
        twin = CircularScheduler(npackets)
        sent = first = batches = 0
        for ack_id in range(data.draw(st.integers(1, 25))):
            if data.draw(st.booleans()):
                seqs = data.draw(st.lists(st.integers(0, npackets - 1),
                                          max_size=5))
                s.on_ack(make_ack(s, seqs, ack_id), now=0.1 * ack_id)
            size = data.draw(st.one_of(st.none(),
                                       st.integers(1, 3 * npackets)))
            batch = s.next_batch(size)
            want = list(zip(*stepwise(
                twin, s.acked, config.batch_size if size is None else size)))
            assert [(p.seq, p.transmission) for p in batch] == want
            assert all(p.total == npackets and p.payload_bytes
                       == (tail if p.seq == npackets - 1 else 100)
                       for p in batch)
            sent += len(want)
            first += sum(1 for _, t in want if t == 0)
            batches += bool(want)
            stats = s.stats
            assert (stats.packets_sent, stats.first_transmissions,
                    stats.retransmissions, stats.batches) == (
                        sent, first, sent - first, batches)
            counts = s.scheduler.send_count[~s.acked.array]
            if counts.size:
                assert counts.max() - counts.min() <= 1
        assert s.scheduler.rounds == twin.rounds

    def test_selection_is_written_once(self):
        """The sender asks the scheduler and stamps packets; the sweep
        itself lives in one function of ``core/scheduling.py``."""
        core = os.path.join(os.path.dirname(__file__), "..", "src",
                            "repro", "core")
        sources = {}
        for name in os.listdir(core):
            if name.endswith(".py"):
                with open(os.path.join(core, name)) as fh:
                    sources[name] = fh.read()
        for banned in ("scheduler._", "_circ", "bisect", "next_seq(",
                       "record_sent("):
            assert banned not in sources["sender.py"], banned
        # The sweep scans the flag bytes themselves: no search structure
        # beside the bitmap is left to go stale.
        assert not [name for name, text in sources.items()
                    if "bisect" in text]
        users = [name for name, text in sources.items()
                 if ".take_batch(" in text]
        assert users == ["sender.py"]
        # Nobody reaches into a bitmap's or a scheduler's privates.
        src = os.path.join(core, "..")
        for folder, _dirs, names in os.walk(src):
            for name in names:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as fh:
                        reach = re.findall(
                            r"\b(?:bitmap|acked|scheduler)\._\w+", fh.read())
                    assert not reach, (name, reach)
