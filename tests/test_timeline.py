"""Timeline reconstruction tests, including the record/replay round-trip.

The acceptance bar: figures recomputed from a recorded JSONL log must
match the live :class:`~repro.core.session.TransferStats` within 1 %.
"""

import pytest

from repro.analysis.timeline import (
    PhaseSpan,
    reconstruct,
    render_timelines,
)
from repro.core import run_fobs_transfer
from repro.telemetry import (
    EV_BATCH_SENT,
    EV_BITMAP_DELTA,
    EV_RESUME_EPOCH,
    EV_RETRANSMIT_ROUND,
    EV_STALL,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    Event,
    EventBus,
    JsonlSink,
    RingBufferSink,
)

from _support import quick_config, tiny_path


def _recorded_run(tmp_path, loss_rate=0.05, nbytes=300_000):
    """One DES transfer recorded to JSONL; returns (stats, log path)."""
    path = str(tmp_path / "run.jsonl")
    bus = EventBus(sinks=[JsonlSink(path, producer="test")])
    net = tiny_path(loss_rate=loss_rate, seed=1)
    stats = run_fobs_transfer(net, nbytes, quick_config(), telemetry=bus)
    bus.close()
    return stats, path


class TestRoundTrip:
    def test_stream_figures_match_live_stats_within_one_percent(
            self, tmp_path):
        stats, path = _recorded_run(tmp_path)
        assert stats.completed
        (tl,) = reconstruct(path)
        assert tl.completed
        assert tl.npackets == stats.npackets
        assert tl.packets_sent == stats.packets_sent
        assert tl.throughput_bps == pytest.approx(stats.throughput_bps,
                                                  rel=0.01)
        assert tl.wasted_fraction == pytest.approx(stats.wasted_fraction,
                                                   rel=0.01, abs=1e-9)
        assert tl.duration == pytest.approx(stats.duration, rel=0.01)

    def test_recording_never_perturbs_the_simulated_outcome(self, tmp_path):
        """No bus, a sinkless bus and a JSONL-recording bus: the DES is
        deterministic, so the stats must be identical, not close."""
        recorded, _path = _recorded_run(tmp_path)
        runs = [recorded] + [
            run_fobs_transfer(tiny_path(loss_rate=0.05, seed=1), 300_000,
                              quick_config(), telemetry=bus)
            for bus in (None, EventBus())]
        outcomes = {(s.completed, s.duration, s.throughput_bps, s.packets_sent,
                     s.retransmissions, s.wasted_fraction) for s in runs}
        assert len(outcomes) == 1 and recorded.completed

    def test_summary_cross_checks_stream(self, tmp_path):
        """The transfer_end summary and the stream agree — two
        independent paths to the same figures."""
        stats, path = _recorded_run(tmp_path)
        (tl,) = reconstruct(path)
        assert tl.summary["completed"]
        assert tl.summary["throughput_bps"] == pytest.approx(
            tl.throughput_bps, rel=0.01)
        assert tl.summary["wasted_fraction"] == pytest.approx(
            tl.wasted_fraction, rel=0.01, abs=1e-9)

    def test_losses_attributed_from_summary(self, tmp_path):
        stats, path = _recorded_run(tmp_path, loss_rate=0.05)
        (tl,) = reconstruct(path)
        assert tl.losses is not None
        assert tl.losses.random_losses > 0
        assert tl.losses.dominant_cause() == "random_loss"

    def test_clean_run_has_near_zero_waste(self, tmp_path):
        stats, path = _recorded_run(tmp_path, loss_rate=0.0)
        (tl,) = reconstruct(path)
        assert tl.wasted_fraction == pytest.approx(stats.wasted_fraction,
                                                   abs=1e-9)

    def test_render_mentions_outcome_and_throughput(self, tmp_path):
        _, path = _recorded_run(tmp_path)
        out = render_timelines(reconstruct(path))
        assert "completed" in out
        assert "Mb/s" in out


class TestReconstructFromEvents:
    """Synthetic event streams exercise the corners deterministically."""

    def _start(self, t=0.0, tid=1, epoch=0, **fields):
        defaults = dict(nbytes=10_000, npackets=10, packet_size=1000,
                        backend="test")
        defaults.update(fields)
        return Event(time=t, kind=EV_TRANSFER_START, transfer_id=tid,
                     epoch=epoch, fields=defaults)

    def test_attempts_keyed_by_transfer_and_epoch(self):
        events = [
            self._start(0.0, tid=1, epoch=0),
            self._start(0.0, tid=1, epoch=1),
            self._start(0.0, tid=2, epoch=0),
        ]
        tls = reconstruct(events)
        assert [(t.transfer_id, t.epoch) for t in tls] == [(1, 0), (1, 1),
                                                           (2, 0)]

    def test_stall_phases_and_probes(self):
        tid = 1
        mk = lambda t, **f: Event(time=t, kind=EV_STALL, transfer_id=tid,
                                  fields=f)
        events = [
            self._start(0.0),
            mk(2.0, action="enter"),
            mk(3.0, action="probe"),
            mk(4.0, action="probe"),
            mk(5.0, action="recovered"),
            Event(time=8.0, kind=EV_TRANSFER_END, transfer_id=tid,
                  fields={"completed": True}),
        ]
        (tl,) = reconstruct(events)
        assert tl.stall_probes == 2
        assert [(p.name, p.start, p.end) for p in tl.phases] == [
            ("blast", 0.0, 2.0), ("stalled", 2.0, 5.0), ("blast", 5.0, 8.0)]

    def test_unclosed_stall_extends_to_log_end(self):
        events = [
            self._start(0.0),
            Event(time=1.0, kind=EV_STALL, transfer_id=1,
                  fields={"action": "enter"}),
            Event(time=4.0, kind=EV_STALL, transfer_id=1,
                  fields={"action": "probe"}),
        ]
        (tl,) = reconstruct(events)
        assert tl.phases[-1] == PhaseSpan("stalled", 1.0, 4.0)
        assert not tl.completed

    def test_resume_epoch_salvage(self):
        events = [
            Event(time=0.0, kind=EV_RESUME_EPOCH, transfer_id=1, epoch=1,
                  fields={"salvaged": 60, "npackets": 100}),
            Event(time=1.0, kind=EV_BITMAP_DELTA, transfer_id=1, epoch=1,
                  fields={"received": 100, "new": 40}),
        ]
        (tl,) = reconstruct(events)
        assert tl.epoch == 1
        assert tl.resumed_packets == 60
        assert tl.npackets == 100
        assert "resumed: 60/100" in tl.render()

    def test_retransmit_rounds_take_the_max(self):
        events = [self._start(0.0)] + [
            Event(time=1.0 + i, kind=EV_RETRANSMIT_ROUND, transfer_id=1,
                  fields={"round": i + 1}) for i in range(3)]
        (tl,) = reconstruct(events)
        assert tl.retransmit_rounds == 3

    def test_receiver_only_log_reports_zero_waste(self):
        """No batch_sent events (a receiver-side recording): waste is
        unknowable from the stream and must not go negative."""
        events = [
            self._start(0.0),
            Event(time=1.0, kind=EV_BITMAP_DELTA, transfer_id=1,
                  fields={"received": 10, "new": 10}),
        ]
        (tl,) = reconstruct(events)
        assert tl.packets_sent == 0
        assert tl.wasted_fraction == 0.0

    def test_sender_only_log_falls_back_to_object_size(self):
        """No bitmap_delta events (a sender-side recording): a
        completed transfer still delivered the whole object."""
        events = [
            self._start(0.0),
            Event(time=1.0, kind=EV_BATCH_SENT, transfer_id=1,
                  fields={"size": 10, "sent": 10}),
            Event(time=2.0, kind=EV_TRANSFER_END, transfer_id=1,
                  fields={"completed": True}),
        ]
        (tl,) = reconstruct(events)
        assert tl.delivered_bytes == 10_000
        assert tl.throughput_bps == pytest.approx(10_000 * 8 / 2.0)

    def test_goodput_curve_buckets(self):
        events = [self._start(0.0)] + [
            Event(time=float(i + 1), kind=EV_BITMAP_DELTA, transfer_id=1,
                  fields={"received": (i + 1) * 2, "new": 2})
            for i in range(5)]
        (tl,) = reconstruct(events)
        times, rates = tl.goodput_curve(buckets=5)
        assert len(rates) == 5
        # Constant 2 packets (2000 bytes) per second.
        assert all(r == pytest.approx(2000 * 8.0) for r in rates)

    def test_accepts_ring_buffer_events(self):
        ring = RingBufferSink()
        bus = EventBus(sinks=[ring])
        ch = bus.channel(transfer_id=9)
        ch.emit(EV_TRANSFER_START, nbytes=1000, npackets=1, packet_size=1000,
                backend="test")
        ch.emit(EV_BATCH_SENT, size=1, sent=1)
        (tl,) = reconstruct(ring.events)
        assert tl.transfer_id == 9
        assert tl.packets_sent == 1

    def test_empty_log_renders_placeholder(self):
        assert render_timelines(reconstruct([])) == "(no transfers in log)"
