"""Tests for link serialization, propagation, queueing and loss."""

import numpy as np
import pytest

from repro.simnet.engine import Simulator
from repro.simnet.link import DelayLink, Link
from repro.simnet.packet import Address, udp_frame
from repro.simnet.queues import DropTailQueue

A, B = Address("a", 1), Address("b", 2)


class Sink:
    """Minimal receiving node."""

    def __init__(self):
        self.frames = []
        self.times = []

    def receive(self, frame):
        self.frames.append(frame)


class TimedSink(Sink):
    def __init__(self, sim):
        super().__init__()
        self.sim = sim

    def receive(self, frame):
        super().receive(frame)
        self.times.append(self.sim.now)


def make_link(sim, bw=1e6, delay=0.01, queue_bytes=10_000, loss=0.0, rng=None):
    link = Link(sim, "l", bandwidth_bps=bw, prop_delay=delay,
                queue=DropTailQueue(queue_bytes), loss_rate=loss, rng=rng)
    sink = TimedSink(sim)
    link.connect(sink)
    return link, sink


def frame(nbytes=1000):
    return udp_frame(A, B, None, nbytes - 28)


class TestSerialization:
    def test_delivery_time_is_tx_plus_propagation(self):
        sim = Simulator()
        link, sink = make_link(sim, bw=1e6, delay=0.01)
        link.send(frame(1000))  # 1000 B = 8000 bits at 1 Mb/s = 8 ms tx
        sim.run()
        assert sink.times == [pytest.approx(0.008 + 0.010)]

    def test_back_to_back_frames_serialize(self):
        sim = Simulator()
        link, sink = make_link(sim, bw=1e6, delay=0.0)
        link.send(frame(1000))
        link.send(frame(1000))
        sim.run()
        assert sink.times == [pytest.approx(0.008), pytest.approx(0.016)]

    def test_tx_time_helper(self):
        sim = Simulator()
        link, _ = make_link(sim, bw=8e6)
        assert link.tx_time(1000) == pytest.approx(0.001)

    def test_busy_time_accumulates(self):
        sim = Simulator()
        link, _ = make_link(sim, bw=1e6, delay=0.0)
        link.send(frame(1000))
        link.send(frame(1000))
        sim.run()
        assert link.stats.busy_time == pytest.approx(0.016)
        assert link.stats.utilization(0.016, 1e6) == pytest.approx(1.0)


class TestQueueing:
    def test_overflow_drops_and_counts(self):
        sim = Simulator()
        link, sink = make_link(sim, bw=1e5, delay=0.0, queue_bytes=2000)
        for _ in range(5):
            link.send(frame(1000))
        sim.run()
        # 1 transmitting + 2 queued; 2 dropped
        assert len(sink.frames) == 3
        assert link.queue.stats.dropped == 2

    def test_send_returns_false_on_drop(self):
        sim = Simulator()
        link, _ = make_link(sim, bw=1e5, delay=0.0, queue_bytes=1000)
        assert link.send(frame(1000))        # starts transmitting
        assert link.send(frame(1000))        # queued
        assert not link.send(frame(1000))    # dropped

    def test_can_send_reflects_queue_room(self):
        sim = Simulator()
        link, _ = make_link(sim, bw=1e5, delay=0.0, queue_bytes=1000)
        assert link.can_send(1000)
        link.send(frame(1000))
        assert link.can_send(1000)   # queue empty, one transmitting
        link.send(frame(1000))
        assert not link.can_send(1000)

    def test_time_until_room_is_zero_when_free(self):
        sim = Simulator()
        link, _ = make_link(sim)
        assert link.time_until_room(1000) == 0.0

    def test_time_until_room_estimates_drain(self):
        sim = Simulator()
        link, _ = make_link(sim, bw=1e6, delay=0.0, queue_bytes=1000)
        link.send(frame(1000))
        link.send(frame(1000))
        wait = link.time_until_room(1000)
        assert wait > 0
        sim.run(until=wait)
        assert link.can_send(1000)

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, "l", 1e6, 0.0, DropTailQueue(1000))
        with pytest.raises(RuntimeError):
            link.send(frame())


class TestLoss:
    def test_loss_rate_drops_fraction(self):
        sim = Simulator()
        link, sink = make_link(sim, bw=1e9, delay=0.0, queue_bytes=1 << 24,
                               loss=0.5, rng=np.random.default_rng(0))
        for _ in range(1000):
            link.send(frame(100))
        sim.run()
        assert 350 < len(sink.frames) < 650
        assert link.stats.frames_lost_random == 1000 - len(sink.frames)

    def test_loss_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", 1e6, 0.0, DropTailQueue(1000), loss_rate=0.1)

    def test_zero_loss_delivers_everything(self):
        sim = Simulator()
        link, sink = make_link(sim, bw=1e9, queue_bytes=1 << 24)
        for _ in range(100):
            link.send(frame(100))
        sim.run()
        assert len(sink.frames) == 100


class TestDelayLink:
    def test_pure_propagation(self):
        sim = Simulator()
        link = DelayLink(sim, "d", prop_delay=0.02)
        sink = TimedSink(sim)
        link.connect(sink)
        link.send(frame(10_000))
        sim.run()
        assert sink.times == [pytest.approx(0.02)]

    def test_no_serialization_between_frames(self):
        sim = Simulator()
        link = DelayLink(sim, "d", prop_delay=0.02)
        sink = TimedSink(sim)
        link.connect(sink)
        link.send(frame(10_000))
        link.send(frame(10_000))
        sim.run()
        assert sink.times == [pytest.approx(0.02), pytest.approx(0.02)]

        # k frames sent from one event: one heap event each, the same
        # arrival instant, send order kept.
        sent = [frame(10_000) for _ in range(3)]
        before = sim.processed

        def burst():
            for f in sent:
                link.send(f)

        sim.schedule(0.0, burst)
        sim.run()
        assert sim.processed - before == 1 + len(sent)
        assert len(set(sink.times[2:])) == 1
        assert ([f.frame_id for f in sink.frames[2:]]
                == [f.frame_id for f in sent])

        # A zero-delay hop whose sink sends again from inside delivery
        # neither loses nor reorders a frame.
        sim = Simulator()
        hop = DelayLink(sim, "z", prop_delay=0.0)
        first, second, echo = frame(), frame(), frame()

        class EchoSink(Sink):
            def receive(self, f):
                super().receive(f)
                if f is first:
                    hop.send(echo)

        sink = EchoSink()
        hop.connect(sink)
        hop.send(first)
        hop.send(second)
        sim.run()
        assert ([f.frame_id for f in sink.frames]
                == [first.frame_id, second.frame_id, echo.frame_id])
        assert sim.processed == 3

    def test_always_has_room(self):
        sim = Simulator()
        link = DelayLink(sim, "d", prop_delay=0.02)
        assert link.can_send(1 << 30)
        assert link.time_until_room(1 << 30) == 0.0

    def test_loss_on_delay_link(self):
        sim = Simulator()
        link = DelayLink(sim, "d", prop_delay=0.0, loss_rate=1.0,
                         rng=np.random.default_rng(0))
        sink = Sink()
        link.connect(sink)
        link.send(frame())
        sim.run()
        assert sink.frames == []
        assert link.stats.frames_lost_random == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayLink(Simulator(), "d", prop_delay=-1.0)

    def test_hop_count_increments(self):
        sim = Simulator()
        link = DelayLink(sim, "d", prop_delay=0.0)
        sink = Sink()
        link.connect(sink)
        f = frame()
        link.send(f)
        sim.run()
        assert sink.frames[0].hops == 1
