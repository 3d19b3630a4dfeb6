"""Autotuning wired through the backends: DES fairness, loopback replay.

The DES test is the satellite regression from the issue: two tuned
senders sharing the contended bottleneck must converge to a fair split
(Jain >= 0.9) — and do so with far less waste than the greedy blast.
(The pacing-clamp regression lives in ``tests/test_runtime_driver.py``,
against the shared driver's ``step``.)
"""

from __future__ import annotations

import pytest

from repro.core.config import FobsConfig
from repro.server.sim import SimTransferSpec, run_sim_server
from repro.simnet.topology import contended_path
from repro.tuning import TuningConfig

pytestmark = pytest.mark.tuning


def test_two_tuned_senders_share_fairly():
    net = contended_path(seed=3)
    specs = [SimTransferSpec(nbytes=8_000_000, arrival=0.05 * i,
                             client=f"c{i}") for i in range(2)]
    result = run_sim_server(net, specs, config=FobsConfig(ack_frequency=32),
                            max_active=4, time_limit=120,
                            tuning=TuningConfig())
    stats = [s for s in result.stats if s is not None]
    assert len(stats) == 2 and all(s.ok for s in stats)
    assert result.jain_fairness() >= 0.9
    sent = sum(s.packets_sent for s in stats)
    required = sum(s.npackets for s in stats)
    # Greedy on this path wastes ~1.4x the object; tuned senders stay
    # well under half that.
    assert (sent - required) / required < 0.5


def test_tuned_des_run_is_deterministic():
    def run():
        net = contended_path(seed=7)
        specs = [SimTransferSpec(nbytes=4_000_000, arrival=0.05 * i,
                                 client=f"c{i}") for i in range(2)]
        result = run_sim_server(net, specs,
                                config=FobsConfig(ack_frequency=32),
                                max_active=4, time_limit=120,
                                tuning=TuningConfig())
        return [(s.packets_sent, s.retransmissions, s.duration)
                for s in result.stats if s is not None]

    assert run() == run()


def test_des_tuner_events_carry_simulated_time():
    """The DES builds its tuner with ``make_tuner(clock=sim.now)``: the
    decision stream is stamped on the simulated clock, like every other
    event of the run, never on the host's."""
    from repro.core import run_fobs_transfer
    from repro.telemetry import EV_TUNE_EPOCH, EventBus, RingBufferSink

    def run():
        net = contended_path(seed=7)
        bus = EventBus(sinks=[ring := RingBufferSink(4096)])
        stats = run_fobs_transfer(net, 4_000_000,
                                  FobsConfig(ack_frequency=32),
                                  telemetry=bus, tuning=TuningConfig())
        assert stats.ok
        return net.sim.now, [e.time for e in ring.events
                             if e.kind == EV_TUNE_EPOCH and e.src == "tuner"]

    end, times = run()
    assert times and times == sorted(times)
    assert 0.0 < times[0] and times[-1] <= end
    assert run() == (end, times)      # a host clock never repeats


@pytest.mark.loopback
def test_loopback_completion_is_prompt():
    """Completion-signal regression: the receiver must send DONE when
    the object lands, not leave the sender to synthesize completion
    from a 5 s ACK stall."""
    from repro.runtime.transfer import run_loopback_transfer

    result = run_loopback_transfer(nbytes=200_000,
                                   config=FobsConfig(ack_frequency=16))
    assert result.completed and result.checksum_ok
    assert result.duration < 2.0


@pytest.mark.loopback
def test_tuned_loopback_transfer_replays():
    """End-to-end on real sockets: a tuned transfer completes and its
    recorded decision stream replays exactly."""
    import os
    import tempfile

    from repro.runtime.transfer import run_loopback_transfer
    from repro.telemetry import EventBus, JsonlSink, read_events
    from repro.tuning import replay_decisions

    with tempfile.TemporaryDirectory() as tmp:
        log = os.path.join(tmp, "tel.jsonl")
        bus = EventBus(sinks=[JsonlSink(log, producer="test")])
        try:
            # Paced, with the tuner's ceiling at the pacing rate: the
            # object cannot leave in under 600 kB / 12 Mb/s = 0.4 s, and
            # an epoch closes at most one 20 ms pacing sleep late, so
            # the protocol sets the epoch count (>= 5), not the host.
            result = run_loopback_transfer(
                nbytes=600_000,
                config=FobsConfig(ack_frequency=16, send_rate_bps=12e6),
                tuning=TuningConfig(epoch_interval=0.05, max_rate_bps=12e6),
                telemetry=bus)
        finally:
            bus.close()
        assert result.completed and result.checksum_ok
        events = [dict(kind=e.kind, **e.fields) for e in read_events(log)
                  if e.src == "tuner"]
        decisions = replay_decisions(events)
        assert len(decisions) >= 5
