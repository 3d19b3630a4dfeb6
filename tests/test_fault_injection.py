"""Adversarial fault-injection harness for FOBS.

Every scenario must end in one of two diagnosable outcomes — a
successful transfer or a clean, attributed failure — never a hang.
The schedules come from :mod:`repro.simnet.faults`; the stall/liveness
hardening under test lives in the core sender/receiver/session.
"""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import loss_breakdown
from repro.core.config import FobsConfig
from repro.core.session import FobsTransfer, run_fobs_transfer
from repro.simnet import (
    FaultSchedule,
    GilbertElliott,
    LinkFlap,
    Tracer,
    ack_channel_blackhole,
    blackhole_window,
    burst_loss,
    chain_link_names,
    fault_stats_total,
    install_faults,
    short_haul,
)

from _support import quick_config


def hardened_config(**overrides) -> FobsConfig:
    """Quick-test FOBS config with fast stall/liveness reactions."""
    defaults = dict(
        ack_frequency=16,
        stall_timeout=0.3,
        stall_abort_after=10.0,
        receiver_idle_timeout=20.0,
        ack_refresh_interval=0.3,
    )
    defaults.update(overrides)
    return FobsConfig(**defaults)


# ---------------------------------------------------------------------------
# Schedule values: validation, composition, serialization
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultSchedule(blackholes=((2.0, 1.0),))
        with pytest.raises(ValueError):
            FaultSchedule(match_proto="icmp")
        with pytest.raises(ValueError):
            FaultSchedule(reorder_rate=0.1, reorder_delay=-1.0)

    def test_dict_round_trip(self):
        sched = FaultSchedule(
            blackholes=((0.5, 2.5), (4.0, 4.5)),
            flap=LinkFlap(period=2.0, down_time=0.25, start=1.0),
            burst=GilbertElliott(p_good_bad=0.01, p_bad_good=0.2),
            loss_rate=0.01,
            duplicate_rate=0.02,
            corrupt_rate=0.03,
            reorder_rate=0.04,
            reorder_delay=0.05,
            match_proto="udp",
            match_ports=(7002,),
        )
        assert FaultSchedule.from_dict(sched.to_dict()) == sched
        # Defaults are omitted from the dict form (a scenario is a
        # minimal, human-readable value).
        assert FaultSchedule().to_dict() == {}
        assert FaultSchedule.from_dict({}) == FaultSchedule()

    def test_blackhole_windows(self):
        sched = FaultSchedule(blackholes=((1.0, 2.0),))
        assert not sched.blackholed_at(0.5)
        assert sched.blackholed_at(1.0)
        assert sched.blackholed_at(1.999)
        assert not sched.blackholed_at(2.0)

    def test_link_flap_periodic(self):
        flap = LinkFlap(period=1.0, down_time=0.25)
        assert flap.down_at(0.1)
        assert not flap.down_at(0.5)
        assert flap.down_at(3.2)

    def test_install_rejects_unknown_link(self, short_net):
        with pytest.raises(KeyError):
            install_faults(short_net, FaultSchedule(loss_rate=0.1),
                           links=["nope->nowhere"])

    def test_chain_link_names_directions(self, short_net):
        fwd = chain_link_names(short_net, "forward")
        rev = chain_link_names(short_net, "reverse")
        both = chain_link_names(short_net, "both")
        assert set(both) == set(fwd) | set(rev)
        assert all(name in short_net.links for name in both)


# ---------------------------------------------------------------------------
# FOBS under adversarial schedules
# ---------------------------------------------------------------------------
class TestFobsUnderFaults:
    def test_blackhole_window_recovers(self):
        """The acceptance scenario: a 2 s mid-transfer blackhole.

        The transfer must complete, the stall detector must have fired,
        and recovery must be visible in the counters.
        """
        net = short_haul(seed=7)
        injectors = install_faults(
            net, blackhole_window(0.05, 2.05), direction="both")
        cfg = hardened_config(stall_timeout=0.5, stall_abort_after=30.0)
        stats = FobsTransfer(net, 2_000_000, cfg).run(time_limit=120.0)
        assert stats.ok
        assert stats.stall_events > 0
        assert stats.stall_probes > 0
        assert stats.stall_recoveries > 0
        fs = fault_stats_total(injectors)
        assert fs.dropped_blackhole > 0

    def test_blackhole_replay_identical(self):
        """Same schedule + same seed => byte-identical packet traces."""
        def traced(seed: int) -> list[tuple[float, str, str]]:
            net = short_haul(seed=seed)
            install_faults(
                net,
                FaultSchedule(blackholes=((0.02, 0.3),), loss_rate=0.02,
                              duplicate_rate=0.02, corrupt_rate=0.01),
                direction="both")
            tracer = Tracer(enabled=True)
            transfer = FobsTransfer(net, 300_000,
                                    hardened_config(), tracer=tracer)
            transfer.run(time_limit=120.0)
            return [(r.time, r.kind, r.detail) for r in tracer.records]

        first, second, other = traced(11), traced(11), traced(12)
        assert len(first) > 100
        assert first == second
        assert first != other

    def test_ack_loss_only_completes_with_waste(self):
        """UDP ACK channel dead, TCP completion alive: FOBS finishes
        (the completion signal closes the loop) but wastes packets."""
        net = short_haul(seed=1)
        install_faults(net, ack_channel_blackhole(), direction="reverse")
        stats = run_fobs_transfer(net, 500_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        assert stats.wasted_fraction > 0.2
        assert stats.acks_processed == 0

    def test_duplication_completes(self):
        net = short_haul(seed=3)
        install_faults(net, FaultSchedule(duplicate_rate=0.2),
                       direction="forward")
        stats = run_fobs_transfer(net, 500_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        assert stats.duplicates_received > 0

    def test_corruption_detected_and_survived(self):
        net = short_haul(seed=2)
        injectors = install_faults(net, FaultSchedule(corrupt_rate=0.05),
                                   direction="forward")
        stats = run_fobs_transfer(net, 500_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        assert stats.corrupt_data_dropped > 0
        # Not every corrupted frame survives to the receiver (queues and
        # socket buffers can still drop it), so injected >= rejected.
        assert fault_stats_total(injectors).corrupted >= stats.corrupt_data_dropped

    def test_corruption_without_checksum_is_silent(self):
        """The negotiated fallback accepts damaged frames silently."""
        net = short_haul(seed=2)
        install_faults(net, FaultSchedule(corrupt_rate=0.05),
                       direction="forward")
        stats = run_fobs_transfer(net, 500_000,
                                  quick_config(checksum=False),
                                  time_limit=120.0)
        assert stats.completed
        assert stats.corrupt_data_dropped == 0

    def test_burst_loss_completes(self):
        net = short_haul(seed=5)
        install_faults(net, burst_loss(mean_burst_frames=10.0,
                                       mean_gap_frames=300.0),
                       direction="forward")
        stats = run_fobs_transfer(net, 500_000, hardened_config(),
                                  time_limit=120.0)
        assert stats.ok
        assert stats.retransmissions > 0

    def test_reordering_completes(self):
        net = short_haul(seed=4)
        install_faults(net, FaultSchedule(reorder_rate=0.2,
                                          reorder_delay=0.02),
                       direction="forward")
        stats = run_fobs_transfer(net, 500_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok

    def test_link_flap_completes(self):
        net = short_haul(seed=6)
        install_faults(net,
                       FaultSchedule(flap=LinkFlap(period=0.4,
                                                   down_time=0.05)),
                       direction="forward")
        stats = run_fobs_transfer(net, 500_000, hardened_config(),
                                  time_limit=120.0)
        assert stats.ok


# ---------------------------------------------------------------------------
# Diagnostics integration
# ---------------------------------------------------------------------------
class TestDiagnostics:
    def test_loss_breakdown_attributes_injected_drops(self):
        net = short_haul(seed=9)
        injectors = install_faults(
            net, FaultSchedule(loss_rate=0.05, duplicate_rate=0.02,
                               corrupt_rate=0.02),
            direction="forward")
        stats = run_fobs_transfer(net, 500_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        breakdown = loss_breakdown(net, stats.receiver_socket_drops)
        fs = fault_stats_total(injectors)
        assert breakdown.injected_drops == fs.dropped > 0
        assert breakdown.corrupted == fs.corrupted > 0
        assert breakdown.duplicated == fs.duplicated > 0
        assert "injected" in breakdown.render()

    def test_breakdown_silent_without_faults(self):
        net = short_haul(seed=9)
        stats = run_fobs_transfer(net, 200_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        breakdown = loss_breakdown(net, stats.receiver_socket_drops)
        assert breakdown.injected_drops == 0
        assert "injected" not in breakdown.render()


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------
class TestInjectorMechanics:
    def test_injectors_compose_on_one_link(self):
        net = short_haul(seed=8)
        first = install_faults(net, FaultSchedule(loss_rate=0.05),
                               direction="forward", label="a")
        second = install_faults(net, FaultSchedule(duplicate_rate=0.05),
                                direction="forward", label="b")
        name = chain_link_names(net, "forward")[0]
        assert len(net.links[name].faults) == 2
        stats = run_fobs_transfer(net, 300_000, quick_config(),
                                  time_limit=120.0)
        assert stats.ok
        assert fault_stats_total(first).dropped_random > 0
        assert fault_stats_total(second).duplicated > 0

    def test_noop_schedule_is_transparent(self):
        """Installing an all-defaults schedule must not change results."""
        def run(with_faults: bool):
            net = short_haul(seed=10)
            if with_faults:
                install_faults(net, FaultSchedule(), direction="both")
            tracer = Tracer(enabled=True)
            transfer = FobsTransfer(net, 300_000, quick_config(),
                                    tracer=tracer)
            stats = transfer.run(time_limit=120.0)
            return stats, [(r.time, r.kind, r.detail) for r in tracer.records]

        plain_stats, plain_trace = run(False)
        faulty_stats, faulty_trace = run(True)
        assert plain_stats.ok and faulty_stats.ok
        assert plain_trace == faulty_trace
