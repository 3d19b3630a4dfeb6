"""Cross-protocol integration tests: the paper's qualitative claims.

These run small transfers on the calibrated paper topologies and check
the *relationships* the paper reports — who beats whom, and why — not
the absolute calibrated numbers (those are the benchmarks' job).
"""

import pytest

import repro.simnet as sn
from repro.core import FobsConfig, run_fobs_transfer
from repro.psockets import run_striped_transfer
from repro.tcp import TcpOptions, run_bulk_transfer

NBYTES = 4_000_000

pytestmark = pytest.mark.slow


class TestPaperClaims:
    def test_fobs_matches_tcp_on_clean_short_haul(self):
        """Section 5.1: on the short haul with LWE and no contention,
        TCP's performance was 'approximately the same' as FOBS."""
        # Larger object here: TCP needs to amortize slow start before
        # the comparison is fair (the paper's 40 MB transfers did).
        nbytes = 10_000_000
        fobs = run_fobs_transfer(sn.short_haul(), nbytes)
        opts = TcpOptions(sack=True)
        tcp = run_bulk_transfer(sn.short_haul(), nbytes,
                                sender_options=opts, receiver_options=opts)
        assert fobs.percent_of_bottleneck > 80
        assert tcp.percent_of_bottleneck > 0.75 * fobs.percent_of_bottleneck

    def test_fobs_beats_tcp_on_long_haul(self):
        """The headline: ~1.8x over optimized TCP on the long haul.
        Averaged over seeds because rare-loss Reno is bimodal."""
        opts = TcpOptions(sack=True)
        fobs_vals, tcp_vals = [], []
        for seed in range(3):
            fobs_vals.append(
                run_fobs_transfer(sn.long_haul(seed=seed), NBYTES).percent_of_bottleneck)
            tcp_vals.append(
                run_bulk_transfer(sn.long_haul(seed=seed), NBYTES,
                                  sender_options=opts,
                                  receiver_options=opts).percent_of_bottleneck)
        assert sum(fobs_vals) > 1.2 * sum(tcp_vals)

    def test_lwe_dominates_no_lwe_on_long_haul(self):
        """Table 1's ordering: long haul with LWE >> without."""
        lwe = TcpOptions(window_scaling=True, sack=True)
        no = TcpOptions(window_scaling=False)
        with_lwe = run_bulk_transfer(sn.long_haul(seed=4), NBYTES,
                                     sender_options=lwe, receiver_options=lwe)
        without = run_bulk_transfer(sn.long_haul(seed=4), NBYTES,
                                    sender_options=no, receiver_options=no)
        assert with_lwe.percent_of_bottleneck > 2 * without.percent_of_bottleneck

    def test_fobs_beats_psockets_on_contended_path(self):
        """Table 2's ordering: FOBS > PSockets under contention."""
        fobs = run_fobs_transfer(sn.contended_path(), NBYTES)
        ps = run_striped_transfer(sn.contended_path(seed=1), NBYTES, 20)
        assert fobs.percent_of_bottleneck > ps.percent_of_bottleneck

    def test_fobs_insensitive_to_residual_loss(self):
        """FOBS 'does not assume packet loss is congestion': residual
        loss barely moves its goodput."""
        clean = run_fobs_transfer(sn.long_haul(seed=0, loss_rate=0.0), NBYTES)
        lossy = run_fobs_transfer(sn.long_haul(seed=0), NBYTES)
        assert lossy.percent_of_bottleneck > 0.9 * clean.percent_of_bottleneck

    def test_packet_size_matters_on_gigabit_path(self):
        """Figure 3's claim: 'the size of the data packet makes a
        tremendous difference in performance'."""
        small = run_fobs_transfer(
            sn.gigabit_path(), NBYTES,
            FobsConfig(packet_size=1024, ack_frequency=128))
        big = run_fobs_transfer(
            sn.gigabit_path(), NBYTES,
            FobsConfig(packet_size=16384, ack_frequency=8,
                       recv_buffer=8 * 16784))
        assert big.percent_of_bottleneck > 3 * small.percent_of_bottleneck


class TestDeterminism:
    def test_full_stack_reproducibility(self):
        """Same seed -> bit-identical outcome across protocol stacks."""
        a = run_fobs_transfer(sn.contended_path(seed=9), 1_000_000)
        b = run_fobs_transfer(sn.contended_path(seed=9), 1_000_000)
        assert a.duration == b.duration
        assert a.packets_sent == b.packets_sent
        assert a.wasted_fraction == b.wasted_fraction

    def test_seeds_change_outcomes_under_loss(self):
        a = run_fobs_transfer(sn.contended_path(seed=1), 1_000_000)
        b = run_fobs_transfer(sn.contended_path(seed=2), 1_000_000)
        assert a.duration != b.duration
