"""End-to-end tests for FOBS transfers over the simulated network."""

import ast
import dataclasses
import hashlib
import json
import os

import pytest

import repro
from repro.core import FobsConfig, FobsTransfer, run_fobs_transfer

from _support import quick_config, tiny_path


class TestBasicTransfer:
    def test_small_transfer_completes(self):
        net = tiny_path()
        stats = run_fobs_transfer(net, 200_000, quick_config())
        assert stats.completed
        assert stats.npackets == 196
        assert stats.receiver_completed_at is not None
        assert stats.sender_completed_at is not None

    def test_sender_learns_completion_after_receiver(self):
        net = tiny_path()
        stats = run_fobs_transfer(net, 200_000, quick_config())
        assert stats.sender_completed_at > stats.receiver_completed_at

    def test_throughput_close_to_link_rate(self):
        net = tiny_path()  # 100 Mb/s, RTT 4 ms, no loss
        stats = run_fobs_transfer(net, 1_000_000, quick_config())
        assert stats.percent_of_bottleneck > 80

    def test_single_packet_object(self):
        net = tiny_path()
        stats = run_fobs_transfer(net, 100, quick_config(ack_frequency=1))
        assert stats.completed
        assert stats.npackets == 1

    def test_object_not_multiple_of_packet_size(self):
        net = tiny_path()
        stats = run_fobs_transfer(net, 100_001, quick_config())
        assert stats.completed
        assert stats.npackets == 98

    def test_invalid_nbytes_rejected(self):
        with pytest.raises(ValueError):
            FobsTransfer(tiny_path(), 0)

    def test_double_start_rejected(self):
        t = FobsTransfer(tiny_path(), 10_000)
        t.start()
        with pytest.raises(RuntimeError):
            t.start()

    def test_time_limit_reports_incomplete(self):
        net = tiny_path(bandwidth_bps=1e5)  # 100 kb/s: 1 MB needs ~80 s
        stats = run_fobs_transfer(net, 1_000_000, quick_config(), time_limit=1.0)
        assert not stats.completed
        assert stats.percent_of_bottleneck < 100
        # A deadline expiry is explicitly marked, not silently dropped.
        assert stats.timed_out
        assert not stats.failed
        assert not stats.ok


class TestLossRecovery:
    def test_completes_under_heavy_loss(self):
        net = tiny_path(loss_rate=0.1, seed=1)
        stats = run_fobs_transfer(net, 200_000, quick_config())
        assert stats.completed
        assert stats.retransmissions > 0

    def test_waste_tracks_loss_rate(self):
        clean = run_fobs_transfer(tiny_path(), 500_000, quick_config())
        lossy = run_fobs_transfer(tiny_path(loss_rate=0.05, seed=2), 500_000,
                                  quick_config())
        assert lossy.wasted_fraction > clean.wasted_fraction

    def test_all_sent_implies_delivered_plus_lost_plus_dup(self):
        """Conservation: every receiver-new packet is unique."""
        net = tiny_path(loss_rate=0.05, seed=3)
        stats = run_fobs_transfer(net, 300_000, quick_config())
        assert stats.receiver_stats.packets_new == stats.npackets
        assert stats.packets_sent >= stats.npackets


class TestAckFrequencyEffects:
    def test_small_frequency_costs_performance(self):
        """F=1 overruns the receiver CPU on the paper's PC profile."""
        import repro.simnet as sn
        slow = run_fobs_transfer(sn.short_haul(), 2_000_000,
                                 FobsConfig(ack_frequency=1))
        fast = run_fobs_transfer(sn.short_haul(), 2_000_000,
                                 FobsConfig(ack_frequency=64))
        assert fast.percent_of_bottleneck > 1.5 * slow.percent_of_bottleneck

    def test_small_frequency_causes_receiver_drops(self):
        import repro.simnet as sn
        stats = run_fobs_transfer(sn.short_haul(), 2_000_000,
                                  FobsConfig(ack_frequency=1))
        assert stats.receiver_socket_drops > 0

    def test_ack_count_scales_inversely_with_frequency(self):
        few = run_fobs_transfer(tiny_path(), 500_000, quick_config(ack_frequency=64))
        many = run_fobs_transfer(tiny_path(), 500_000, quick_config(ack_frequency=8))
        assert many.acks_sent > 4 * few.acks_sent


class TestWasteAccounting:
    def test_waste_definition_identity(self):
        """wasted_fraction == (sent - required) / required, exactly."""
        net = tiny_path(loss_rate=0.02, seed=4)
        stats = run_fobs_transfer(net, 300_000, quick_config())
        expected = (stats.packets_sent - stats.npackets) / stats.npackets
        assert stats.wasted_fraction == pytest.approx(expected)

    def test_waste_is_tail_dominated_and_amortizes(self):
        """On a clean path waste comes from the final round-trip of
        greedy sending; it shrinks as the object grows."""
        small = run_fobs_transfer(tiny_path(), 250_000, quick_config())
        large = run_fobs_transfer(tiny_path(), 4_000_000, quick_config())
        assert large.wasted_fraction < small.wasted_fraction
        assert large.wasted_fraction < 0.05


class TestCongestionModes:
    def test_backoff_mode_completes(self):
        net = tiny_path(loss_rate=0.2, seed=5)
        stats = run_fobs_transfer(
            net, 200_000, quick_config(congestion_mode="backoff"))
        assert stats.completed

    def test_backoff_reduces_waste_under_persistent_loss(self):
        greedy = run_fobs_transfer(
            tiny_path(loss_rate=0.3, seed=6), 200_000,
            quick_config(congestion_mode="greedy"))
        backoff = run_fobs_transfer(
            tiny_path(loss_rate=0.3, seed=6), 200_000,
            quick_config(congestion_mode="backoff"))
        assert backoff.completed and greedy.completed
        # Backoff sends no *more* than greedy under identical loss.
        assert backoff.packets_sent <= greedy.packets_sent * 1.05

    def test_tcp_switch_triggers_under_heavy_loss(self):
        net = tiny_path(loss_rate=0.4, seed=7)
        stats = run_fobs_transfer(
            net, 300_000,
            quick_config(congestion_mode="tcp_switch", congestion_threshold=0.2),
            time_limit=300.0,
        )
        assert stats.switched_to_tcp
        assert stats.completed

    def test_tcp_switch_not_triggered_on_clean_path(self):
        net = tiny_path()
        stats = run_fobs_transfer(
            net, 300_000, quick_config(congestion_mode="tcp_switch"))
        assert not stats.switched_to_tcp
        assert stats.completed


class TestSchedulers:
    @pytest.mark.parametrize("policy", ["circular", "sequential_restart", "random"])
    def test_all_schedulers_complete(self, policy):
        net = tiny_path(loss_rate=0.02, seed=8)
        stats = run_fobs_transfer(net, 100_000, quick_config(scheduler=policy),
                                  time_limit=300.0)
        assert stats.completed

    def test_circular_wastes_least(self):
        results = {}
        for policy in ("circular", "sequential_restart"):
            net = tiny_path(loss_rate=0.02, seed=8)
            results[policy] = run_fobs_transfer(
                net, 100_000, quick_config(scheduler=policy), time_limit=300.0)
        assert (results["circular"].wasted_fraction
                < results["sequential_restart"].wasted_fraction)


class TestBatchPolicies:
    def test_adaptive_policy_completes(self):
        net = tiny_path()
        stats = run_fobs_transfer(net, 500_000, quick_config(batch_policy="adaptive"))
        assert stats.completed

    @pytest.mark.parametrize("batch", [1, 2, 8])
    def test_batch_sizes_complete(self, batch):
        net = tiny_path()
        stats = run_fobs_transfer(net, 200_000, quick_config(batch_size=batch))
        assert stats.completed


#: SHA-256 of each path's whole ``TransferStats`` at 10 MB, seed 0,
#: written by the commit *before* the bitmap became flag bytes, the
#: sweep a ``memchr`` and ``next_batch`` a stamping of ``select_batch``:
#: the DES is bit-identical across that change, and across any later
#: one that claims to be.
DES_CONFIGS = {
    "default": {},
    "B16_F16": dict(batch_size=16, ack_frequency=16),
    "B48_F256": dict(batch_size=48, ack_frequency=256),
}
DES_DIGESTS = {
    ("short_haul", "default"): "825111d0d92af919339634f40151d8133038864e54476be5b63da80e95b1cfa8",
    ("short_haul", "B16_F16"): "147fe59466fd7fa013300062991ed086b084c8f0b1bb40e8304a14c57be9241b",
    ("short_haul", "B48_F256"): "ded68cc5eedf3729c542c69004bbe57e1a714ff3ccebf65ae47654fb75464b93",
    ("long_haul", "default"): "e3b37eddb43851d64bb1501b2e24729aa6eb97dd8c908c87d45f3056e459a375",
    ("long_haul", "B16_F16"): "b621afbe2497df3525585749f6c268334de06345182a67427b17dc06909550f8",
    ("long_haul", "B48_F256"): "8939a25a31ea36f7ea67d1f33bcb4e3269cf362a5ecf084be242bd7331e60006",
    ("contended_path", "default"): "d5b916833640f19ce64a7e7afff740b05b98880f985669ada2a1d65f9bfa4d46",
    ("contended_path", "B16_F16"): "5ca82377b6d8a4474646b9511e34548001aea6436315426cb75044ce2262fb1c",
    ("contended_path", "B48_F256"): "a7f456fdbe0150f97f1147e1cb3e5728449fa5f4e17e05c8bd948404045a3984",
    ("gigabit_path", "default"): "99c07b21d72fca95ee5329a94e0c36f74a693d1d18564f836a48c4826d2b63e2",
    ("gigabit_path", "B16_F16"): "0b2b7f890c47a5fc50d4e3cf1525f744d777829188ad1fa373bd9367c5ad1353",
    ("gigabit_path", "B48_F256"): "79b85203cf664c207962fc53a11e05474beb4ead8ca93f1cb6b754758acc2ae9",
}


@pytest.mark.parametrize("path,config", sorted(DES_DIGESTS))
def test_des_outcomes_are_pinned(path, config):
    net = getattr(repro, path)(seed=0)
    stats = run_fobs_transfer(net, 10_000_000,
                              FobsConfig(**DES_CONFIGS[config]))
    blob = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    assert (hashlib.sha256(blob.encode()).hexdigest()
            == DES_DIGESTS[path, config])


#: Heap events and packets sent per 10 MB, seed-0 transfer.  The DES
#: charges end-host CPU per packet, so one event per datagram per hop is
#: the model; a fast-path trick has to move one of these deterministic
#: counts before anyone times it (DESIGN.md "DES fast path").  A protocol
#: change moves ``packets_sent``, an engine or link change ``events``.
DES_EVENT_BUDGET = {
    ("short_haul", 1024, 64): (90_589, 10_136),
    ("long_haul", 1024, 64): (93_105, 10_594),
    ("gigabit_path", 1024, 64): (102_140, 10_162),
    ("contended_path", 1024, 64): (108_479, 10_452),
    ("gigabit_path", 32768, 16): (3_713, 364),
}


@pytest.mark.parametrize("path,packet_size,ack_frequency",
                         sorted(DES_EVENT_BUDGET))
def test_des_event_budget_is_pinned(path, packet_size, ack_frequency):
    net = getattr(repro, path)(seed=0)
    config = FobsConfig(packet_size=packet_size, ack_frequency=ack_frequency)
    stats = FobsTransfer(net, 10_000_000, config).run()
    events, packets = DES_EVENT_BUDGET[path, packet_size, ack_frequency]
    assert stats.packets_sent == packets
    assert net.sim.processed == events


#: The ``simnet`` (and ``FobsSender``) privates the per-datagram inlines
#: of ``core/session.py`` read or write.  Replacing those inlines by the
#: calls they copy costs a measured ~8 % of short_haul CPU; nothing else
#: may reach in, so an inline that comes back has to bring its number.
SESSION_PRIVATE_REACH = {
    "_busy", "_current_tx_end", "_cb_tx_done",      # Link
    "_bytes", "_frames",                            # DropTailQueue
    "_buffer", "_buffered_bytes",                   # UdpSocket
    "_heap", "_seq",                                # Simulator
    "_routes", "_default_route",                    # Host
    "_progress_time", "_stalled",                   # FobsSender
    "_NO_ARG", "_frame_ids",                        # imports
}
DELETED_FAST_PATHS = ("_watch_log", "_watchers", "self._burst",
                      "_deliver_burst", "_fuse_", "_fused_wake",
                      "_tx_done_lossless")


def test_session_reaches_into_simnet_only_where_measured():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    with open(os.path.join(src, "repro", "core", "session.py")) as fh:
        tree = ast.parse(fh.read())
    reached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if not (isinstance(owner, ast.Name) and owner.id == "self"):
                reached.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reached.update(alias.name for alias in node.names)
    private = {name for name in reached
               if name.startswith("_") and not name.startswith("__")}
    assert private <= SESSION_PRIVATE_REACH, private - SESSION_PRIVATE_REACH
    # ... and what ISSUE 24 measured at zero stays deleted everywhere.
    for folder, _, names in os.walk(src):
        for name in names:
            if name.endswith((".py", ".c")):
                with open(os.path.join(folder, name)) as fh:
                    text = fh.read()
                found = [gone for gone in DELETED_FAST_PATHS if gone in text]
                assert not found, (name, found)
