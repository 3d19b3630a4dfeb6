"""Crash-resumable transfers: supervisor, kill injection, epochs.

Covers the PR's acceptance criteria: a transfer killed at a seeded
mid-flight point completes after resume with a byte-identical object,
retransmitting strictly fewer packets than a full restart (asserted
quantitatively on the deterministic DES backend), and a stale-epoch
datagram from a previous attempt never lands in the resumed object.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.diagnostics import recovery_report
from repro.core.config import FobsConfig
from repro.core.journal import ReceiverJournal
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.core.session import FobsTransfer
from repro.runtime import wire
from repro.runtime.supervisor import (
    RetryPolicy,
    TransferSupervisor,
    run_resumable_fobs_transfer,
    run_resumable_loopback,
)
from repro.runtime.transfer import run_loopback_transfer
from repro.simnet.faults import KillSwitch

from _support import tiny_path

NBYTES = 400_000


def des_config(**overrides) -> FobsConfig:
    defaults = dict(ack_frequency=16, stall_timeout=0.3,
                    stall_abort_after=3.0, receiver_idle_timeout=6.0)
    defaults.update(overrides)
    return FobsConfig(**defaults)


def loop_config(**overrides) -> FobsConfig:
    defaults = dict(packet_size=1024, ack_frequency=32, batch_size=64,
                    stall_timeout=0.1, stall_abort_after=0.4,
                    receiver_idle_timeout=2.0, checksum=True)
    defaults.update(overrides)
    return FobsConfig(**defaults)


# ---------------------------------------------------------------------------
# RetryPolicy / TransferSupervisor units
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=0)

    def test_delay_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.25, max_delay=0.5, seed=7)
        a = [policy.delay(i, np.random.default_rng(7)) for i in range(6)]
        b = [policy.delay(i, np.random.default_rng(7)) for i in range(6)]
        assert a == b
        for i, d in enumerate(a):
            assert d <= 0.5
            assert d >= min(0.1 * 2.0 ** i * 0.75, 0.5) - 1e-12

    def test_no_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             jitter=0.0, max_delay=100.0)
        rng = np.random.default_rng(0)
        assert [policy.delay(i, rng) for i in range(3)] == [0.1, 0.2, 0.4]


class _FakeOutcome:
    def __init__(self, completed, packets_sent=10, resumed=0, reason=None):
        self.completed = completed
        self.packets_sent = packets_sent
        self.resumed_packets = resumed
        self.failure_reason = reason
        self.retransmissions = 0


class TestSupervisor:
    def test_retries_until_success(self):
        calls = []

        def attempt(attempt, epoch):
            calls.append((attempt, epoch))
            if attempt < 2:
                return _FakeOutcome(False, reason=f"boom {attempt}")
            return _FakeOutcome(True, resumed=30)

        sup = TransferSupervisor(RetryPolicy(max_attempts=5, backoff_base=0),
                                 sleep=None)
        result = sup.run(attempt, npackets=100)
        assert calls == [(0, 0), (1, 1), (2, 2)]
        assert result.completed and result.attempts == 3
        assert result.retries == 2
        assert result.packets_salvaged == 30
        assert result.total_packets_sent == 30
        assert result.failure_reason is None
        assert [r.epoch for r in result.attempt_records] == [0, 1, 2]

    def test_exhausted_budget_reports_last_failure(self):
        sup = TransferSupervisor(RetryPolicy(max_attempts=3, backoff_base=0),
                                 sleep=None)
        result = sup.run(lambda a, e: _FakeOutcome(False, reason=f"dead {a}"),
                         npackets=100)
        assert not result.completed
        assert result.attempts == 3
        assert result.failure_reason == "dead 2"
        assert "FAILED" in str(result)

    def test_backoff_sleeps_are_policy_delays(self):
        slept = []
        sup = TransferSupervisor(
            RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.0,
                        backoff_factor=2.0),
            sleep=slept.append)
        sup.run(lambda a, e: _FakeOutcome(False, reason="x"))
        assert slept == [0.1, 0.2]

    def test_recovery_report_accounting(self):
        sup = TransferSupervisor(RetryPolicy(max_attempts=2, backoff_base=0),
                                 sleep=None)
        result = sup.run(
            lambda a, e: _FakeOutcome(a == 1, packets_sent=60, resumed=40),
            npackets=100)
        report = recovery_report(result, packet_size=1000)
        assert report.packets_salvaged == 40
        assert report.bytes_salvaged == 40_000
        assert report.total_packets_sent == 120
        assert report.resume_overhead == pytest.approx(0.2)
        assert "salvaged 40/100" in report.render()


# ---------------------------------------------------------------------------
# KillSwitch
# ---------------------------------------------------------------------------
class TestKillSwitch:
    def test_validation(self):
        with pytest.raises(ValueError):
            KillSwitch(target="router", after_packets=5)
        with pytest.raises(ValueError):
            KillSwitch(target="sender", after_packets=0)

    def test_fires_once(self):
        kill = KillSwitch(target="receiver", after_packets=3)
        assert not kill.should_fire(2)
        assert kill.should_fire(3)
        kill.fire(1.5)
        assert kill.fired and kill.fired_at == 1.5
        assert not kill.should_fire(10)

    def test_seeded_is_deterministic_and_mid_flight(self):
        kills = [KillSwitch.seeded("sender", 1000, seed=42) for _ in range(3)]
        assert len({k.after_packets for k in kills}) == 1
        assert 250 <= kills[0].after_packets <= 750


# ---------------------------------------------------------------------------
# DES backend: deterministic kill → resume
# ---------------------------------------------------------------------------
class TestDesResume:
    def _run(self, tmp_path, target: str, name: str, journal: bool = True):
        config = des_config()
        kill = {0: KillSwitch.seeded(target, config.npackets(NBYTES), seed=5)}
        if journal:
            return run_resumable_fobs_transfer(
                lambda attempt: tiny_path(seed=200 + attempt),
                nbytes=NBYTES, config=config,
                journal_path=str(tmp_path / name), transfer_id=11,
                kill_plan=kill, policy=RetryPolicy(max_attempts=3),
                sleep=None, time_limit=120.0)
        # Full-restart baseline: same crash, no journal, no resume.
        def attempt_fn(attempt, epoch):
            return FobsTransfer(
                tiny_path(seed=200 + attempt), NBYTES, config, epoch=epoch,
                kill_switch=kill.get(attempt),
            ).run(time_limit=120.0)

        return TransferSupervisor(RetryPolicy(max_attempts=3),
                                  sleep=None).run(
            attempt_fn, npackets=config.npackets(NBYTES))

    @pytest.mark.parametrize("target", ["receiver", "sender"])
    def test_killed_transfer_resumes(self, tmp_path, target):
        result = self._run(tmp_path, target, f"{target}.journal")
        assert result.completed
        assert result.attempts == 2
        assert result.attempt_records[0].crashed == target
        assert result.packets_salvaged > 0
        assert result.final.receiver_stats.packets_new + \
            result.packets_salvaged == result.npackets
        # Journal cleaned up on success.
        assert not os.path.exists(str(tmp_path / f"{target}.journal"))

    @pytest.mark.parametrize("target", ["receiver", "sender"])
    def test_resume_deterministic_under_fixed_seed(self, tmp_path, target):
        a = self._run(tmp_path, target, "a.journal")
        b = self._run(tmp_path, target, "b.journal")
        keys = [(r.attempt, r.completed, r.crashed, r.packets_sent,
                 r.resumed_packets, r.retransmissions)
                for r in a.attempt_records]
        assert keys == [(r.attempt, r.completed, r.crashed, r.packets_sent,
                         r.resumed_packets, r.retransmissions)
                        for r in b.attempt_records]
        assert a.packets_salvaged == b.packets_salvaged

    def test_resume_retransmits_strictly_less_than_full_restart(
        self, tmp_path
    ):
        resumed = self._run(tmp_path, "receiver", "r.journal")
        restart = self._run(tmp_path, "receiver", "unused", journal=False)
        assert resumed.completed and restart.completed
        # Identical crash on attempt 0; attempt 1 resumes vs restarts.
        assert (resumed.attempt_records[0].packets_sent
                == restart.attempt_records[0].packets_sent)
        assert resumed.packets_salvaged > 0
        assert restart.packets_salvaged == 0
        assert (resumed.attempt_records[1].packets_sent
                < restart.attempt_records[1].packets_sent)
        # And the supervised totals follow.
        assert resumed.total_packets_sent < restart.total_packets_sent

    def test_crash_free_run_is_single_attempt(self, tmp_path):
        result = run_resumable_fobs_transfer(
            lambda attempt: tiny_path(seed=77),
            nbytes=NBYTES, config=des_config(),
            journal_path=str(tmp_path / "clean.journal"), transfer_id=3,
            policy=RetryPolicy(max_attempts=3), sleep=None, time_limit=120.0)
        assert result.completed and result.attempts == 1
        assert result.packets_salvaged == 0


# ---------------------------------------------------------------------------
# Loopback backend: real sockets, kill → resume, byte identity
# ---------------------------------------------------------------------------
class TestLoopbackResume:
    @pytest.mark.parametrize("target", ["receiver", "sender"])
    def test_killed_transfer_resumes_byte_identical(self, tmp_path, target):
        config = loop_config()
        rng = np.random.default_rng(9)
        data = rng.integers(0, 256, size=NBYTES, dtype=np.uint8).tobytes()
        kill = {0: KillSwitch.seeded(target, config.npackets(NBYTES), seed=6)}
        result = run_resumable_loopback(
            nbytes=NBYTES, config=config,
            journal_path=str(tmp_path / "loop.journal"), transfer_id=21,
            kill_plan=kill, policy=RetryPolicy(max_attempts=4,
                                               backoff_base=0.01, seed=1),
            sleep=None, seed=9, data=data, timeout=30.0)
        assert result.completed
        assert result.attempt_records[0].crashed == target
        # checksum_ok is the byte-identity proof: the supervisor scrubs
        # unjournaled buffer regions between attempts, so only the
        # journal + retransmissions can have produced these bytes.
        assert result.final.checksum_ok
        if target == "receiver":
            # The receiver journaled before dying: progress salvaged.
            assert result.packets_salvaged > 0
        assert not os.path.exists(str(tmp_path / "loop.journal"))

    def test_resume_repeatable_under_fixed_seed(self, tmp_path):
        """Same seeds → same crash point, completion and byte identity.

        Thread scheduling keeps loopback packet counters from being
        bit-deterministic (that is asserted on the DES backend); what
        must be repeatable here is the injected crash and the outcome.
        """
        config = loop_config()
        outcomes = []
        for run in range(2):
            kill = KillSwitch.seeded("receiver", config.npackets(NBYTES),
                                     seed=13)
            result = run_resumable_loopback(
                nbytes=NBYTES, config=config,
                journal_path=str(tmp_path / f"rep{run}.journal"),
                transfer_id=31, kill_plan={0: kill},
                policy=RetryPolicy(max_attempts=4, backoff_base=0.01),
                sleep=None, seed=13, timeout=30.0)
            outcomes.append((kill.after_packets, result.completed,
                             result.attempt_records[0].crashed,
                             result.final.checksum_ok))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1:] == (True, "receiver", True)


    def test_receiver_kill_fires_on_the_packet_it_names(self, tmp_path):
        """A kill "after N data packets" dies before placement N + 1
        whatever the train size (N is no multiple of the batch), says
        so, and leaves a journal that claims nothing the buffer does
        not hold: what the dying train had placed but not yet marked
        is simply re-sent."""
        config = loop_config(batch_size=16)
        psize, npackets, after = config.packet_size, 200, 37
        nbytes = npackets * psize
        data = np.random.default_rng(4).integers(
            0, 256, size=nbytes, dtype=np.uint8).tobytes()
        buffer = bytearray(nbytes)
        path = str(tmp_path / "kill.journal")

        def attempt(epoch, **hooks):
            journal, replay = ReceiverJournal.open(path, 77, nbytes, psize,
                                                   flush_every=4)
            resume = replay.bitmap.array if replay is not None else None
            return resume, run_loopback_transfer(
                nbytes=nbytes, config=config, data=data, journal=journal,
                resume_bitmap=resume, buffer=buffer, timeout=30.0,
                session=wire.SessionContext(77, epoch), **hooks)

        _none, first = attempt(0, kill=KillSwitch(target="receiver",
                                                  after_packets=after))
        assert first.crashed == "receiver" and not first.completed
        assert first.failure_reason == (
            f"receiver killed by crash injection after {after} data packets")
        placed = {seq for seq in range(npackets)
                  if buffer[seq * psize:(seq + 1) * psize]
                  == data[seq * psize:(seq + 1) * psize]}
        assert len(placed) == after
        claimed, second = attempt(1)
        assert set(np.flatnonzero(claimed).tolist()) <= placed
        assert second.completed and second.checksum_ok
        assert second.resumed_packets == int(claimed.sum())
        assert bytes(buffer) == data


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestKillAnywhereProperty:
    """Killing the transfer at *any* seeded point resumes byte-identically.

    The kill point is Hypothesis-chosen across the whole object —
    including before the first journal flush (salvage 0, full
    retransmit) and past the last packet (the kill never fires) — and
    the delivered object must equal the source bytes every time.
    """

    @given(after_packets=st.integers(1, 130), data_seed=st.integers(0, 999))
    @settings(max_examples=8, deadline=None)
    def test_loopback_kill_anywhere_byte_identical(
        self, tmp_path_factory, after_packets, data_seed
    ):
        tmp = tmp_path_factory.mktemp("killany")
        config = loop_config()
        nbytes = 120_000  # 118 packets: kill points past the end included
        rng = np.random.default_rng(data_seed)
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
        kill = KillSwitch(target="receiver", after_packets=after_packets)
        result = run_resumable_loopback(
            nbytes=nbytes, config=config,
            journal_path=str(tmp / "j.journal"), transfer_id=99,
            kill_plan={0: kill},
            policy=RetryPolicy(max_attempts=4, backoff_base=0.01, jitter=0.0),
            sleep=None, seed=data_seed, data=data, timeout=30.0)
        assert result.completed
        assert result.final.checksum_ok
        if not kill.fired:
            assert result.attempts == 1  # kill point beyond the object


# ---------------------------------------------------------------------------
# Stale-epoch rejection
# ---------------------------------------------------------------------------
class TestStaleEpoch:
    def test_receiver_drops_without_marking_or_liveness(self):
        config = des_config()
        receiver = FobsReceiver(config, NBYTES, epoch=2)
        before = receiver.bitmap.count
        receiver.on_stale_data(0)
        assert receiver.bitmap.count == before
        assert receiver.stats.stale_epoch_data == 1
        assert receiver.last_data_time is None  # liveness NOT refreshed

    def test_sender_drops_stale_ack(self):
        config = des_config()
        sender = FobsSender(config, NBYTES, rng=np.random.default_rng(0),
                            epoch=2)
        sender.on_stale_ack()
        assert sender.stats.stale_epoch_acks == 1
        assert sender.acked.count == 0

    def test_wire_rejects_wrong_epoch_and_transfer(self):
        current = wire.SessionContext(transfer_id=7, epoch=2)
        stale = wire.SessionContext(transfer_id=7, epoch=1)
        foreign = wire.SessionContext(transfer_id=8, epoch=2)
        from repro.core.packets import AckPacket, DataPacket

        pkt = DataPacket(seq=0, total=4, payload_bytes=4, transmission=0)
        for bad, exc in ((stale, wire.StaleEpochError),
                         (foreign, wire.SessionMismatchError)):
            datagram = wire.encode_data(pkt, b"abcd", checksum=True,
                                        session=bad)
            with pytest.raises(exc):
                wire.decode_data(datagram, checksum=True, session=current)
        ack = AckPacket(ack_id=0, received_count=1,
                        bitmap=np.array([True, False, False, False]))
        with pytest.raises(wire.StaleEpochError):
            wire.decode_ack(wire.encode_ack(ack, session=stale),
                            session=current)

    def test_stale_datagram_never_lands_in_loopback_object(self):
        """End to end through the shared transfer driver: a dead
        attempt's datagrams are counted, never applied, while the live
        attempt completes byte-identically."""
        from repro.core.packets import DataPacket
        from repro.runtime.driver import RecvDriver, SendDriver

        config = loop_config()
        rng = np.random.default_rng(4)
        data = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
        current = wire.SessionContext(transfer_id=55, epoch=3)
        zombie = wire.SessionContext(transfer_id=55, epoch=2)
        buffer = bytearray(len(data))

        def place(offset, payload):
            buffer[offset:offset + len(payload)] = payload

        receiver = RecvDriver(
            FobsReceiver(config, len(data), epoch=current.epoch), place,
            current)
        # Zombie datagrams from the "previous attempt" carrying garbage
        # payloads at in-range sequence numbers arrive first.
        npackets = config.npackets(len(data))
        for seq in range(5):
            pkt = DataPacket(seq=seq, total=npackets,
                             payload_bytes=config.packet_size,
                             transmission=0)
            assert receiver.on_datagram(wire.encode_data(
                pkt, b"\xff" * config.packet_size,
                checksum=config.checksum, session=zombie), 0.0) is None

        in_flight: list[bytes] = []

        def send(views):
            in_flight.extend(bytes(v) for v in views)
            return len(views)

        sender = SendDriver(
            FobsSender(config, len(data), rng=np.random.default_rng(0),
                       epoch=current.epoch), data, send, current)
        now = 0.0
        while not receiver.receiver.complete:
            now += 1e-3
            sender.step(now)
            for datagram in in_flight:
                ack = receiver.on_datagram(datagram, now)
                if ack is not None:
                    sender.on_ack_datagram(ack, now)
            del in_flight[:]
        assert sender.sender.all_acked
        assert receiver.receiver.stats.stale_epoch_data == 5
        # The zombie's 0xff payloads never landed: byte-identical.
        assert bytes(buffer) == data
