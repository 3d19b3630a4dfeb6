"""The composed chaos matrix: network × storage × kill, ≥200 scenarios.

Every scenario runs a real loopback transfer, both ends on one thread
(TCP control + UDP data), with seeded faults on all three axes and checks the single
invariant the robustness work exists to provide:

    a transfer either delivers bytes identical to the source or
    reports a failure — **never silent corruption**.

The matrix is 5 network × 6 storage × 2 kill × 4 seeds = 240 scenarios
(plus a no-verify wing exercising the CRC32 fallback).  Scenarios are
independent (own workdir, own port) and IO-bound, so they run on a
thread pool to keep wall-clock sane.

The second half proves the *economics* acceptance: on the same seed, a
digest-demoted resume re-sends strictly fewer packets than a full
restart.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chaos import (
    ChaosScenario,
    HostFaultSchedule,
    run_chaos_transfer,
)
from repro.core.config import FobsConfig
from repro.runtime.files import receive_endpoint, send_file
from repro.runtime.transfer import run_endpoints
from repro.simnet.faults import KillSwitch

pytestmark = [pytest.mark.loopback, pytest.mark.chaos]

NETWORK = {
    "net-clean": dict(),
    "net-drop5": dict(drop_rate=0.05),
    "net-drop15": dict(drop_rate=0.15),
    "net-flip2": dict(corrupt_rate=0.02),
    "net-drop-flip": dict(drop_rate=0.08, corrupt_rate=0.02),
}

STORAGE = {
    "disk-clean": HostFaultSchedule(),
    "disk-torn": HostFaultSchedule(torn_write_rate=0.08),
    "disk-bitrot": HostFaultSchedule(bitrot_rate=0.08),
    "disk-torn-rot": HostFaultSchedule(torn_write_rate=0.05,
                                       bitrot_rate=0.05),
    "disk-enospc": HostFaultSchedule(error_ops=((9, "ENOSPC"),)),
    "disk-eio": HostFaultSchedule(error_ops=((4, "EIO"),)),
}

KILL = {"nokill": 0, "kill": 10}

SEEDS = [101, 202, 303, 404]


def matrix():
    out = []
    for net_name, net in NETWORK.items():
        for disk_name, disk in STORAGE.items():
            for kill_name, kill in KILL.items():
                for seed in SEEDS:
                    out.append(ChaosScenario(
                        name=f"{net_name}/{disk_name}/{kill_name}/s{seed}",
                        seed=seed, nbytes=16384, packet_size=512,
                        host=disk, kill_sender_after=kill,
                        max_attempts=6, **net))
    return out


def run_one(tmp_root, scenario):
    workdir = os.path.join(tmp_root, scenario.name.replace("/", "_"))
    os.makedirs(workdir, exist_ok=True)
    return run_chaos_transfer(scenario, workdir)


class TestChaosMatrix:
    def test_no_silent_corruption_across_240_scenarios(self, tmp_path):
        scenarios = matrix()
        assert len(scenarios) >= 200  # the acceptance floor
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda sc: run_one(str(tmp_path), sc), scenarios))

        violations = [r for r in results if r.silent_corruption]
        assert not violations, (
            "SILENT CORRUPTION in: "
            + ", ".join(v.scenario.name for v in violations))

        # The matrix must actually have exercised the machinery, not
        # vacuously passed on a fault-free run.
        completed = sum(r.completed for r in results)
        assert completed >= len(results) * 0.8, (
            f"only {completed}/{len(results)} scenarios converged; "
            "the matrix is too hostile to be meaningful")
        assert sum(r.host_stats.corruptions for r in results) > 0
        assert sum(r.packets_demoted for r in results) > 0
        assert sum(r.storage_faults for r in results) > 0
        assert any(r.attempts > 1 for r in results)
        # Every non-completed scenario carries a diagnosable reason.
        for r in results:
            if not r.completed:
                assert r.failure_reason

    def test_noverify_wing_crc_fallback_still_never_silent(self, tmp_path):
        """Legacy peers (no VERIFY negotiation) fall back to the
        whole-object CRC32: corruption may exhaust the retry budget,
        but it must surface as a reported failure, never a bad file."""
        results = []
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(
                lambda sc: run_one(str(tmp_path), sc),
                [ChaosScenario(
                    name=f"noverify-s{seed}", seed=seed, nbytes=16384,
                    packet_size=512, verify=False,
                    host=HostFaultSchedule(bitrot_rate=0.03),
                    max_attempts=6)
                 for seed in range(8)]))
        assert all(not r.silent_corruption for r in results)
        for r in results:
            if not r.completed:
                assert ("CRC mismatch" in r.failure_reason
                        or "storage fault" in r.failure_reason
                        or r.failure_reason)

    def test_scenario_replay_is_deterministic(self, tmp_path):
        """Same scenario, same seed → same damage profile (the whole
        point of seeded chaos: failures replay under a debugger)."""
        sc = ChaosScenario(name="replay", seed=77, nbytes=16384,
                           packet_size=512,
                           host=HostFaultSchedule(torn_write_rate=0.2,
                                                  bitrot_rate=0.1),
                           max_attempts=6)
        a = run_one(str(tmp_path / "a"), sc)
        b = run_one(str(tmp_path / "b"), sc)
        assert a.completed and b.completed
        assert (a.host_stats.torn_writes, a.host_stats.bitrot_writes) \
            == (b.host_stats.torn_writes, b.host_stats.bitrot_writes)
        assert a.packets_demoted == b.packets_demoted

    def test_scenario_dict_round_trip(self):
        sc = ChaosScenario(name="rt", seed=9, drop_rate=0.1,
                           host=HostFaultSchedule(bitrot_rate=0.2),
                           kill_sender_after=12, verify=False)
        assert ChaosScenario.from_dict(sc.to_dict()) == sc


NBYTES = 300_000
PACKET = 1024
NPACKETS = -(-NBYTES // PACKET)
TID = 0x5EED0001


def _config():
    return FobsConfig(packet_size=PACKET, ack_frequency=32,
                      stall_timeout=0.2, stall_abort_after=1.5,
                      receiver_idle_timeout=1.5)


def _spawn_receiver(out, attempts=3):
    """A receiver that outlives single-attempt senders (and the disk
    damage between them) keeps a thread; it listens before it starts."""
    rx = receive_endpoint(str(out), 0, bind="127.0.0.1", timeout=60.0,
                          max_attempts=attempts, config=_config())
    thread = threading.Thread(target=run_endpoints, args=([rx],),
                              daemon=True)
    thread.start()
    return thread, rx, rx.socks[0].getsockname()[1]


def _send_once(src, port, kill_after=0):
    kill_plan = ({0: KillSwitch(target="sender", after_packets=kill_after)}
                 if kill_after else None)
    return send_file(str(src), "127.0.0.1", port, config=_config(),
                     timeout=60.0, resume=True, max_attempts=1,
                     transfer_id=TID, kill_plan=kill_plan)


def _wait_attempt_boundary():
    # Killed sender -> receiver rides out idle timeout, fails the
    # attempt, compacts the journal and loops back to accept.
    time.sleep(2.5)


def _first_sends(result):
    # Unique packets put on the wire for the first time.  Stall-round
    # retransmissions are timing-dependent on a loaded loopback, so the
    # economics comparison counts distinct payload, not duplicates.
    return result.packets_sent - result.packets_retransmitted


class TestResumeBeatsRestart:
    """Acceptance: a verify-demoted resume re-sends strictly fewer
    packets than a full restart of the same interrupted transfer."""

    def _interrupted_first_attempt(self, tmp_path):
        data = np.random.default_rng(12).integers(
            0, 256, NBYTES, dtype=np.uint8).tobytes()
        src = tmp_path / "src.bin"
        src.write_bytes(data)
        out = tmp_path / "out.bin"
        thread, rx, port = _spawn_receiver(out)
        first = _send_once(src, port, kill_after=120)
        assert not first.completed
        _wait_attempt_boundary()
        return data, src, out, thread, rx, port, first

    def test_demoted_resume_beats_full_restart(self, tmp_path):
        data, src, out, thread, rx, port, first = \
            self._interrupted_first_attempt(tmp_path)

        # Storage chaos between attempts: corrupt journal-claimed bytes
        # in the .part file (deterministic offsets inside the first 120
        # packets, which attempt 1 delivered).
        part = tmp_path / "out.bin.part"
        assert part.exists()
        blob = bytearray(part.read_bytes())
        for seq in (5, 6, 40):
            blob[seq * PACKET + 11] ^= 0xFF
        part.write_bytes(bytes(blob))

        second = _send_once(src, port)
        thread.join(30)
        assert not thread.is_alive()
        recv = rx.result
        assert second.completed and recv.completed
        assert out.read_bytes() == data
        # Verify-on-resume demoted the corrupted chunks...
        assert recv.packets_demoted >= 3
        assert recv.ranges_demoted >= 2  # {5,6} coalesce, {40} is alone
        assert recv.bytes_refetched >= 3 * PACKET
        # ...and the resumed attempt re-sent only holes + demotions:
        # strictly fewer packets than the full object, with real margin.
        assert _first_sends(second) < NPACKETS
        resumed_total = _first_sends(first) + _first_sends(second)

        # Full restart on the SAME seed and kill point: sever the
        # journal so attempt 2 starts from scratch.
        tmp2 = tmp_path / "restart"
        tmp2.mkdir()
        src2 = tmp2 / "src.bin"
        src2.write_bytes(data)
        out2 = tmp2 / "out.bin"
        thread2, rx2, port2 = _spawn_receiver(out2)
        first2 = _send_once(src2, port2, kill_after=120)
        assert not first2.completed
        _wait_attempt_boundary()
        for stale in (tmp2 / "out.bin.part", tmp2 / "out.bin.journal"):
            if stale.exists():
                stale.unlink()
        second2 = _send_once(src2, port2)
        thread2.join(30)
        assert second2.completed and rx2.result.completed
        assert out2.read_bytes() == data
        restart_total = _first_sends(first2) + _first_sends(second2)

        assert resumed_total < restart_total, (
            f"resume ({resumed_total} pkts) did not beat restart "
            f"({restart_total} pkts)")
        # And the restart's second leg sent the whole object again.
        assert _first_sends(second2) >= NPACKETS
