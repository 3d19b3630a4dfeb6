"""The composed chaos harness: network × host × kill, one invariant.

A :class:`ChaosScenario` declares everything that can go wrong with one
transfer — wide-area datagram loss and in-flight corruption (the
network dimension, ``repro.runtime.files`` sender knobs), a
:class:`~repro.chaos.hostfaults.HostFaultSchedule` on the receiving
host's disk (the storage dimension), and a mid-blast sender kill (the
crash dimension) — all derived from one seed, so a failing scenario
replays bit-for-bit.

:func:`run_chaos_transfer` executes the scenario over the real
file-transfer stack, both endpoints on one thread (loopback TCP
control + UDP data, a ``.part`` file opened through the faulty store,
a receiver journal, digest verification when ``verify``), then renders
the verdict the whole subsystem exists to check:

    **a transfer either delivers bytes identical to the source or
    reports a failure — never silent corruption.**

``ChaosResult.silent_corruption`` is True exactly when that invariant
is violated; the chaos matrix test asserts it is False across hundreds
of seeded (network × storage × kill) combinations.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from repro.chaos.hostfaults import FaultyStore, HostFaultSchedule, HostFaultStats
from repro.core.config import FobsConfig
from repro.runtime import files
from repro.runtime.supervisor import RetryPolicy
from repro.runtime.transfer import run_endpoints
from repro.simnet.faults import KillSwitch


@dataclass(frozen=True)
class ChaosScenario:
    """One replayable chaos experiment (all faults derive from ``seed``)."""

    name: str = "chaos"
    seed: int = 0
    #: Object size; kept small — the matrix runs hundreds of these.
    nbytes: int = 65536
    packet_size: int = 1024
    #: Network dimension (sender-side, deterministic RNG).
    drop_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Storage dimension (receiving host's disk).
    host: HostFaultSchedule = HostFaultSchedule()
    #: Crash dimension: kill the first attempt's sender after this many
    #: data packets (0 = no kill).  Later attempts run unkilled and
    #: resume from the receiver journal.
    kill_sender_after: int = 0
    #: Attempt budget on both sides.  Bounded: an unlucky scenario must
    #: end in a *reported* failure, not an unbounded retry loop.
    max_attempts: int = 4
    #: Negotiate the per-chunk digest manifest (VERIFY extension);
    #: False exercises the whole-object CRC32 fallback.
    verify: bool = True
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v == f.default:
                continue
            if f.name == "host":
                v = v.to_dict()
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosScenario":
        kwargs = dict(data)
        if "host" in kwargs:
            kwargs["host"] = HostFaultSchedule.from_dict(kwargs["host"])
        return cls(**kwargs)


@dataclass
class ChaosResult:
    """Verdict + forensics for one scenario."""

    scenario: ChaosScenario
    #: Did the receiver report a completed, blessed delivery?
    completed: bool = False
    #: Does the published output byte-match the source object?
    byte_identical: bool = False
    #: Was an output file published at all (``os.replace`` ran)?
    delivered: bool = False
    #: THE invariant: success (or a published file) with wrong bytes.
    silent_corruption: bool = False
    failure_reason: Optional[str] = None
    attempts: int = 0
    sender_packets_sent: int = 0
    #: Corruption-repair counters from the receiver's verify passes.
    packets_demoted: int = 0
    ranges_demoted: int = 0
    bytes_refetched: int = 0
    verify_seconds: float = 0.0
    storage_faults: int = 0
    duration: float = 0.0
    host_stats: HostFaultStats = field(default_factory=HostFaultStats)
    sender_result: Optional[files.FileTransferResult] = None
    receiver_result: Optional[files.FileTransferResult] = None

    @property
    def ok(self) -> bool:
        """Invariant holds: byte-identical success or a reported failure."""
        return not self.silent_corruption


def run_chaos_transfer(scenario: ChaosScenario, workdir: str) -> ChaosResult:
    """Execute one scenario in ``workdir``; never raises on chaos.

    The source object is generated from ``scenario.seed``; output,
    ``.part`` and journal files all live under ``workdir`` (one
    directory per scenario keeps verdicts independent).  Only harness
    bugs raise — every injected fault ends up in the returned
    :class:`ChaosResult`.
    """
    rng = np.random.default_rng(scenario.seed)
    data = rng.integers(0, 256, size=scenario.nbytes,
                        dtype=np.uint8).tobytes()
    output_path = os.path.join(workdir, "output.bin")

    config = FobsConfig(
        packet_size=scenario.packet_size,
        ack_frequency=8,
        # Chaos scenarios die and resume a lot; tight liveness tuning
        # keeps a killed attempt's survivor from burning the deadline.
        stall_timeout=0.5,
        stall_abort_after=3.0,
        receiver_idle_timeout=2.0,
    )
    store = FaultyStore(scenario.host, seed=scenario.seed)
    kill_plan = ({0: KillSwitch(target="sender",
                                after_packets=scenario.kill_sender_after)}
                 if scenario.kill_sender_after else None)

    start = time.monotonic()
    rx = files.receive_endpoint(
        output_path, 0, bind="127.0.0.1", timeout=scenario.timeout,
        max_attempts=max(scenario.max_attempts, 2), config=config,
        opener=store.open)
    tx = files.send_endpoint(
        data, "127.0.0.1", rx.socks[0].getsockname()[1], config,
        timeout=scenario.timeout, max_attempts=scenario.max_attempts,
        policy=RetryPolicy(max_attempts=scenario.max_attempts,
                           backoff_base=0.02, max_delay=0.2,
                           seed=scenario.seed & 0xFFFF),
        kill_plan=kill_plan, verify=scenario.verify,
        drop_rate=scenario.drop_rate, corrupt_rate=scenario.corrupt_rate)
    run_endpoints([rx, tx])
    duration = max(time.monotonic() - start, 1e-9)
    rresult: files.FileTransferResult = rx.result
    sender_result: files.FileTransferResult = tx.result

    completed = rresult.completed and sender_result.completed
    delivered = os.path.exists(output_path)
    byte_identical = False
    if delivered:
        with open(output_path, "rb") as fh:
            byte_identical = fh.read() == data
    # The invariant: claiming success — or publishing an output at all —
    # with bytes that differ from the source is silent corruption.
    silent_corruption = ((completed and not byte_identical)
                         or (delivered and not byte_identical))
    failure = None
    if not completed:
        failure = (rresult.failure_reason or sender_result.failure_reason
                   or "transfer did not complete")
    return ChaosResult(
        scenario=scenario,
        completed=completed,
        byte_identical=byte_identical,
        delivered=delivered,
        silent_corruption=silent_corruption,
        failure_reason=failure,
        attempts=rresult.attempts,
        sender_packets_sent=sender_result.packets_sent,
        packets_demoted=rresult.packets_demoted,
        ranges_demoted=rresult.ranges_demoted,
        bytes_refetched=rresult.bytes_refetched,
        verify_seconds=rresult.verify_seconds,
        storage_faults=rresult.storage_faults,
        duration=duration,
        host_stats=store.stats,
        sender_result=sender_result,
        receiver_result=rresult,
    )


__all__ = [
    "ChaosResult",
    "ChaosScenario",
    "run_chaos_transfer",
]
