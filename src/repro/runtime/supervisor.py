"""Retry supervision for crash-resumable transfers.

FT-LADS's observation, applied to FOBS: the whole-object bitmap is an
object log, so a transfer that dies — process crash, link blackhole,
stall abort — need not restart from byte zero.  The
:class:`TransferSupervisor` wraps *one attempt function* in a retry
loop: exponential backoff with deterministic jitter, a max-attempts
budget, and per-attempt statistics aggregated into a
:class:`SupervisedResult` (total attempts, packets salvaged by resume,
the final failure reason).  Per Arslan & Kosar's heuristic-tuning
argument, every attempt's stats are kept so later attempts — and the
operator — can see what earlier ones learned.

The supervisor is backend-neutral: an attempt function receives the
attempt number and epoch and returns any outcome object exposing the
duck-typed fields below.  Two batteries-included drivers wire it
through the concrete backends:

* :func:`run_resumable_fobs_transfer` — the DES session layer
  (:class:`~repro.core.session.FobsTransfer` on a fresh simulated
  network per attempt);
* :func:`run_resumable_loopback` — the real-socket loopback runtime
  (:func:`~repro.runtime.transfer.run_loopback_transfer`).

Both persist the receiver bitmap through a
:class:`~repro.core.journal.ReceiverJournal` and seed each retry with
the replayed bitmap, so a resumed attempt retransmits only packets the
journal never saw.  ``repro.runtime.files`` wires the same supervisor
through the two-process file-transfer session with a real RESUME
handshake on the control connection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.config import FobsConfig
from repro.core.journal import ReceiverJournal
from repro.core.session import FobsTransfer, TransferStats
from repro.simnet.faults import KillSwitch


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for a supervised transfer."""

    #: Total attempts (first try included).
    max_attempts: int = 3
    #: Delay before the first retry, seconds.
    backoff_base: float = 0.1
    #: Multiplier per subsequent retry (exponential backoff).
    backoff_factor: float = 2.0
    #: Uniform jitter fraction: each delay is scaled by a factor drawn
    #: from ``[1 - jitter, 1 + jitter]`` (deterministic from ``seed``).
    jitter: float = 0.25
    #: Ceiling on any single delay, seconds.
    max_delay: float = 30.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_delay <= 0:
            raise ValueError("max_delay must be positive")

    def delay(self, retry_index: int, rng: np.random.Generator) -> float:
        """Backoff before retry ``retry_index`` (0 = first retry)."""
        base = self.backoff_base * self.backoff_factor ** retry_index
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return min(base, self.max_delay)


@dataclass
class AttemptRecord:
    """What one attempt did (Arslan/Kosar-style per-attempt history)."""

    attempt: int
    epoch: int
    completed: bool
    failure_reason: Optional[str] = None
    crashed: Optional[str] = None
    packets_sent: int = 0
    retransmissions: int = 0
    #: Packets pre-acknowledged from the journal at attempt start.
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0
    duration: float = 0.0
    backoff_before: float = 0.0
    #: Corruption-repair and disk-fault counters (verify-capable
    #: backends; zero elsewhere).
    ranges_demoted: int = 0
    packets_demoted: int = 0
    bytes_refetched: int = 0
    verify_seconds: float = 0.0
    storage_faults: int = 0


@dataclass
class SupervisedResult:
    """Aggregate outcome of a supervised (retried) transfer."""

    completed: bool
    attempts: int
    npackets: int
    #: Packets the final attempt inherited from the journal instead of
    #: re-receiving — the resume machinery's savings over full restart.
    packets_salvaged: int
    #: Data packets sent across every attempt.
    total_packets_sent: int
    #: Last attempt's failure diagnosis (None when completed).
    failure_reason: Optional[str] = None
    #: Stale-epoch datagrams rejected across all attempts.
    stale_epoch_dropped: int = 0
    total_backoff: float = 0.0
    #: Corrupt-chunk ranges demoted back to unreceived, summed over
    #: every attempt's verify passes (resume audits + completion audits).
    ranges_demoted: int = 0
    #: Individual packets demoted for re-fetch across all attempts.
    packets_demoted: int = 0
    #: Bytes those demoted packets covered — the re-fetch bill.
    bytes_refetched: int = 0
    #: Wall-clock seconds spent hashing in verify passes, all attempts.
    verify_seconds: float = 0.0
    #: Attempts that failed on an injected/real disk error (EIO/ENOSPC).
    storage_faults: int = 0
    attempt_records: list[AttemptRecord] = field(default_factory=list)
    #: Backend-specific outcome of the final attempt.
    final: object = None

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def salvaged_fraction(self) -> float:
        """Fraction of the object the journal saved from retransmission."""
        return self.packets_salvaged / self.npackets if self.npackets else 0.0

    def __str__(self) -> str:
        state = "completed" if self.completed else f"FAILED ({self.failure_reason})"
        return (f"SupervisedResult({state} after {self.attempts} attempt(s), "
                f"salvaged {self.packets_salvaged}/{self.npackets} packets)")


#: An attempt function: (attempt index, epoch) -> backend outcome.  The
#: outcome is duck-typed; the supervisor reads ``completed``/``ok``,
#: ``failure_reason``, ``crashed``, ``packets_sent``,
#: ``packets_retransmitted``/``retransmissions``, ``resumed_packets``
#: and ``stale_epoch_dropped`` when present.
AttemptFn = Callable[[int, int], object]


def _get(outcome: object, *names: str, default=0):
    for name in names:
        value = getattr(outcome, name, None)
        if value is not None:
            return value
    return default


class TransferSupervisor:
    """Run an attempt function under a :class:`RetryPolicy`.

    ``sleep`` is injectable for tests (pass ``None`` to skip backoff
    entirely).  Epochs are the attempt indices: attempt *k* runs with
    epoch *k*, so every retry invalidates all datagrams of its
    predecessors.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        sleep: Optional[Callable[[float], None]] = time.sleep,
    ):
        self.policy = policy if policy is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = np.random.default_rng(self.policy.seed)

    def run(self, attempt_fn: AttemptFn, npackets: int = 0) -> SupervisedResult:
        """Retry ``attempt_fn`` until success or the attempts budget."""
        records: list[AttemptRecord] = []
        outcome: object = None
        total_backoff = 0.0
        for attempt in range(self.policy.max_attempts):
            backoff = 0.0
            if attempt > 0:
                backoff = self.policy.delay(attempt - 1, self._rng)
                total_backoff += backoff
                if self._sleep is not None and backoff > 0:
                    self._sleep(backoff)
            start = time.monotonic()
            outcome = attempt_fn(attempt, attempt)
            completed = bool(_get(outcome, "ok", "completed", default=False))
            records.append(AttemptRecord(
                attempt=attempt,
                epoch=attempt,
                completed=completed,
                failure_reason=_get(outcome, "failure_reason", default=None),
                crashed=_get(outcome, "crashed", default=None),
                packets_sent=_get(outcome, "packets_sent"),
                retransmissions=_get(outcome, "retransmissions",
                                     "packets_retransmitted"),
                resumed_packets=_get(outcome, "resumed_packets"),
                stale_epoch_dropped=_get(outcome, "stale_epoch_dropped"),
                duration=time.monotonic() - start,
                backoff_before=backoff,
                ranges_demoted=_get(outcome, "ranges_demoted"),
                packets_demoted=_get(outcome, "packets_demoted"),
                bytes_refetched=_get(outcome, "bytes_refetched"),
                verify_seconds=_get(outcome, "verify_seconds", default=0.0),
                storage_faults=_get(outcome, "storage_faults"),
            ))
            if completed:
                break
        last = records[-1]
        return SupervisedResult(
            completed=last.completed,
            attempts=len(records),
            npackets=npackets or _get(outcome, "npackets"),
            packets_salvaged=last.resumed_packets,
            total_packets_sent=sum(r.packets_sent for r in records),
            failure_reason=None if last.completed else last.failure_reason,
            stale_epoch_dropped=sum(r.stale_epoch_dropped for r in records),
            total_backoff=total_backoff,
            ranges_demoted=sum(r.ranges_demoted for r in records),
            packets_demoted=sum(r.packets_demoted for r in records),
            bytes_refetched=sum(r.bytes_refetched for r in records),
            verify_seconds=sum(r.verify_seconds for r in records),
            storage_faults=sum(r.storage_faults for r in records),
            attempt_records=records,
            final=outcome,
        )


# ----------------------------------------------------------------------
# Backend drivers
# ----------------------------------------------------------------------

def _scrub_unjournaled(
    buffer: bytearray,
    resume: Optional[np.ndarray],
    packet_size: int,
    nbytes: int,
) -> None:
    """Zero buffer regions the journal never confirmed durable.

    A real crash loses writes that never reached stable storage; the
    journal's data-before-log ordering guarantees only *journaled*
    packets survive.  Scrubbing everything else before a resumed
    attempt makes that contract load-bearing: a resumed transfer that
    leaned on unjournaled bytes would fail its end-to-end checksum.
    """
    for seq in range(-(-nbytes // packet_size)):
        if resume is None or not resume[seq]:
            start = seq * packet_size
            end = min(start + packet_size, nbytes)
            buffer[start:end] = bytes(end - start)


def kill_for_attempt(kill_plan, attempt: int) -> Optional[KillSwitch]:
    """Resolve the crash plan for one attempt.

    ``kill_plan`` may be None, a dict ``{attempt: KillSwitch}``, or a
    callable ``attempt -> KillSwitch | None``.  A single
    :class:`KillSwitch` instance is also accepted — it fires at most
    once, so later attempts run clean.
    """
    if kill_plan is None:
        return None
    if isinstance(kill_plan, KillSwitch):
        return None if kill_plan.fired else kill_plan
    if isinstance(kill_plan, dict):
        return kill_plan.get(attempt)
    return kill_plan(attempt)


def run_resumable_fobs_transfer(
    make_net: Callable[[int], object],
    nbytes: int,
    config: Optional[FobsConfig] = None,
    *,
    journal_path: str,
    transfer_id: int = 1,
    kill_plan=None,
    policy: Optional[RetryPolicy] = None,
    sleep: Optional[Callable[[float], None]] = None,
    time_limit: float = 600.0,
    flush_every: int = 16,
    keep_journal: bool = False,
) -> SupervisedResult:
    """Supervised FOBS transfer on the DES backend.

    ``make_net(attempt)`` builds a fresh simulated network per attempt
    (each crashed attempt's processes — and its simulator — are dead;
    a deterministic factory makes the whole scenario replayable from a
    seed).  The receiver journals every newly received packet; a retry
    replays the journal and seeds both endpoints, modeling the RESUME
    exchange of PROTOCOL.md §8.  ``kill_plan`` injects crashes (see
    :func:`kill_for_attempt`).  On success the journal file is
    deleted unless ``keep_journal``.
    """
    config = config if config is not None else FobsConfig()

    journal: Optional[ReceiverJournal] = None

    def attempt_fn(attempt: int, epoch: int) -> TransferStats:
        nonlocal journal
        journal, replay = ReceiverJournal.open(
            journal_path, transfer_id, nbytes, config.packet_size,
            flush_every=flush_every)
        resume = replay.bitmap.array if replay is not None else None
        transfer = FobsTransfer(
            make_net(attempt), nbytes, config, epoch=epoch,
            resume_bitmap=resume, journal=journal,
            kill_switch=kill_for_attempt(kill_plan, attempt),
        )
        stats = transfer.run(time_limit=time_limit)
        if stats.crashed != "receiver":
            journal.close()
        return stats

    supervisor = TransferSupervisor(policy=policy, sleep=sleep)
    result = supervisor.run(attempt_fn, npackets=config.npackets(nbytes))
    if result.completed and not keep_journal:
        journal.delete()
    return result


def run_resumable_loopback(
    nbytes: int = 1_000_000,
    config: Optional[FobsConfig] = None,
    *,
    journal_path: str,
    transfer_id: int = 1,
    kill_plan=None,
    policy: Optional[RetryPolicy] = None,
    sleep: Optional[Callable[[float], None]] = time.sleep,
    seed: int = 0,
    data: Optional[bytes] = None,
    timeout: float = 60.0,
    flush_every: int = 16,
    keep_journal: bool = False,
) -> SupervisedResult:
    """Supervised transfer over real loopback sockets.

    Each attempt runs the loopback backend with a
    :class:`~repro.runtime.wire.SessionContext` stamping every datagram
    with ``(transfer_id, epoch)`` — stale-epoch datagrams from a killed
    attempt are rejected on arrival.  The receiver's buffer (the "disk
    file") survives across attempts, but only journal-confirmed packets
    are trusted: anything received after the journal's last flush is
    re-sent.  The returned result's ``final`` field is the last
    attempt's :class:`~repro.runtime.transfer.LoopbackResult`.
    """
    from repro.runtime import wire
    from repro.runtime.transfer import run_loopback_transfer

    config = config if config is not None else FobsConfig(ack_frequency=32)
    if data is None:
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    buffer = bytearray(nbytes)

    journal: Optional[ReceiverJournal] = None

    def attempt_fn(attempt: int, epoch: int):
        nonlocal journal
        journal, replay = ReceiverJournal.open(
            journal_path, transfer_id, nbytes, config.packet_size,
            flush_every=flush_every)
        resume = replay.bitmap.array if replay is not None else None
        if attempt > 0:
            _scrub_unjournaled(buffer, resume, config.packet_size, nbytes)
        return run_loopback_transfer(
            nbytes=nbytes, config=config, seed=seed + attempt,
            timeout=timeout, data=data, journal=journal,
            resume_bitmap=resume,
            session=wire.SessionContext(transfer_id, epoch),
            kill=kill_for_attempt(kill_plan, attempt),
            buffer=buffer,
        )

    supervisor = TransferSupervisor(policy=policy, sleep=sleep)
    result = supervisor.run(attempt_fn, npackets=config.npackets(nbytes))
    if result.completed and not keep_journal:
        journal.delete()
    return result


__all__ = [
    "AttemptRecord",
    "RetryPolicy",
    "SupervisedResult",
    "TransferSupervisor",
    "kill_for_attempt",
    "run_resumable_fobs_transfer",
    "run_resumable_loopback",
]
