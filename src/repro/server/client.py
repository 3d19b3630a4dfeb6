"""Fetch client for the multi-transfer daemon (``repro fetch``).

Sends a FETCH request, rides out QUEUED replies, and — once the server
answers with a v2 offer — becomes an ordinary resumable receiver: the
whole data plane (RESUME reply, journal, ``.part`` reassembly, CRC
verification, completion signal) is
:func:`repro.runtime.files.receive_offer`, exactly the code path a push
receiver runs.  Retries ride the existing
:class:`~repro.runtime.supervisor.TransferSupervisor`: each attempt
re-sends FETCH with a bumped epoch, and the server's offer carries the
same transfer id (content XOR our stable nonce), so the journal from a
killed attempt seeds the next one.
"""

from __future__ import annotations

import os
import socket
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

from repro.core.config import FobsConfig
from repro.runtime import files, wire
from repro.runtime.supervisor import RetryPolicy, TransferSupervisor
from repro.telemetry import EventBus


def default_client_nonce(output_path: str) -> int:
    """A 64-bit nonce stable across this client's restarts.

    Derived from hostname + absolute output path: two *different*
    clients (or two destinations on one host) fetching the same object
    get different nonces — hence disjoint server-side sessions — while
    a crashed-and-restarted client reproduces its nonce and resumes its
    own journal.
    """
    ident = f"{socket.gethostname()}:{os.path.abspath(output_path)}"
    raw = ident.encode("utf-8")
    return (zlib.crc32(raw) << 32) | zlib.crc32(raw[::-1])


@dataclass
class _FetchOutcome:
    """One fetch attempt, in the supervisor's duck-typed vocabulary."""

    completed: bool
    duration: float = 0.0
    failure_reason: Optional[str] = None
    queued_position: int = 0
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0
    npackets: int = 0
    rejected: bool = False
    reject_code: int = 0
    #: Corruption-repair and disk-fault counters (one attempt's worth).
    ranges_demoted: int = 0
    packets_demoted: int = 0
    bytes_refetched: int = 0
    verify_seconds: float = 0.0
    storage_faults: int = 0
    #: The offered object size — lets the caller audit the delivered
    #: file instead of trusting the attempt's own success claim.
    expected_nbytes: int = 0


def _fetch_attempt(
    name: str,
    host: str,
    port: int,
    output_path: str,
    config: Optional[FobsConfig],
    timeout: float,
    epoch: int,
    nonce: int,
    rate_cap_bps: int,
    journal_path: Optional[str],
    checksum: bool,
    telemetry: Optional[EventBus] = None,
    verify: bool = True,
    opener=open,
    tuning: Optional["TuningConfig"] = None,
    stats_interval: float = 0.0,
) -> _FetchOutcome:
    """One connect → FETCH → (queue?) → receive attempt; never raises."""
    deadline = time.monotonic() + timeout
    start = time.monotonic()
    flags = wire.FETCH_FLAG_RESUME | (wire.FETCH_FLAG_CHECKSUM if checksum
                                      else 0)
    if verify:
        flags |= wire.FETCH_FLAG_VERIFY
    queued_position = 0
    try:
        with socket.create_connection((host, port), timeout=timeout) as ctrl:
            ctrl.settimeout(timeout)
            ctrl.sendall(wire.encode_fetch(wire.FetchRequest(
                name=name, flags=flags, epoch=epoch, client_nonce=nonce,
                rate_cap_bps=rate_cap_bps)))
            decoder = wire.ControlDecoder()
            reply = wire.read_frame(ctrl, decoder)
            while isinstance(reply, wire.Queued):  # OFFER or REJECT follows
                queued_position = reply.position
                reply = wire.read_frame(ctrl, decoder)
            if isinstance(reply, wire.Reject):
                return _FetchOutcome(
                    completed=False,
                    duration=max(time.monotonic() - start, 1e-9),
                    failure_reason=wire.reject_reason(reply.code),
                    queued_position=queued_position,
                    rejected=True, reject_code=reply.code)
            offer = wire.expect(reply, wire.Offer)
            ok, failure, receiver, duration, vstats = files.receive_offer(
                ctrl, decoder, (host, port), offer, output_path, deadline,
                config=config, journal_path=journal_path,
                telemetry=telemetry, opener=opener, tuning=tuning,
                stats_interval=stats_interval)
            return _FetchOutcome(
                completed=ok,
                duration=duration,
                failure_reason=failure,
                queued_position=queued_position,
                resumed_packets=(receiver.stats.resumed_packets
                                 if receiver is not None else 0),
                stale_epoch_dropped=(receiver.stats.stale_epoch_data
                                     if receiver is not None else 0),
                npackets=receiver.npackets if receiver is not None else 0,
                ranges_demoted=vstats.ranges_demoted,
                packets_demoted=vstats.chunks_corrupt,
                bytes_refetched=vstats.bytes_demoted,
                verify_seconds=vstats.duration,
                storage_faults=1 if files.is_storage_fault(failure) else 0,
                expected_nbytes=offer.filesize)
    except (OSError, ValueError, wire.ChecksumError) as exc:
        return _FetchOutcome(
            completed=False,
            duration=max(time.monotonic() - start, 1e-9),
            failure_reason=f"{type(exc).__name__}: {exc}",
            queued_position=queued_position)


def fetch_file(
    name: str,
    host: str,
    port: int,
    output_path: str,
    config: Optional[FobsConfig] = None,
    timeout: float = 120.0,
    max_attempts: int = 1,
    rate_cap_bps: int = 0,
    client_nonce: Optional[int] = None,
    journal_path: Optional[str] = None,
    checksum: bool = True,
    policy: Optional[RetryPolicy] = None,
    telemetry: Optional[EventBus] = None,
    verify: bool = True,
    opener=open,
    tuning: Optional["TuningConfig"] = None,
    stats_interval: float = 0.0,
) -> files.FileTransferResult:
    """Fetch object ``name`` from a ``repro serve`` daemon.

    Returns a :class:`~repro.runtime.files.FileTransferResult`; a
    failure (rejected, timed out, retries exhausted) is *returned* with
    ``completed=False``, not raised.  ``rate_cap_bps`` asks the server
    to cap this transfer's share of its bandwidth budget.
    ``max_attempts > 1`` retries with exponential backoff — because the
    transfer id is stable, a retry after a server (or client) crash
    resumes from the receiver journal instead of refetching from byte
    zero.

    ``verify`` requests the per-chunk digest manifest
    (``FETCH_FLAG_VERIFY``); the receive path then audits the disk on
    resume and before completion, demoting corrupt chunks for
    re-fetch.  Independently of the flag, the delivered file's size is
    checked against the server's offer — a byte-incomplete output is
    reported as ``verify failed``, never as success.
    """
    nonce = (client_nonce if client_nonce is not None
             else default_client_nonce(output_path))
    if policy is None:
        policy = RetryPolicy(max_attempts=max(max_attempts, 1),
                             backoff_base=0.2, seed=nonce & 0xFFFF)

    def attempt_fn(attempt: int, epoch: int) -> _FetchOutcome:
        del attempt
        return _fetch_attempt(name, host, port, output_path, config,
                              timeout, epoch, nonce, rate_cap_bps,
                              journal_path, checksum, telemetry=telemetry,
                              verify=verify, opener=opener, tuning=tuning,
                              stats_interval=stats_interval)

    supervised = TransferSupervisor(policy=policy).run(attempt_fn)
    final: _FetchOutcome = supervised.final
    completed = supervised.completed
    failure = supervised.failure_reason
    nbytes = 0
    if completed:
        # Independent delivery audit: never report success on output
        # that is missing or byte-incomplete, whatever the attempt's
        # own bookkeeping claims.
        try:
            nbytes = os.path.getsize(output_path)
        except OSError:
            nbytes = -1
        if final.expected_nbytes and nbytes != final.expected_nbytes:
            completed = False
            failure = (f"verify failed: output is {max(nbytes, 0)} bytes, "
                       f"offer promised {final.expected_nbytes}")
            nbytes = 0
    return files.FileTransferResult(
        path=output_path,
        nbytes=nbytes,
        duration=final.duration,
        throughput_bps=(nbytes * 8.0 / final.duration if completed else 0.0),
        crc_ok=completed,
        completed=completed,
        failure_reason=failure,
        attempts=supervised.attempts,
        resumed_packets=supervised.packets_salvaged,
        stale_epoch_dropped=supervised.stale_epoch_dropped,
        ranges_demoted=supervised.ranges_demoted,
        packets_demoted=supervised.packets_demoted,
        bytes_refetched=supervised.bytes_refetched,
        verify_seconds=supervised.verify_seconds,
        storage_faults=supervised.storage_faults,
    )
