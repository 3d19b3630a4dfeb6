"""Fetch client for the multi-transfer daemon (``repro fetch``).

Sends a FETCH request, rides out QUEUED replies, and — once the server
answers with an offer — becomes an ordinary resumable receiver: the
whole data plane (RESUME reply, journal, ``.part`` reassembly, CRC
verification, completion signal) is
:func:`repro.runtime.files.receive_offer`, exactly the code path a push
receiver runs.  Retries ride the existing
:class:`~repro.runtime.supervisor.TransferSupervisor`: each attempt
re-sends FETCH with a bumped epoch, and the server's offer carries the
same transfer id (content XOR our stable nonce), so the journal from a
killed attempt seeds the next one.  The whole exchange, backoff
included, is the turns of one
:class:`~repro.runtime.transfer.Endpoint` (:func:`fetch_endpoint`).
"""

from __future__ import annotations

import os
import socket
import time
import zlib
from typing import TYPE_CHECKING, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

from repro.core.config import FobsConfig
from repro.runtime import files, transfer, wire
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
    end = fetch_endpoint(name, host, port, output_path, config, timeout,
                         max_attempts, rate_cap_bps, client_nonce,
                         journal_path, checksum, policy, telemetry, verify,
                         opener, tuning, stats_interval)
    transfer.run_endpoints([end])
    return end.result


def fetch_endpoint(
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
) -> transfer.Endpoint:
    """:func:`fetch_file` as an endpoint of
    :func:`~repro.runtime.transfer.run_endpoints`, with its result."""
    nonce = (client_nonce if client_nonce is not None
             else default_client_nonce(output_path))
    if policy is None:
        policy = RetryPolicy(max_attempts=max(max_attempts, 1),
                             backoff_base=0.2, seed=nonce & 0xFFFF)

    flags = wire.FETCH_FLAG_RESUME
    flags |= wire.FETCH_FLAG_CHECKSUM if checksum else 0
    flags |= wire.FETCH_FLAG_VERIFY if verify else 0
    end = transfer.Endpoint()

    def attempt(_attempt: int, epoch: int
                ) -> Generator[float, None, files.FileTransferResult]:
        """One connect → FETCH → (queue?) → receive attempt, as turns;
        never raises."""
        deadline = time.monotonic() + timeout
        start = time.monotonic()
        try:
            ctrl = yield from transfer.connecting(end, (host, port), deadline)
            with ctrl:
                yield from transfer.writing(end, ctrl, wire.encode_fetch(
                    wire.FetchRequest(name=name, flags=flags, epoch=epoch,
                                      client_nonce=nonce,
                                      rate_cap_bps=rate_cap_bps)), deadline)
                decoder = wire.ControlDecoder()
                reply = wire.Queued(0)
                while isinstance(reply, wire.Queued):  # until OFFER/REJECT
                    reply = yield from transfer.reading(end, ctrl, decoder,
                                                        deadline)
                if isinstance(reply, wire.Reject):
                    failure = wire.reject_reason(reply.code)
                else:
                    return (yield from files.receive_offer(
                        end, ctrl, decoder, (host, port),
                        wire.expect(reply, wire.Offer), output_path,
                        deadline, config=config, journal_path=journal_path,
                        telemetry=telemetry, opener=opener, tuning=tuning,
                        stats_interval=stats_interval))
        except (OSError, ValueError, wire.ChecksumError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            end.reads = end.writes = ()
        return files.FileTransferResult(
            output_path, 0, max(time.monotonic() - start, 1e-9), 0.0, False,
            completed=False, failure_reason=failure)

    def turns() -> Generator[float, None, files.FileTransferResult]:
        supervised = yield from TransferSupervisor(policy=policy).turns(
            attempt)
        offered = supervised.final.nbytes
        result = files.supervised_result(supervised, output_path, 0)
        if result.completed:
            # Independent delivery audit: never report success on output
            # that is missing or byte-incomplete, whatever the attempt's
            # own bookkeeping claims.
            try:
                nbytes = os.path.getsize(output_path)
            except OSError:
                nbytes = -1
            if nbytes == offered:
                result.nbytes = nbytes
                result.throughput_bps = nbytes * 8.0 / result.duration
            else:
                result.completed = result.crc_ok = False
                result.failure_reason = (f"verify failed: output is "
                                         f"{max(nbytes, 0)} bytes, offer "
                                         f"promised {offered}")
        return result

    end.turns = turns()
    return end
