"""Point-to-point file transfer over the real-socket FOBS backend.

A minimal session protocol on top of the FOBS data plane, so two
*separate processes* (or machines) can move a file:

1. the receiver listens on a TCP control port;
2. the sender connects and sends a :class:`~repro.runtime.wire.Offer`
   (file size, packet size, its UDP acknowledgement port, a 64-bit
   transfer id and a 32-bit attempt epoch), followed by the VERIFY
   digest manifest when it flags one;
3. the receiver opens (or replays) its journal, binds a UDP data
   socket and replies with a RESUME message carrying the data port
   and its journal-reconstructed bitmap;
4. FOBS runs — UDP data one way, UDP bitmap ACKs the other;
5. the receiver sends the completion signal back on the still-open
   TCP control connection and both sides verify a CRC32 of the object.

Every session is crash-resumable (PROTOCOL.md §8).  The receiver
writes arriving payloads through to a ``.part`` file and journals
every newly received packet
(:class:`~repro.core.journal.ReceiverJournal`), so a crash on either
side loses only unflushed progress; the sender merges the RESUME
bitmap and retransmits only the gap.  Every data/ACK datagram carries
the :class:`~repro.runtime.wire.SessionContext` extension, so
datagrams from a dead attempt are rejected on arrival.

Each end, handshakes and retries included, is one generator of turns
(:func:`send_endpoint`, :func:`receive_endpoint`) that
:func:`~repro.runtime.transfer.run_endpoints` drives: :func:`send_file`
and :func:`receive_file` run one, and a caller holding both ends runs
the two on one thread.  Used by ``repro send`` / ``repro recv``
(:mod:`repro.server.cli`).
"""

from __future__ import annotations

import socket
import sys
import time
import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

import numpy as np

from repro.core.config import FobsConfig
from repro.core.manifest import ChunkManifest, ManifestCorrupt
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import transfer, wire
from repro.runtime.driver import (
    EndpointKilled,
    FaultySend,
    ObjectFile,
    PartFile,
    RecvDriver,
    SendDriver,
    is_storage_fault,
)
from repro.runtime.supervisor import (
    RetryPolicy,
    TransferSupervisor,
    kill_for_attempt,
)
from repro.telemetry import (
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    NULL_CHANNEL,
    EventBus,
)


@dataclass
class FileTransferResult:
    """Outcome of one file transfer, or of one attempt at it (either side)."""

    path: str
    nbytes: int
    duration: float
    throughput_bps: float
    crc_ok: bool
    packets_sent: int = 0
    packets_retransmitted: int = 0
    completed: bool = True
    failure_reason: Optional[str] = None
    attempts: int = 1
    #: Packets recovered from the journal instead of retransmitted.
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0
    #: Corruption-repair counters (receiver side; zero for senders).
    ranges_demoted: int = 0
    packets_demoted: int = 0
    bytes_refetched: int = 0
    verify_seconds: float = 0.0
    storage_faults: int = 0


def derive_transfer_id(filesize: int, crc: int) -> int:
    """Deterministic transfer id binding a resumable session to content.

    Content-addressed — size in the low word, CRC32 in the high — so a
    re-run of the same file resumes its journal, while a *changed* file
    yields a new id and the receiver's stale journal is discarded by
    the header check instead of corrupting the new object.
    """
    return ((crc & 0xFFFFFFFF) << 32) | (filesize & 0xFFFFFFFF)


#: A receiver's repair counters, summed over its attempts.
_REPAIRS = ("ranges_demoted", "packets_demoted", "bytes_refetched",
            "verify_seconds", "storage_faults")


def supervised_result(supervised, path: str, nbytes: int
                      ) -> FileTransferResult:
    """What a supervised file endpoint reports of its attempts (each a
    :class:`FileTransferResult` of its own), having moved ``nbytes``
    (0 for a fetch that failed)."""
    duration = supervised.final.duration
    return FileTransferResult(
        path=path, nbytes=nbytes, duration=duration,
        throughput_bps=nbytes * 8.0 / duration, crc_ok=supervised.completed,
        packets_sent=supervised.total_packets_sent,
        packets_retransmitted=sum(
            r.retransmissions for r in supervised.attempt_records),
        resumed_packets=supervised.packets_salvaged,
        **{name: getattr(supervised, name) for name in (
            "completed", "failure_reason", "attempts", "stale_epoch_dropped",
            *_REPAIRS)})


# ----------------------------------------------------------------------
# Sender
# ----------------------------------------------------------------------

def _send_attempt(
    end: transfer.Endpoint, data, crc: int, host: str, port: int,
    config: FobsConfig, timeout: float,
    session: wire.SessionContext, kill,
    telemetry: Optional[EventBus], manifest: Optional[ChunkManifest],
    drop_rate: float, corrupt_rate: float, fault_seed: int,
) -> Generator[float, None, FileTransferResult]:
    """One connect→offer→blast attempt of ``end``, as turns; never
    raises on failure."""
    deadline = time.monotonic() + timeout
    tid, epoch = session.transfer_id, session.epoch
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=tid, epoch=epoch,
                                    src="runtime")
        sender_tel = telemetry.channel(transfer_id=tid, epoch=epoch,
                                       src="sender")
    else:
        channel = sender_tel = NULL_CHANNEL
    ack_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    ack_sock.bind(("0.0.0.0", 0))
    ack_sock.setblocking(False)
    data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender = FobsSender(config, len(data), rng=np.random.default_rng(0),
                        epoch=epoch, telemetry=sender_tel)
    if channel.enabled:
        channel.emit(EV_TRANSFER_START, nbytes=len(data),
                     npackets=sender.npackets,
                     packet_size=config.packet_size,
                     ack_frequency=config.ack_frequency, backend="runtime",
                     role="sender")
    start = time.monotonic()
    failure: Optional[str] = None
    try:
        ctrl = yield from transfer.connecting(end, (host, port), deadline)
        with ctrl:
            yield from transfer.writing(end, ctrl, announce_offer(
                len(data), crc, config, ack_sock.getsockname()[1], session,
                manifest), deadline)
            decoder = wire.ControlDecoder(sender.npackets)
            reply = wire.expect(
                (yield from transfer.reading(end, ctrl, decoder, deadline)),
                wire.ResumeInfo)
            if reply.transfer_id != tid:
                raise ValueError("RESUME for a different transfer id")
            if reply.epoch != epoch:
                raise ValueError("RESUME for a different attempt epoch")
            sender.resume_from(reply.bitmap)
            send = transfer.BurstSend(data_sock, (host, reply.data_port))
            if drop_rate or corrupt_rate or kill is not None:
                send = FaultySend(send, drop_rate, corrupt_rate, kill,
                                  fault_seed)
            driver = SendDriver(sender, data, send, session)
            start = time.monotonic()
            blessed = False

            def poll_completion() -> Optional[str]:
                nonlocal blessed
                if time.monotonic() > deadline:
                    raise TimeoutError("transfer deadline exceeded")
                try:
                    frame = wire.read_frame(ctrl, decoder)
                except wire.ControlClosed:
                    # EOF before the completion frame: the receiver
                    # ended its attempt without blessing delivery — its
                    # audit demoted corrupt chunks, or it hit a storage
                    # fault.  Fail this attempt so the retry's RESUME
                    # learns which packets to re-send.
                    return ("control connection closed before completion"
                            " (receiver did not bless delivery)")
                except OSError:
                    return "control connection lost mid-transfer"
                if frame is not None:
                    wire.expect(frame, wire.Completion)
                    blessed = True
                    driver.on_completion(time.monotonic())
                return None

            end.reads, end.writes = [ack_sock, ctrl], ()
            try:
                failure = yield from transfer.sender_turns(
                    driver, ack_sock, poll_completion)
            except EndpointKilled as exc:
                failure = str(exc)
            if (failure is None and not blessed
                    and sender.stats.completion_timeouts):
                # Every packet was acknowledged but the receiver never
                # blessed the delivery.  Without verification that used
                # to be good enough ("the data demonstrably arrived");
                # with end-to-end audits it is not — the bytes may be
                # corrupt on the receiver's disk, so treat the missing
                # blessing as a retryable failure.
                failure = ("all packets acknowledged but the completion "
                           "signal never arrived; delivery unconfirmed")
    except (OSError, ValueError, wire.ChecksumError) as exc:
        failure = f"{type(exc).__name__}: {exc}"
    finally:
        # Closed at once, as a killed process's are; and nothing of
        # this attempt is waited on any more.
        ack_sock.close()
        data_sock.close()
        end.reads = end.writes = ()
    ok = failure is None
    duration = max(time.monotonic() - start, 1e-9)
    outcome = FileTransferResult(
        "", len(data), duration,
        sender.total_bytes * 8.0 / duration if ok else 0.0, ok,
        completed=ok,
        failure_reason=failure,
        packets_sent=sender.stats.packets_sent,
        packets_retransmitted=sender.stats.retransmissions,
        resumed_packets=sender.stats.resumed_packets,
        stale_epoch_dropped=sender.stats.stale_epoch_acks,
    )
    if channel.enabled:
        channel.emit(
            EV_TRANSFER_END, completed=ok, failed=not ok, duration=duration,
            throughput_bps=outcome.throughput_bps,
            wasted_fraction=sender.stats.wasted_fraction(sender.npackets),
            packets_sent=outcome.packets_sent,
            retransmissions=outcome.packets_retransmitted,
            resumed_packets=outcome.resumed_packets,
            failure_reason=failure or "")
    return outcome


def send_file(
    path: str,
    host: str,
    port: int,
    config: Optional[FobsConfig] = None,
    timeout: float = 120.0,
    resume: bool = False,
    max_attempts: int = 1,
    transfer_id: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    kill_plan=None,
    telemetry: Optional[EventBus] = None,
    verify: bool = True,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
) -> FileTransferResult:
    """Send ``path`` to a :func:`receive_file` peer at ``host:port``.

    Every send is a resumable session: each attempt offers the OFFER2
    handshake under the transfer id (``transfer_id``, or one derived
    from the content) and its attempt epoch, merges the receiver's
    RESUME bitmap, and frames every datagram with the session
    extension.  The supervisor retries failed attempts with exponential
    backoff up to ``max_attempts``.  ``resume`` selects no wire format,
    only how a failure is reported: with ``resume`` (or
    ``max_attempts > 1``) an exhausted budget *returns* a result with
    ``completed=False``, so callers can report the failure; without
    either, the single attempt raises ``TimeoutError`` when it fails.

    ``verify`` (on by default) sends the per-chunk digest manifest as a
    VERIFY frame so the receiver can audit its disk and demote corrupt
    chunks for re-fetch instead of delivering them.

    ``drop_rate`` discards that fraction of outgoing data datagrams
    (deterministic RNG) and ``corrupt_rate`` flips one byte in that
    fraction instead — the same sender-side network-chaos knobs as
    :func:`repro.runtime.transfer.run_loopback_transfer`, here for the
    file-transfer stack (``repro.chaos`` composes them with host-side
    storage faults).
    """
    config = config if config is not None else FobsConfig(ack_frequency=32)
    with ObjectFile(path, config.packet_size if verify else None) as source:
        end = send_endpoint(source, host, port, config, timeout,
                            max_attempts, transfer_id, policy, kill_plan,
                            telemetry, verify, drop_rate, corrupt_rate)
        transfer.run_endpoints([end])
    result: FileTransferResult = end.result
    if not (resume or max_attempts > 1 or result.completed):
        raise TimeoutError(f"file send failed: {result.failure_reason}")
    result.path = path
    return result


def send_endpoint(
    data,
    host: str,
    port: int,
    config: Optional[FobsConfig] = None,
    timeout: float = 120.0,
    max_attempts: int = 1,
    transfer_id: Optional[int] = None,
    policy: Optional[RetryPolicy] = None,
    kill_plan=None,
    telemetry: Optional[EventBus] = None,
    verify: bool = True,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
) -> transfer.Endpoint:
    """:func:`send_file` of ``data`` as an endpoint of
    :func:`~repro.runtime.transfer.run_endpoints`, to run beside others;
    its result is the :class:`FileTransferResult`, never raised.

    ``data`` is the object in memory (``bytes`` or ``bytearray``) or an
    open :class:`~repro.runtime.driver.ObjectFile`, whose admission scan
    supplies the CRC32 and, opened with this packet size, the manifest
    (the caller closes it once the endpoint has ended)."""
    config = config if config is not None else FobsConfig(ack_frequency=32)
    wire.check_npackets(config.npackets(len(data)))
    if isinstance(data, ObjectFile):
        crc, manifest = data.crc, data.manifest if verify else None
        if verify and (manifest is None
                       or manifest.packet_size != config.packet_size):
            raise ValueError("a verified send needs its source opened "
                             "with this packet size")
    else:
        crc = zlib.crc32(data)
        manifest = (ChunkManifest.from_data(data, config.packet_size)
                    if verify else None)
    tid = transfer_id if transfer_id is not None else derive_transfer_id(
        len(data), crc)
    if policy is None:
        policy = RetryPolicy(max_attempts=max(max_attempts, 1),
                             backoff_base=0.2, seed=tid & 0xFFFF)
    end = transfer.Endpoint()

    def attempt_fn(attempt: int, epoch: int):
        return _send_attempt(
            end, data, crc, host, port, config, timeout,
            wire.SessionContext(tid, epoch),
            kill_for_attempt(kill_plan, attempt), telemetry, manifest,
            drop_rate, corrupt_rate, tid + epoch)

    def turns():
        supervised = yield from TransferSupervisor(policy=policy).turns(
            attempt_fn, npackets=config.npackets(len(data)))
        return supervised_result(supervised, "", len(data))

    end.turns = turns()
    return end


# ----------------------------------------------------------------------
# Receiver
# ----------------------------------------------------------------------

def manifest_for(body: bytes, offer: wire.Offer) -> Optional[ChunkManifest]:
    """Decode a VERIFY body; None — the receiver falls back to the
    whole-object CRC32 — unless it is intact and describes ``offer``."""
    try:
        manifest = ChunkManifest.decode(body)
    except ManifestCorrupt:
        return None
    if (manifest.total_bytes != offer.filesize
            or manifest.packet_size != offer.packet_size):
        return None
    return manifest


def announce_offer(nbytes: int, crc: int, config: FobsConfig, ack_port: int,
                   session: wire.SessionContext,
                   manifest: Optional[ChunkManifest] = None) -> bytes:
    """A sender's opening frames: the OFFER of ``session``, then —
    ahead of the peer's RESUME reply (PROTOCOL.md §10), so the receiver
    holds the digests before it decides which journal-claimed packets
    to trust — the VERIFY frame carrying ``manifest``."""
    flags = (wire.FLAG_RESUME
             | (wire.FLAG_CHECKSUM if config.checksum else 0)
             | (wire.FLAG_VERIFY if manifest is not None else 0))
    frames = wire.encode_offer(wire.Offer(
        nbytes, config.packet_size, ack_port, flags, crc,
        session.transfer_id, session.epoch))
    if manifest is not None:
        frames += wire.encode_verify(manifest.encode())
    return frames


def accept_offer(
    offer: wire.Offer,
    config: FobsConfig,
    part: PartFile,
    data_port: int,
    telemetry: Optional[EventBus] = None,
) -> tuple[RecvDriver, bytes]:
    """The receiving end of one negotiated offer.

    Returns its driver, reassembling into ``part`` from whatever the
    journal salvaged, and the reply that starts the sender: RESUME,
    carrying that bitmap and naming ``data_port``.
    """
    receiver_tel = NULL_CHANNEL
    if telemetry is not None and telemetry.enabled:
        receiver_tel = telemetry.channel(
            transfer_id=offer.transfer_id, epoch=offer.epoch, src="receiver")
    receiver = FobsReceiver(config, offer.filesize,
                            resume_bitmap=part.resume_bitmap,
                            journal=part.journal, epoch=offer.epoch,
                            telemetry=receiver_tel)
    session = wire.SessionContext(offer.transfer_id, offer.epoch)
    driver = RecvDriver(receiver, part.write_at, session, part.channel)
    return driver, wire.encode_resume(
        offer.transfer_id, offer.epoch, data_port, receiver.bitmap.snapshot())


def attempt_config_for(offer: wire.Offer, base: Optional[FobsConfig]) -> FobsConfig:
    """Receiver-side config for one offered transfer.

    Data-plane parameters (packet size, checksumming) come from the
    sender's offer; stall/liveness tuning comes from the local ``base``
    config (or the defaults).
    """
    base = base if base is not None else FobsConfig(ack_frequency=32)
    return FobsConfig(
        packet_size=offer.packet_size,
        ack_frequency=base.ack_frequency,
        checksum=bool(offer.flags & wire.FLAG_CHECKSUM),
        stall_timeout=base.stall_timeout,
        stall_abort_after=base.stall_abort_after,
        receiver_idle_timeout=base.receiver_idle_timeout,
        ack_refresh_interval=base.ack_refresh_interval,
    )


def receive_offer(
    end: transfer.Endpoint,
    ctrl: socket.socket,
    decoder: wire.ControlDecoder,
    peer: tuple[str, int],
    offer: wire.Offer,
    output_path: str,
    deadline: float,
    config: Optional[FobsConfig] = None,
    journal_path: Optional[str] = None,
    bind: str = "0.0.0.0",
    telemetry: Optional[EventBus] = None,
    opener=open,
    tuning: Optional["TuningConfig"] = None,
    stats_interval: float = 0.0,
) -> Generator[float, None, FileTransferResult]:
    """Serve one already-negotiated offer as the receiving endpoint
    ``end``, in its turns.

    The shared receive path of :func:`receive_file` (push: a sender
    connected to us) and :func:`repro.server.fetch_file` (pull: we
    connected and the server offered) — journal management, the
    crash-persistent ``.part`` reassembly buffer, the transfer loop,
    the verify passes, the completion signal and the atomic rename all
    live here.  ``decoder`` is the one ``offer`` was read from the
    non-blocking ``ctrl`` through.

    When ``offer.verify`` is set the VERIFY frame is read from ``ctrl``
    and two audits run: journal-claimed chunks *before* the RESUME reply
    (verify-on-resume, so corrupt disk never re-enters the bitmap) and
    the whole object before completion (verify-on-complete).  Corrupt
    chunks are durably demoted and the attempt fails *retryably* — the
    next attempt re-fetches only the demoted gap.  Without a manifest
    the whole-object CRC32 is the fallback: a mismatch demotes every
    claimed packet instead of raising, so a peer that sent no manifest
    self-repairs rather than loop on a poisoned journal.  Disk faults (ENOSPC/EIO)
    surface as ``storage fault`` failures, never exceptions.

    The peer says nothing between its offer and our completion signal,
    so ``ctrl`` is polled each turn: its end or reset is a dead peer
    and fails the attempt as ``control connection lost`` at once (UDP
    silence alone still takes ``receiver_idle_timeout``).

    ``opener`` is the part-file factory (``open``-compatible) — the
    seam host-fault injection plugs into.  A write through it that
    raises :class:`~repro.runtime.driver.EndpointKilled` is a receiver
    crash: the journal's unflushed run is lost and the endpoint dies.
    """
    attempt_config = attempt_config_for(offer, config)
    manifest = None
    if offer.verify:
        try:
            frame = wire.expect(
                (yield from transfer.reading(end, ctrl, decoder, deadline)),
                wire.Verify)
        except (OSError, ValueError) as exc:
            return FileTransferResult(
                output_path, offer.filesize, 1e-9, 0.0, False,
                completed=False, failure_reason=f"bad verify frame: {exc}")
        manifest = manifest_for(frame.manifest, offer)
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=offer.transfer_id,
                                    epoch=offer.epoch, src="runtime")
        channel.emit(EV_TRANSFER_START, nbytes=offer.filesize,
                     npackets=attempt_config.npackets(offer.filesize),
                     packet_size=offer.packet_size,
                     ack_frequency=attempt_config.ack_frequency,
                     backend="runtime", role="receiver")
    else:
        channel = NULL_CHANNEL
    start = time.monotonic()
    part = PartFile(
        output_path, offer.filesize, offer.packet_size, offer.crc,
        offer.transfer_id, journal_path=journal_path, manifest=manifest, opener=opener,
        channel=channel)
    receiver: Optional[FobsReceiver] = None
    failure = part.fault
    data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    ack_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        if failure is None:
            data_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            transfer.accept_trains(data_sock)
            data_sock.bind((bind, 0))
            data_sock.setblocking(False)
            driver, reply = accept_offer(offer, attempt_config, part,
                                         data_sock.getsockname()[1],
                                         telemetry)
            receiver = driver.receiver
            yield from transfer.writing(end, ctrl, reply, deadline)
            ack_addr = (peer[0], offer.ack_port)
            progress = _progress_tick(offer, receiver, telemetry, tuning,
                                      stats_interval)

            def tick(now: float) -> None:
                if now > deadline:
                    raise TimeoutError("transfer deadline exceeded")
                try:
                    frame = wire.read_frame(ctrl, decoder)
                    if frame is not None:
                        raise ValueError(f"{type(frame).__name__} frame")
                except ValueError as exc:
                    raise ConnectionError(f"peer broke protocol: {exc}")
                if progress is not None:
                    progress(now)

            end.reads, end.writes = [data_sock, ctrl], ()
            failure = yield from transfer.receiver_turns(
                driver, data_sock,
                lambda ack: ack_sock.sendto(ack, ack_addr), tick)
        if failure is None:
            # The receiver's bitmap says every packet arrived; the disk
            # gets the last word before the object is published.
            failure = part.publish()
    except EndpointKilled:
        # Crash injection fired in the store: abrupt death, the
        # journal's unflushed run lost.
        part.crash()
        raise
    except ConnectionError as exc:
        failure = f"control connection lost: {exc}"
    except TimeoutError:
        failure = "file receive timed out"
    finally:
        part.close()
        data_sock.close()
        ack_sock.close()
        end.reads = end.writes = ()
    ok = failure is None
    duration = max(time.monotonic() - start, 1e-9)
    stats = receiver.stats if receiver is not None else None
    vstats = part.vstats
    outcome = FileTransferResult(
        output_path, offer.filesize, duration,
        offer.filesize * 8.0 / duration if ok else 0.0, ok,
        completed=ok,
        failure_reason=failure,
        resumed_packets=stats.resumed_packets if stats else 0,
        stale_epoch_dropped=stats.stale_epoch_data if stats else 0,
        ranges_demoted=vstats.ranges_demoted,
        packets_demoted=vstats.chunks_corrupt,
        bytes_refetched=vstats.bytes_demoted,
        verify_seconds=vstats.duration,
        storage_faults=int(is_storage_fault(failure)))
    if channel.enabled:
        channel.emit(
            EV_TRANSFER_END, completed=ok, failed=not ok, duration=duration,
            throughput_bps=outcome.throughput_bps,
            resumed_packets=outcome.resumed_packets,
            failure_reason=failure or "")
    if ok:
        # Blessing follows publication: a sender told "delivered" can
        # rely on the object being in place.  Twelve bytes, the only
        # ones in the buffer: one non-blocking send takes them.
        try:
            ctrl.send(wire.encode_completion(receiver.npackets))
        except OSError:
            pass  # sender may already have concluded
    return outcome


def _progress_tick(offer: wire.Offer, receiver: FobsReceiver,
                   telemetry: Optional[EventBus],
                   tuning: Optional["TuningConfig"], stats_interval: float):
    """Per-wakeup hook of a receive: F-tuner and stderr progress lines."""
    if tuning is None and stats_interval <= 0:
        return None
    tuner = None
    if tuning is not None:
        # Receiver-side tuner: the only knob this end owns is the ACK
        # frequency F.
        from repro.tuning import make_tuner

        tuner = make_tuner(tuning, receiver=receiver, telemetry=telemetry,
                           transfer_id=offer.transfer_id)
    start = time.monotonic()
    next_report = start + stats_interval if stats_interval > 0 else None

    def tick(now: float) -> None:
        nonlocal next_report
        if tuner is not None:
            s = receiver.stats
            tuner.poll(now, acked=s.packets_new,
                       sent=s.packets_new + s.packets_duplicate,
                       retrans=s.packets_duplicate)
        if next_report is not None and now >= next_report:
            next_report = now + stats_interval
            line = (f"fetch {offer.transfer_id:#018x}: "
                    f"{int(receiver.bitmap.count)}/{receiver.npackets} "
                    f"pkts t={now - start:.1f}s")
            if tuner is not None:
                rate = tuner.rate_bps
                line += (" tune[rate="
                         + ("unpaced" if rate is None
                            else f"{rate / 1e6:.1f}Mb/s")
                         + f" F={tuner.ack_frequency}"
                         + f" B={tuner.batch_size}"
                         + f" waste={tuner.last_waste:.3f}"
                         + f" stalls={tuner.last_stalls}]")
            print(line, file=sys.stderr)

    return tick


def receive_file(
    output_path: str,
    port: int,
    bind: str = "0.0.0.0",
    timeout: float = 120.0,
    max_attempts: int = 1,
    journal_path: Optional[str] = None,
    config: Optional[FobsConfig] = None,
    opener=open,
) -> FileTransferResult:
    """Accept one file from a :func:`send_file` peer; returns on completion.

    ``max_attempts`` keeps the control port listening across failed
    attempts: when a resumable sender crashes (or the connection is
    lost, or a peer connects and never offers), the receiver's journal
    and ``.part`` file survive and the next connection resumes from
    them.  ``journal_path`` defaults to ``output_path + ".journal"``.
    ``config``, when given, supplies stall/liveness tuning
    (``receiver_idle_timeout``, timeouts); the data-plane parameters
    (packet size, checksumming) always come from the sender's offer.
    """
    end = receive_endpoint(output_path, port, bind, timeout, max_attempts,
                           journal_path, config, opener)
    transfer.run_endpoints([end])
    result: FileTransferResult = end.result
    if not result.completed and max_attempts <= 1:
        raise TimeoutError(f"file receive failed: {result.failure_reason}")
    return result


def receive_endpoint(
    output_path: str,
    port: int,
    bind: str = "0.0.0.0",
    timeout: float = 120.0,
    max_attempts: int = 1,
    journal_path: Optional[str] = None,
    config: Optional[FobsConfig] = None,
    opener=open,
) -> transfer.Endpoint:
    """:func:`receive_file` as an endpoint of
    :func:`~repro.runtime.transfer.run_endpoints`, its control port
    already listening (``port`` 0: ``end.socks[0].getsockname()`` says
    which); its result is the :class:`FileTransferResult`, never raised."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind, port))
    listener.listen(1)
    listener.setblocking(False)
    end = transfer.Endpoint(socks=[listener])

    def turns():
        deadline = time.monotonic() + timeout
        attempts, failure = 0, None
        offered = [FileTransferResult(output_path, 0, 1e-9, 0.0, False,
                                      completed=False)]
        while attempts < max(max_attempts, 1) and time.monotonic() <= deadline:
            attempts += 1
            try:
                ctrl, peer = yield from transfer.accepting(end, listener,
                                                           deadline)
            except TimeoutError:
                failure = "timed out waiting for a sender connection"
                break
            with ctrl:
                decoder = wire.ControlDecoder()
                try:
                    offer = wire.expect((yield from transfer.reading(
                        end, ctrl, decoder, deadline)), wire.Offer)
                except (OSError, ValueError) as exc:
                    # A silent peer's deadline too: a failed attempt.
                    failure = f"bad offer: {exc}"
                    continue
                offered.append((yield from receive_offer(
                    end, ctrl, decoder, peer, offer, output_path, deadline,
                    config=config, journal_path=journal_path, bind=bind,
                    opener=opener)))
                failure = offered[-1].failure_reason
                if failure is None:
                    break
        # The last offer's result, whatever came after it failing.
        return replace(offered[-1], failure_reason=failure, attempts=attempts,
                       **{name: sum(getattr(o, name) for o in offered)
                          for name in _REPAIRS})

    end.turns = turns()
    return end
