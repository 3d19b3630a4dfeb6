"""Point-to-point file transfer over the real-socket FOBS backend.

A minimal session protocol on top of the FOBS data plane, so two
*separate processes* (or machines) can move a file:

1. the receiver listens on a TCP control port;
2. the sender connects and sends a :class:`~repro.runtime.wire.Offer`
   (file size, packet size, its UDP acknowledgement port);
3. the receiver binds a UDP data socket and replies with a
   :class:`~repro.runtime.wire.Accept` carrying the data port;
4. FOBS runs — UDP data one way, UDP bitmap ACKs the other;
5. the receiver sends the completion signal back on the still-open
   TCP control connection and both sides verify a CRC32 of the object.

Crash-resumable sessions (PROTOCOL.md §8) extend step 2/3: a sender
offering ``FLAG_RESUME`` sends the v2 offer — the v1 fields plus a
64-bit transfer id and a 32-bit attempt epoch — and the receiver
answers with a RESUME message instead of the plain accept, carrying
its journal-reconstructed bitmap.  The receiver writes arriving
payloads through to a ``.part`` file and journals every newly
received packet (:class:`~repro.core.journal.ReceiverJournal`), so a
crash on either side loses only unflushed progress; the sender merges
the RESUME bitmap and retransmits only the gap.  Every data/ACK
datagram of a resumable session carries the
:class:`~repro.runtime.wire.SessionContext` extension, so datagrams
from a dead attempt are rejected on arrival.

Used by ``repro send`` / ``repro recv`` (:mod:`repro.server.cli`).
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

import numpy as np

from repro.core.config import FobsConfig
from repro.core.manifest import ChunkManifest, ManifestCorrupt, VerifyStats
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import transfer, wire
from repro.runtime.driver import (
    FaultySend,
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
    """Outcome of one file transfer (either side)."""

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


# ----------------------------------------------------------------------
# Sender
# ----------------------------------------------------------------------

@dataclass
class _SendOutcome:
    """One sender attempt, in the supervisor's duck-typed vocabulary."""

    completed: bool
    duration: float = 0.0
    failure_reason: Optional[str] = None
    crashed: Optional[str] = None
    packets_sent: int = 0
    retransmissions: int = 0
    resumed_packets: int = 0
    stale_epoch_dropped: int = 0


def _send_attempt(
    data: bytes,
    crc: int,
    host: str,
    port: int,
    config: FobsConfig,
    timeout: float,
    session: Optional[wire.SessionContext],
    kill=None,
    telemetry: Optional[EventBus] = None,
    manifest: Optional[ChunkManifest] = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    fault_seed: int = 0,
) -> _SendOutcome:
    """Run one connect→offer→blast attempt; never raises on failure."""
    deadline = time.monotonic() + timeout
    resumable = session is not None
    tid = session.transfer_id if resumable else 0
    epoch = session.epoch if resumable else 0
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
    crashed = None
    try:
        with socket.create_connection((host, port), timeout=timeout) as ctrl:
            ctrl.sendall(announce_offer(
                len(data), crc, config, ack_sock.getsockname()[1], session,
                manifest))
            decoder = wire.ControlDecoder(sender.npackets)
            reply = wire.expect(
                wire.read_frame(ctrl, decoder),
                wire.ResumeInfo if resumable else wire.Accept)
            if resumable:
                if reply.transfer_id != session.transfer_id:
                    raise ValueError("RESUME for a different transfer id")
                if reply.epoch != session.epoch:
                    raise ValueError("RESUME for a different attempt epoch")
                sender.resume_from(reply.bitmap)
            send = transfer.BurstSend(data_sock, (host, reply.data_port))
            if drop_rate or corrupt_rate or kill is not None:
                send = FaultySend(send, drop_rate, corrupt_rate, kill,
                                  fault_seed)
            driver = SendDriver(sender, data, send, session)
            ctrl.setblocking(False)
            start = time.monotonic()
            blessed = False

            def poll_completion() -> Optional[str]:
                nonlocal blessed
                try:
                    frame = wire.read_frame(ctrl, decoder)
                except wire.ControlClosed:
                    # EOF before the completion frame: the receiver
                    # ended its attempt without blessing delivery — its
                    # audit demoted corrupt chunks, or it hit a storage
                    # fault.  Fail this attempt so the retry's RESUME
                    # learns which packets to re-send.
                    return ("control connection closed before completion"
                            " (receiver did not bless delivery)"
                            if resumable else None)
                except OSError:
                    return "control connection lost mid-transfer"
                if frame is not None:
                    wire.expect(frame, wire.Completion)
                    blessed = True
                    driver.on_completion(time.monotonic())
                return None

            end = transfer.Endpoint(
                transfer.sender_turns(driver, ack_sock, poll_completion),
                [ack_sock, data_sock])
            transfer.run_endpoints([end], deadline)
            failure = end.failure_reason
            if end.crashed:
                crashed = "sender"
            if (failure is None and resumable and not blessed
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
        ack_sock.close()
        data_sock.close()
    outcome = _SendOutcome(
        completed=failure is None,
        duration=max(time.monotonic() - start, 1e-9),
        failure_reason=failure,
        crashed=crashed,
        packets_sent=sender.stats.packets_sent,
        retransmissions=sender.stats.retransmissions,
        resumed_packets=sender.stats.resumed_packets,
        stale_epoch_dropped=sender.stats.stale_epoch_acks,
    )
    if channel.enabled:
        channel.emit(
            EV_TRANSFER_END, completed=outcome.completed,
            failed=not outcome.completed, duration=outcome.duration,
            throughput_bps=(sender.total_bytes * 8.0 / outcome.duration
                            if outcome.completed else 0.0),
            wasted_fraction=sender.stats.wasted_fraction(sender.npackets),
            packets_sent=outcome.packets_sent,
            retransmissions=outcome.retransmissions,
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

    With ``resume`` (or ``max_attempts > 1``) the session is resumable:
    each attempt offers the v2 handshake, merges the receiver's RESUME
    bitmap, and frames every datagram with the session extension.  The
    supervisor retries failed attempts with exponential backoff up to
    ``max_attempts``; an exhausted budget *returns* a result with
    ``completed=False`` (it does not raise), so callers can report the
    failure.  The legacy single-shot path (default) is byte-identical
    on the wire to the original protocol and raises on timeout.

    ``verify`` (resumable sessions only) sends the per-chunk digest
    manifest as a VERIFY frame so the receiver can audit its disk and
    demote corrupt chunks for re-fetch instead of delivering them.

    ``drop_rate`` discards that fraction of outgoing data datagrams
    (deterministic RNG) and ``corrupt_rate`` flips one byte in that
    fraction instead — the same sender-side network-chaos knobs as
    :func:`repro.runtime.transfer.run_loopback_transfer`, here for the
    file-transfer stack (``repro.chaos`` composes them with host-side
    storage faults).
    """
    config = config if config is not None else FobsConfig(ack_frequency=32)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise ValueError(f"{path} is empty")
    crc = zlib.crc32(data)
    resumable = resume or max_attempts > 1
    tid = transfer_id if transfer_id is not None else derive_transfer_id(
        len(data), crc)
    if policy is None or not resumable:
        # The legacy single shot is a supervised run of one attempt.
        policy = RetryPolicy(max_attempts=max(max_attempts, 1),
                             backoff_base=0.2, seed=tid & 0xFFFF)
    manifest = (ChunkManifest.from_data(data, config.packet_size)
                if verify and resumable else None)

    def attempt_fn(attempt: int, epoch: int) -> _SendOutcome:
        session = wire.SessionContext(tid, epoch) if resumable else None
        return _send_attempt(data, crc, host, port, config, timeout,
                             session=session,
                             kill=kill_for_attempt(kill_plan, attempt),
                             telemetry=telemetry, manifest=manifest,
                             drop_rate=drop_rate, corrupt_rate=corrupt_rate,
                             fault_seed=tid + epoch)

    supervised = TransferSupervisor(policy=policy).run(
        attempt_fn, npackets=config.npackets(len(data)))
    if not (resumable or supervised.completed):
        raise TimeoutError(f"file send failed: {supervised.failure_reason}")
    final: _SendOutcome = supervised.final
    return FileTransferResult(
        path=path,
        nbytes=len(data),
        duration=final.duration,
        throughput_bps=len(data) * 8.0 / final.duration,
        crc_ok=supervised.completed,
        packets_sent=supervised.total_packets_sent,
        packets_retransmitted=sum(
            r.retransmissions for r in supervised.attempt_records),
        completed=supervised.completed,
        failure_reason=supervised.failure_reason,
        attempts=supervised.attempts,
        resumed_packets=supervised.packets_salvaged,
        stale_epoch_dropped=supervised.stale_epoch_dropped,
    )


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
                   session: Optional[wire.SessionContext] = None,
                   manifest: Optional[ChunkManifest] = None) -> bytes:
    """A sender's opening frames: the OFFER (v2 iff there is a session),
    then — ahead of the peer's RESUME reply (PROTOCOL.md §10), so the
    receiver holds the digests before it decides which journal-claimed
    packets to trust — the VERIFY frame carrying ``manifest``."""
    flags = ((wire.FLAG_CHECKSUM if config.checksum else 0)
             | (wire.FLAG_RESUME if session is not None else 0)
             | (wire.FLAG_VERIFY if manifest is not None else 0))
    tid, epoch = ((session.transfer_id, session.epoch)
                  if session is not None else (0, 0))
    frames = wire.encode_offer(wire.Offer(
        nbytes, config.packet_size, ack_port, flags, crc, tid, epoch))
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
    journal salvaged, and the reply that starts the sender: RESUME
    (carrying that bitmap) for a resumable offer, the plain ACCEPT
    otherwise, either naming ``data_port``.
    """
    receiver_tel = NULL_CHANNEL
    if telemetry is not None and telemetry.enabled:
        receiver_tel = telemetry.channel(
            transfer_id=offer.transfer_id, epoch=offer.epoch, src="receiver")
    receiver = FobsReceiver(config, offer.filesize,
                            resume_bitmap=part.resume_bitmap,
                            journal=part.journal, epoch=offer.epoch,
                            telemetry=receiver_tel)
    session = (wire.SessionContext(offer.transfer_id, offer.epoch)
               if offer.resumable else None)
    driver = RecvDriver(receiver, part.write_at, session, part.channel)
    if session is None:
        return driver, wire.encode_accept(data_port)
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
) -> tuple[bool, Optional[str], Optional[FobsReceiver], float, VerifyStats]:
    """Serve one already-negotiated offer as the receiving endpoint.

    The shared receive path of :func:`receive_file` (push: a sender
    connected to us) and :func:`repro.server.fetch_file` (pull: we
    connected and the server offered) — journal management, the
    crash-persistent ``.part`` reassembly buffer, the transfer loop,
    the verify passes, the completion signal and the atomic rename all
    live here.  ``decoder`` is the one ``offer`` was read from ``ctrl``
    through.  Returns ``(ok, failure_reason, receiver, duration,
    verify_stats)``.

    When ``offer.verify`` is set the VERIFY frame is read from ``ctrl``
    and two audits run: journal-claimed chunks *before* the RESUME reply
    (verify-on-resume, so corrupt disk never re-enters the bitmap) and
    the whole object before completion (verify-on-complete).  Corrupt
    chunks are durably demoted and the attempt fails *retryably* — the
    next attempt re-fetches only the demoted gap.  Without a manifest
    the whole-object CRC32 is the fallback: a mismatch demotes every
    claimed packet instead of raising, so even legacy peers self-repair
    rather than loop on a poisoned journal.  Disk faults (ENOSPC/EIO)
    surface as ``storage fault`` failures, never exceptions.

    The peer says nothing between its offer and our completion signal,
    so ``ctrl`` is polled each turn: its end or reset is a dead peer
    and fails the attempt as ``control connection lost`` at once (UDP
    silence alone still takes ``receiver_idle_timeout``).

    ``opener`` is the part-file factory (``open``-compatible) — the
    seam host-fault injection plugs into.
    """
    attempt_config = attempt_config_for(offer, config)
    manifest = None
    if offer.verify:
        try:
            frame = wire.expect(wire.read_frame(ctrl, decoder), wire.Verify)
        except (ConnectionError, ValueError) as exc:
            return (False, f"bad verify frame: {exc}", None, 1e-9,
                    VerifyStats())
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
        transfer_id=offer.transfer_id if offer.resumable else None,
        journal_path=journal_path, manifest=manifest, opener=opener,
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
            ctrl.sendall(reply)
            ack_addr = (peer[0], offer.ack_port)
            progress = _progress_tick(offer, receiver, telemetry, tuning,
                                      stats_interval)

            def tick(now: float) -> None:
                try:
                    frame = wire.read_frame(ctrl, decoder)
                    if frame is not None:
                        raise ValueError(f"{type(frame).__name__} frame")
                except ValueError as exc:
                    raise ConnectionError(f"peer broke protocol: {exc}")
                if progress is not None:
                    progress(now)

            end = transfer.Endpoint(
                transfer.receiver_turns(
                    driver, data_sock,
                    lambda ack: ack_sock.sendto(ack, ack_addr), tick),
                [data_sock, ack_sock])
            # Non-blocking from here on: polled each turn, and the one
            # write left is the 12-byte completion signal.
            ctrl.setblocking(False)
            transfer.run_endpoints([end], deadline)
            failure = end.failure_reason
        if failure is None:
            # The receiver's bitmap says every packet arrived; the disk
            # gets the last word before the object is published.
            failure = part.publish()
    except ConnectionError as exc:
        failure = f"control connection lost: {exc}"
    except TimeoutError:
        failure = "file receive timed out"
    finally:
        part.close()
        data_sock.close()
        ack_sock.close()
    duration = max(time.monotonic() - start, 1e-9)
    ok = failure is None
    if channel.enabled:
        channel.emit(
            EV_TRANSFER_END, completed=ok, failed=not ok, duration=duration,
            throughput_bps=offer.filesize * 8.0 / duration if ok else 0.0,
            resumed_packets=(receiver.stats.resumed_packets
                             if receiver is not None else 0),
            failure_reason=failure or "")
    if ok:
        # Blessing follows publication: a sender told "delivered" can
        # rely on the object being in place.
        try:
            ctrl.sendall(wire.encode_completion(receiver.npackets))
        except OSError:
            pass  # sender may already have concluded
    return ok, failure, receiver, duration, part.vstats


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
    ready: Optional[threading.Event] = None,
    max_attempts: int = 1,
    journal_path: Optional[str] = None,
    config: Optional[FobsConfig] = None,
    opener=open,
) -> FileTransferResult:
    """Accept one file from a :func:`send_file` peer; returns on completion.

    ``ready`` (a :class:`threading.Event`), when given, is set once the
    control port is listening — lets tests start the sender without
    racing the bind.

    ``max_attempts`` keeps the control port listening across failed
    attempts: when a resumable sender crashes (or the connection is
    lost), the receiver's journal and ``.part`` file survive and the
    next connection resumes from them.  ``journal_path`` defaults to
    ``output_path + ".journal"``.  ``config``, when given, supplies
    stall/liveness tuning (``receiver_idle_timeout``, timeouts); the
    data-plane parameters (packet size, checksumming) always come from
    the sender's offer.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((bind, port))
    listener.listen(1)
    listener.settimeout(timeout)
    if ready is not None:
        ready.set()
    deadline = time.monotonic() + timeout

    attempts = 0
    ok = False
    failure: Optional[str] = None
    receiver: Optional[FobsReceiver] = None
    offer: Optional[wire.Offer] = None
    duration = 1e-9
    vtotal = VerifyStats()
    storage_faults = 0
    try:
        while attempts < max(max_attempts, 1):
            attempts += 1
            try:
                ctrl, peer = listener.accept()
            except socket.timeout:
                failure = "timed out waiting for a sender connection"
                break
            with ctrl:
                ctrl.settimeout(timeout)
                decoder = wire.ControlDecoder()
                try:
                    offer = wire.expect(wire.read_frame(ctrl, decoder),
                                        wire.Offer)
                except (ConnectionError, ValueError) as exc:
                    failure = f"bad offer: {exc}"
                    continue
                ok, failure, receiver, duration, vstats = receive_offer(
                    ctrl, decoder, peer, offer, output_path, deadline,
                    config=config, journal_path=journal_path, bind=bind,
                    opener=opener)
                vtotal.merge(vstats)
                if is_storage_fault(failure):
                    storage_faults += 1
                if ok or time.monotonic() > deadline:
                    break
    finally:
        listener.close()
    if not ok and max_attempts <= 1:
        raise TimeoutError(f"file receive failed: {failure}")
    nbytes = offer.filesize if offer is not None else 0
    return FileTransferResult(
        path=output_path,
        nbytes=nbytes,
        duration=duration,
        throughput_bps=nbytes * 8.0 / duration if ok else 0.0,
        crc_ok=ok,
        completed=ok,
        failure_reason=failure,
        attempts=attempts,
        resumed_packets=(receiver.stats.resumed_packets
                         if receiver is not None else 0),
        stale_epoch_dropped=(receiver.stats.stale_epoch_data
                             if receiver is not None else 0),
        ranges_demoted=vtotal.ranges_demoted,
        packets_demoted=vtotal.chunks_corrupt,
        bytes_refetched=vtotal.bytes_demoted,
        verify_seconds=vtotal.duration,
        storage_faults=storage_faults,
    )
