"""The paper's two loops, written once and socket-free.

Every real-socket backend — the loopback endpoints
(:mod:`repro.runtime.transfer`), the file-transfer endpoints
(:mod:`repro.runtime.files`) and the daemon's multiplexed pump
(:mod:`repro.server.daemon`) — drives the sans-IO core through the
classes here and owns nothing but its sockets and its clock:

* :class:`SendDriver` is the sender loop of Section 3.1 as a
  non-blocking ``step(now) -> seconds_until_wakeup``: stall / probe /
  abort, pacing, one burst-codec pass per batch, the tuner hooks.
  Acknowledgement datagrams and the completion signal are pushed in.
* :class:`RecvDriver` is the receiver loop of Section 3.2 as
  ``on_burst(train, now) -> [ack_bytes]``: decode the train, store
  each run of new packets in one call at ``seq * packet_size`` (a
  duplicate is never stored), then mark the train in one core call
  that builds the bitmap acknowledgements falling due.
* :class:`PartFile` is the crash-persistent ``.part`` + journal
  lifecycle a file-backed receiver wraps around that loop, and
  :class:`ObjectFile` the object a file-backed sender serves from its
  file as it sends.

The seam is two callables and a number: ``send(train) -> n_sent``
writes a :class:`~repro.runtime.wire.Train` of encoded datagrams and
says how many of them it took, ``write_at(offset,
payload)`` stores the payloads of consecutive packets from the one at
``offset``, and the caller passes ``now``.  Network
chaos is :class:`FaultySend` around ``send`` — the network twin of
:class:`repro.chaos.FaultyStore` — so the loops carry no fault code.
"""

from __future__ import annotations

import errno
import os
import time
import zlib
from typing import Callable, Iterator, Optional, Sequence

from repro.core.journal import ReceiverJournal
from repro.core.manifest import (
    VERIFY_READ_BYTES,
    ChunkManifest,
    VerifyStats,
    corrupt_ranges,
)
from repro.core.receiver import FobsReceiver
from repro.core.recordlog import kill_file
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.telemetry import (
    EV_CORRUPTION,
    EV_REPAIR,
    EV_STORAGE_FAULT,
    EV_VERIFY,
    NULL_CHANNEL,
    TelemetryChannel,
)

#: Longest pacing sleep ``step`` asks for: a rate raise applied
#: mid-sleep (allocator or tuner) would otherwise sit unused until a
#: stale, possibly long, sleep ends.
PACING_CLAMP = 0.02
#: Re-poll interval while nothing can be written: the socket is full,
#: or every packet is out and only an ACK or the completion can help.
IDLE_WAIT = 0.002
#: How far below zero the pacing debt may go: what a wakeup that came
#: late may send at once (a selector that rounds a 150 us wait up to
#: 1 ms owes 110 KB at 900 Mb/s).
PACING_CREDIT = 128 * 1024
#: The follower compares packets sent with packets the receiver reports
#: over windows at least this long, closed when an ACK arrives ...
FOLLOW_WINDOW = 0.004
#: ... less what the edges explain: two batches in flight or not yet
#: acknowledged.
FOLLOW_SLACK = 32
#: Outrun: more than this many packets sent per packet delivered.  Then
#: pace at FOLLOW_MATCH times what was delivered, and multiply the
#: allowance by FOLLOW_RAISE per window that delivered everything.
FOLLOW_OUTRUN = 1.15
FOLLOW_MATCH = 1.05
FOLLOW_RAISE = 1.25
#: A cut cured nothing if the next window still sends this share of
#: the cut window's packets per packet delivered.
FOLLOW_CURED = 0.95

Send = Callable[[wire.Train], int]


class EndpointKilled(Exception):
    """Crash injection fired: the endpoint dies abruptly, mid-whatever."""


class FaultySend:
    """Seeded network chaos around a ``send(train) -> n_sent`` callable.

    ``drop_rate`` discards that fraction of datagrams (wide-area loss),
    ``corrupt_rate`` flips one byte in a *copy* of that fraction (the
    receiver's CRC must reject them; the shared burst buffer and the
    source object are never touched), and ``kill`` ends the endpoint
    with :class:`EndpointKilled` once exactly ``kill.after_packets``
    datagrams have left it.  The pattern repeats for a seed.
    """

    def __init__(self, send: Send, drop_rate: float = 0.0,
                 corrupt_rate: float = 0.0, kill=None, seed: int = 0):
        self._send = send
        self.drop_rate = drop_rate
        self.corrupt_rate = corrupt_rate
        self.kill = kill
        # Made before the first draw: a FaultySend that only kills
        # needs no NumPy.
        self._seed = seed
        self._drop_rng = self._corrupt_rng = None
        #: Datagrams this endpoint has sent (dropped ones included: the
        #: network lost them, the endpoint did send them).
        self.sent = 0

    def _rngs(self) -> None:
        import numpy as np

        self._drop_rng = np.random.default_rng(self._seed + 1)
        self._corrupt_rng = np.random.default_rng(self._seed + 2)

    def __call__(self, train: Sequence) -> int:
        """Judge ``train`` datagram by datagram; each that survives
        leaves as a train of its own."""
        if self._drop_rng is None and (self.drop_rate or self.corrupt_rate):
            self._rngs()
        for taken, view in enumerate(train):
            if self.kill is not None and self.kill.should_fire(self.sent):
                self.kill.fire(time.monotonic())
                raise EndpointKilled(
                    f"sender killed by crash injection after "
                    f"{self.sent} data packets")
            if not (self.drop_rate
                    and self._drop_rng.random() < self.drop_rate):
                if (self.corrupt_rate
                        and self._corrupt_rng.random() < self.corrupt_rate):
                    damaged = bytearray(view)
                    damaged[int(self._corrupt_rng.integers(len(damaged)))] \
                        ^= 0xFF
                    view = damaged
                if not self._send(wire.Train.of((view,))):
                    return taken
            self.sent += 1
        return len(train)


class SendDriver:
    """The FOBS sender loop over one ``send`` callable."""

    def __init__(self, sender: FobsSender, source, send: Send,
                 session: wire.SessionContext, tuner=None):
        self.sender = sender
        self.send = send
        self.session = session
        #: Optional :class:`repro.tuning.TransferTuner`.
        self.tuner = tuner
        #: The object: bytes in memory, or an :class:`ObjectFile` read as
        #: it is sent.
        self.source = source
        #: Encoded datagrams ``send`` has not taken yet, oldest first.
        self._tail: Optional[wire.Train] = None
        #: Datagrams on the ACK socket that were no acknowledgement at
        #: all: counted and dropped.
        self.undecodable = 0
        #: Pacing: wire bytes not yet paid for by elapsed time when the
        #: last batch left, at ``_debt_at``.  Time since pays at the
        #: *current* rate (a re-fed rate applies to the wait in
        #: progress); a batch that left late left the debt negative,
        #: down to ``-PACING_CREDIT``.
        self._debt = self._debt_at = 0.0
        self._bytes_out = 0
        #: The follower (flow control against this receiver, fed by its
        #: ACKs): the rate matched to its drain rate, None while it
        #: keeps up; ``step`` paces at the lower of this and
        #: ``sender.pacing_rate_bps`` (allocator share, tuner ceiling).
        self._matched: Optional[float] = None
        #: The open window — (opened at, packets sent, receiver's count)
        #: then — the newest ACK id seen, and whether the matched rate
        #: has made ``step`` wait in it.
        self._window: Optional[tuple] = None
        self._ack_id = -1
        self._bound = False
        #: Packets sent per packet delivered in the window the last cut
        #: answered (0 = judged); windows left before the next cut may
        #: be tried, and how many an undone cut will cost.
        self._cut = 0.0
        self._hold, self._next_hold = 0, 1

    def on_ack_datagram(self, datagram, now: float) -> None:
        """Phase 2: merge one acknowledgement datagram.

        Callers push in *every* datagram queued on their socket before
        the next :meth:`step`, so a stale bitmap never steers packet
        selection.  Damaged, stale-session and undecodable datagrams
        only move their counters.  The CRC covers the bitmap alone, so
        an ACK whose header names another number of packets is counted
        as damaged too, before the sender sees it.
        """
        sender = self.sender
        try:
            ack = wire.decode_ack(datagram, checksum=sender.config.checksum,
                                  session=self.session)
        except wire.ChecksumError:
            sender.on_corrupt_ack()
            return
        except (wire.StaleEpochError, wire.SessionMismatchError):
            sender.on_stale_ack()
            return
        except ValueError:
            # No acknowledgement at all (a stray datagram on the port).
            self.undecodable += 1
            return
        if ack.npackets != sender.npackets:
            sender.on_corrupt_ack()
            return
        sender.on_ack(ack, now)
        if ack.ack_id > self._ack_id:
            self._ack_id = ack.ack_id
            self._follow(ack.received_count, now)

    def _follow(self, received: int, now: float) -> None:
        """Close the window if it is long enough, and decide: a
        receiver that got everything has the allowance raised (to what
        it just drained, if more; dropped, if it held nothing back),
        one outrun is matched — but a cut that left the loss per packet
        delivered where it was met loss the rate does not explain: it
        is undone and not tried again for a doubling number of windows."""
        sent = self.sender.stats.packets_sent
        if self._window is not None:
            opened_at, sent0, received0 = self._window
            elapsed = now - opened_at
            if elapsed < FOLLOW_WINDOW:
                return
            got = received - received0
            excess = sent - sent0 - FOLLOW_SLACK
            outrun = excess > FOLLOW_OUTRUN * got
            drained = ((FOLLOW_MATCH * got + FOLLOW_SLACK)
                       * self._bytes_out / max(sent, 1) * 8.0 / elapsed)
            cut, self._cut = self._cut, 0.0
            if cut and excess >= FOLLOW_CURED * cut * got:
                self._matched, self._hold = None, self._next_hold
                self._next_hold *= 2
            elif not outrun:
                if cut:
                    self._next_hold = 1
                if self._matched is not None and excess <= got:
                    self._matched = (
                        max(self._matched * FOLLOW_RAISE, drained)
                        if self._bound else None)
            elif self._hold:
                self._hold -= 1
            elif got > 0:
                self._matched, self._cut = drained, excess / got
        self._window = (now, sent, received)
        self._bound = False

    def on_completion(self, now: float) -> None:
        """The completion signal arrived on the control connection."""
        self.sender.on_completion(now)

    def step(self, now: float) -> float:
        """Phases 1 and 3: pick and send at most one batch.

        Returns the seconds until the caller should call again (0.0 =
        at once).  The caller checks ``sender.complete`` /
        ``sender.failed`` afterwards: a stall abort or a synthesized
        completion ends the transfer from in here.
        """
        sender = self.sender
        if self.tuner is not None:
            # Polled on the clock, not per ACK: a path gone silent must
            # still close epochs for the controller to see the stall.
            self.tuner.on_ack(sender, now)
        if self._tail:
            self._tail = self._tail.after(self.send(self._tail))
            if self._tail:
                return IDLE_WAIT
        stall = sender.poll_stall(now)
        if sender.complete or sender.failed:
            return 0.0
        if stall == "wait":
            return sender.stall_wait_hint(now)
        rate = sender.pacing_rate_bps
        if self._matched is not None and (rate is None
                                          or self._matched < rate):
            rate = self._matched
        if rate is not None:
            wait = self._debt_at + self._debt * 8.0 / rate - now
            if wait > 0.0:
                self._bound = self._bound or rate == self._matched
                return min(wait, PACING_CLAMP)
        seqs, transmissions = (sender.select_probe() if stall == "probe"
                               else sender.select_batch())
        if not seqs:
            return IDLE_WAIT
        if self.tuner is not None:
            self.tuner.maybe_probe(seqs[0], now)
        # One codec pass for the whole batch, written from the object
        # into one buffer, handed to ``send`` as one train.
        try:
            train = wire.encode_data_burst(
                seqs, transmissions, self.source, sender.config.packet_size,
                checksum=sender.config.checksum, session=self.session)
        except OSError as exc:
            # The object's file changed, shrank or failed under the send.
            sender.failed = True
            sender.failure_reason = (
                str(exc) if isinstance(exc, SourceChanged)
                else storage_fault(NULL_CHANNEL, "source", exc))
            return 0.0
        sent = self.send(train)
        self._tail = train.after(sent) if sent < len(train) else None
        nbytes = train.nbytes
        self._bytes_out += nbytes
        # ``wait`` <= 0 is how late this batch left: credit, bounded.
        # An unpaced batch leaves none, to the rate that comes next.
        self._debt = 0.0 if rate is None else max(
            wait * rate / 8.0, -PACING_CREDIT) + nbytes
        self._debt_at = now
        return IDLE_WAIT if self._tail else 0.0


class RecvDriver:
    """The FOBS receiver loop over one ``write_at`` callable."""

    def __init__(self, receiver: FobsReceiver,
                 write_at: Callable[[int, object], None],
                 session: wire.SessionContext,
                 channel: TelemetryChannel = NULL_CHANNEL):
        self.receiver = receiver
        self.write_at = write_at
        self.session = session
        self.channel = channel
        # Per-datagram constants, read once (the config is frozen).
        self._checksum = receiver.config.checksum
        self._psize = receiver.config.packet_size
        self._tail = (receiver.total_bytes
                      - (receiver.npackets - 1) * self._psize)
        #: Typed ``storage fault`` reason once the store (or journal)
        #: raised; the caller fails the *attempt*, not the process.
        self.fault: Optional[str] = None
        #: Datagrams that were no data packet at all: counted, dropped.
        self.undecodable = 0
        #: The last train :meth:`decode` read, and what it read.
        self._decoded: Optional[tuple] = None

    def decode(self, train) -> tuple[list, list]:
        """``train``'s decode, made once: a caller may look at it (the
        daemon routes a train by it) before handing the same train to
        :meth:`on_burst`, which then reads it no second time."""
        if self._decoded is None or self._decoded[0] is not train:
            self._decoded = (train, *wire.decode_data_burst(
                train, checksum=self._checksum, session=self.session))
        return self._decoded[1], self._decoded[2]

    def on_burst(self, train, now: float) -> list[bytes]:
        """Process one train of data datagrams (a
        :class:`~repro.runtime.wire.Train`, or any sequence of
        datagrams), in order; returns the ACK bytes to transmit, in
        order.

        One codec pass for the train, one store call per run —
        consecutive new packets, their payloads joined — then one call
        into the receiver core per train to mark what was stored and
        build the acknowledgements that fall due.  A datagram whose
        packet is already marked is a duplicate: counted, never stored,
        so a retransmission cannot re-tear good bytes.  Damaged,
        stale-epoch and foreign-session datagrams, and ones whose
        geometry is not this object's, only move their counters and
        never reach the store — or take their neighbours down.  Stops
        at the run whose store call faulted (nothing of it is marked)
        or after the datagram that left the object complete.  One that
        is no data packet at all (a stray datagram on the port) is
        counted in :attr:`undecodable` and dropped.
        """
        receiver = self.receiver
        flags = receiver.bitmap.flags
        psize, npackets = self._psize, receiver.npackets
        last, tail = npackets - 1, self._tail
        results, errors = self.decode(train)
        self._decoded = None
        rejects = iter(errors)
        acks: list[bytes] = []
        # Valid packets since the last mark, in order: the new ones are
        # stored, or gathered in ``run`` — payloads of [start, end),
        # whose first is seqs[at].  Every unmarked one is below end.
        seqs: list[int] = []
        run: list = []
        start = end = at = 0
        # New packets the object still lacks beyond those in seqs: the
        # one that brings it to 0 completes the object.
        room = receiver.bitmap.missing
        ended = False
        for result in results:
            if result is None:
                _index, exc = next(rejects)
                if isinstance(exc, wire.ChecksumError):
                    # Damaged in flight; the sender re-sends it.
                    receiver.on_corrupt_data(now)
                elif isinstance(exc, (wire.StaleEpochError,
                                      wire.SessionMismatchError)):
                    # Zombie datagram from a dead attempt.
                    receiver.on_stale_data(0)
                else:
                    self.undecodable += 1
            else:
                seq, total, _transmission, payload = result
                if (total != npackets or len(payload) != (
                        psize if seq != last else tail)):
                    # Would land outside its own packet's bytes.
                    receiver.on_corrupt_data(now)
                else:
                    if seq < end:
                        # It may repeat one this train has not marked:
                        # store and mark those first, so the flags tell.
                        ended = self._settle(start, run, seqs, at, now,
                                             acks)
                        if ended:
                            break
                        seqs, run, end = [], [], 0
                    if not flags[seq]:
                        if seq != end or not run:
                            if run and not self._store(start, run, seqs,
                                                       at, now, acks):
                                ended = True
                                break
                            start, at, run = seq, len(seqs), []
                        run.append(payload)
                        end = seq + 1
                        room -= 1
                    seqs.append(seq)
            if not room:
                break
        if not ended and seqs:
            self._settle(start, run, seqs, at, now, acks)
        return acks

    def _store(self, start: int, run: list, seqs: list, at: int,
               now: float, acks: list) -> bool:
        """Data before log: the run's payloads go to the store in one
        call.  False once that raised: the fault is recorded, and what
        came before the run is marked but nothing of the run."""
        try:
            self.write_at(start * self._psize,
                          run[0] if len(run) == 1 else b"".join(run))
        except OSError as exc:
            self._mark(seqs[:at], now, acks)
            if self.fault is None:
                self.fault = storage_fault(self.channel, "part", exc)
            return False
        return True

    def _settle(self, start: int, run: list, seqs: list, at: int,
                now: float, acks: list) -> bool:
        """Store the gathered run, then mark ``seqs``.  True when that
        ended the receive: a fault, or the object is complete."""
        if run and not self._store(start, run, seqs, at, now, acks):
            return True
        return self._mark(seqs, now, acks)

    def _mark(self, seqs: list, now: float, acks: list) -> bool:
        """Mark stored packets; their acknowledgements join ``acks``.
        True when that ended the receive: complete, or a journal fault."""
        try:
            for ack in self.receiver.on_train(seqs, now):
                acks.append(wire.encode_ack(
                    ack, checksum=self._checksum, session=self.session))
        except OSError as exc:
            self.fault = storage_fault(self.channel, "part", exc)
            return True
        return self.receiver.complete

    def on_datagram(self, datagram, now: float) -> Optional[bytes]:
        """:meth:`on_burst` for a train of one."""
        acks = self.on_burst((datagram,), now)
        return acks[0] if acks else None


# ----------------------------------------------------------------------
# The store: typed disk faults, the .part file and its digest audits
# ----------------------------------------------------------------------

#: Failure-reason prefix shared by every disk-fault path; supervisors
#: and the daemon treat these as retryable, ``repro stats`` counts them.
STORAGE_FAULT_PREFIX = "storage fault"


def storage_fault(channel: TelemetryChannel, where: str,
                  exc: OSError) -> str:
    """Type one disk fault (ENOSPC/EIO/...): event out, reason back."""
    name = (errno.errorcode.get(exc.errno, type(exc).__name__)
            if exc.errno else type(exc).__name__)
    if channel.enabled:
        channel.emit(EV_STORAGE_FAULT, error=name, where=where,
                     detail=str(exc))
    return f"{STORAGE_FAULT_PREFIX} [{name}] at {where}: {exc}"


def is_storage_fault(reason: Optional[str]) -> bool:
    return bool(reason) and reason.startswith(STORAGE_FAULT_PREFIX)


class PartFile:
    """The ``.part`` reassembly file and its journal, for one attempt.

    Opening replays the journal of ``transfer_id`` and reopens a
    ``.part`` of the right size ``r+b`` only when that replay succeeded
    — without it nothing on disk is claimed, so the file is recreated.
    With a manifest, every journal-claimed chunk is audited
    *before* the resume bitmap is handed out (verify-on-resume), so a
    torn write or bit rot under a crashed attempt is demoted and
    re-fetched, never resurrected.  :meth:`publish` is verify-on-complete
    plus the rename into place.  Disk faults never escape as exceptions:
    they surface typed, in :attr:`fault` or as the returned failure.

    ``opener`` is the part-file factory (``open``-compatible) — the
    seam host-fault injection plugs into.
    """

    def __init__(self, output_path: str, filesize: int, packet_size: int,
                 crc: int, transfer_id: int,
                 journal_path: Optional[str] = None,
                 manifest: Optional[ChunkManifest] = None, opener=open,
                 channel: TelemetryChannel = NULL_CHANNEL):
        self.output_path = output_path
        self.part_path = output_path + ".part"
        self.journal_path = journal_path or output_path + ".journal"
        self.filesize = filesize
        self.packet_size = packet_size
        self.crc = crc
        self.manifest = manifest
        self.channel = channel
        self.vstats = VerifyStats(
            mode="manifest" if manifest is not None else "crc32")
        self.journal: Optional[ReceiverJournal] = None
        #: Journal-recovered (and audited) bitmap's packed image, or None.
        self.resume_bitmap: Optional[bytes] = None
        self.fault: Optional[str] = None
        self._fh = None
        #: Where the last ``write_at`` left the file position; None once
        #: anything else (an audit's reads) has moved it.
        self._write_end: Optional[int] = None
        #: Whether a write may sit in the part file's buffer.
        self._buffered = False
        try:
            self.journal, replay = ReceiverJournal.open(
                self.journal_path, transfer_id, filesize, packet_size)
            self.journal.before_write = self._flush_part
            resumed = (replay is not None
                       and os.path.exists(self.part_path)
                       and os.path.getsize(self.part_path) == filesize)
            self._fh = opener(self.part_path, "r+b" if resumed else "w+b")
            if not resumed:
                # Pre-size it so writes at any offset land.
                self._fh.truncate(filesize)
            elif manifest is not None and self.journal.bitmap.count:
                self._verify("resume", self.journal.bitmap.received())
            if replay is not None:
                self.resume_bitmap = self.journal.bitmap.snapshot()
        except OSError as exc:
            self.fault = storage_fault(channel, "part-open", exc)
            self.close()

    def write_at(self, offset: int, payload) -> None:
        # A first pass arrives in order, and a seek is a flush and an
        # lseek on a buffered file: only where the last write did not end.
        if offset != self._write_end:
            self._fh.seek(offset)
        self._write_end = None  # a write that raises leaves it unknown
        self._buffered = True
        self._fh.write(payload)
        self._write_end = offset + len(payload)

    def _flush_part(self) -> None:
        """Data before log: the journal calls this before any write that
        claims packets, so bytes still in the part file's buffer reach
        the OS first (once per journal flush, not per run)."""
        if self._buffered:
            self._fh.flush()
            self._buffered = False

    def publish(self) -> Optional[str]:
        """Every packet is marked: the disk gets the last word.

        Verify-on-complete, then the rename into place.  With a
        manifest every chunk is audited and corrupt ones are demoted
        for re-fetch.  Without one, the whole-object CRC32 fallback can
        only detect, not localize: a mismatch demotes *everything* the
        journal claimed — a full restart, but a self-repairing one,
        never silent corruption.  Returns None once the object is in
        place, else the (retryable) failure reason.
        """
        try:
            self._fh.flush()
            if self.manifest is not None:
                corrupt = self._verify("complete", None)
                if corrupt:
                    return (f"verify failed: {corrupt} corrupt chunk(s) "
                            f"demoted for re-fetch")
            elif not self._verify_crc():
                return ("CRC mismatch after reassembly; "
                        "all packets demoted for re-fetch")
        except OSError as exc:
            return storage_fault(self.channel, "readback", exc)
        failure = self.close()
        if failure is None:
            try:
                os.replace(self.part_path, self.output_path)
            except OSError as exc:
                return storage_fault(self.channel, "finalize", exc)
            self.journal.delete()
        return failure

    def _verify_crc(self) -> bool:
        """The no-manifest completion audit: whole-object CRC32, read
        back a bounded window at a time.  A mismatch demotes everything
        the journal claimed."""
        t0 = time.monotonic()
        stats = VerifyStats(phase="complete", mode="crc32", chunks_checked=1)
        self._write_end = None
        self._fh.seek(0)
        crc = nread = 0
        for window in iter(lambda: self._fh.read(VERIFY_READ_BYTES), b""):
            crc = zlib.crc32(window, crc)
            nread += len(window)
        crc_ok = crc == self.crc
        stats.duration = max(time.monotonic() - t0, 1e-9)
        if not crc_ok:
            stats.chunks_corrupt = 1
            stats.bytes_demoted = nread
            claimed = self.journal.bitmap.received()
            stats.ranges_demoted = len(corrupt_ranges(claimed))
            self._demote(claimed)
        self._record(stats, -(-nread // self.packet_size))
        return crc_ok

    def _verify(self, phase: str, seqs) -> int:
        """One digest audit of the part file's chunks ``seqs`` (None =
        the whole object).  Returns the corrupt-chunk count; those
        chunks are demoted.
        """
        t0 = time.monotonic()
        manifest = self.manifest
        stats = VerifyStats(phase=phase, mode="manifest")
        self._write_end = None
        bad = manifest.verify_file(self._fh, seqs)
        stats.chunks_checked = (manifest.npackets if seqs is None
                                else len(seqs))
        stats.chunks_corrupt = len(bad)
        if bad:
            stats.corrupt_seqs = bad
            stats.ranges_demoted = len(corrupt_ranges(bad))
            stats.bytes_demoted = sum(map(manifest.chunk_length, bad))
            self._demote(bad)
        stats.duration = max(time.monotonic() - t0, 1e-9)
        self._record(stats, stats.chunks_corrupt)
        return stats.chunks_corrupt

    def _demote(self, seqs) -> None:
        """Demote ``seqs`` back to unreceived, through the journal so it
        is crash-durable — a kill right after an audit cannot resurrect
        corrupt ranges."""
        if not len(seqs):
            return
        try:
            self.journal.demote(seqs)
        except OSError:
            # The durable demotion (compact) hit a disk fault; the
            # in-memory bitmap is demoted so this attempt behaves
            # correctly, and the next attempt's audit re-detects and
            # re-demotes.  Never let a full disk turn a caught
            # corruption into a crash.
            pass

    def _record(self, stats: VerifyStats, packets_demoted: int) -> None:
        self.vstats.merge(stats)
        channel = self.channel
        if not channel.enabled:
            return
        channel.emit(EV_VERIFY, phase=stats.phase, mode=stats.mode,
                     chunks_checked=stats.chunks_checked,
                     chunks_corrupt=stats.chunks_corrupt,
                     duration=stats.duration)
        if stats.chunks_corrupt:
            channel.emit(EV_CORRUPTION, phase=stats.phase, mode=stats.mode,
                         chunks_corrupt=stats.chunks_corrupt,
                         bytes=stats.bytes_demoted)
            channel.emit(EV_REPAIR, phase=stats.phase,
                         packets_demoted=packets_demoted,
                         ranges_demoted=stats.ranges_demoted,
                         bytes_demoted=stats.bytes_demoted)

    def close(self) -> Optional[str]:
        """Close file and journal (idempotent); a fault comes back typed."""
        failure = None
        self._buffered = False  # closing the part file flushes it first
        for handle, where in ((self._fh, "part-close"),
                              (self.journal, "journal-close")):
            if handle is not None:
                try:
                    handle.close()
                except OSError as exc:
                    failure = failure or storage_fault(self.channel, where,
                                                       exc)
        self._fh = None
        return failure

    def crash(self) -> None:
        """Abrupt death, as SIGKILL: the fds close, and what sat in
        userspace buffers — the journal's unflushed records, the part
        file's unflushed bytes — is lost."""
        if self.journal is not None:
            self.journal.simulate_crash()
        if self._fh is not None:
            kill_file(self._fh)
            self._fh = None


# ----------------------------------------------------------------------
# The source: an object served from its file
# ----------------------------------------------------------------------

class SourceChanged(OSError):
    """The file an object is served from is no longer the one admitted:
    it shrank under a read, or its size, mtime or inode moved."""


def _identity(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ino


#: How far a read of an object's file runs past a span that starts
#: where the last read ended: a first pass goes on in order, so one
#: read serves the next 16 trains of 16 KiB.  Each read and its check
#: release the GIL, and a process that sends beside another transfer
#: thread (a fetch next to a push) waited about 40-80 us for it back per
#: call when every train made both.
READ_AHEAD = 256 * 1024


class ObjectFile:
    """An object served from its file, never copied whole into memory.

    Opening holds an fd and takes the file's size; nothing is read yet.
    One scan, no read larger than
    :data:`~repro.core.manifest.VERIFY_READ_BYTES`, gives the
    whole-object CRC32 the offer announces (:attr:`crc`) and, given
    ``manifest_packet_size``, the chunk manifest of a verified transfer
    (:attr:`manifest`): :meth:`scan` takes it a window per step, so the
    daemon reads a window per turn, and either attribute finishes what
    is left of it at once.  After that the burst
    encoder reads it as it sends (:meth:`window`): one ``os.pread``
    per run of consecutive packets a retransmission pass asks for, and
    one per :data:`READ_AHEAD` of a first pass, so a sender holds a
    window of the object, not a copy of it.  The file's size, mtime and
    inode are taken at open; a read after any of them moved, or one
    that comes back short, raises :class:`SourceChanged` — the sender
    fails by that name, and the receiver's audit keeps torn bytes from
    being published either way (a rewrite inside one tick of the
    kernel's clock leaves the mtime where it was).  Raises
    ``ValueError`` for an empty file.  :meth:`close` it when the
    transfer ends.
    """

    def __init__(self, path: str, manifest_packet_size: Optional[int] = None):
        self.path = os.path.abspath(path)
        self.fd = os.open(self.path, os.O_RDONLY)
        try:
            st = os.fstat(self.fd)
            self._identity = _identity(st)
            self.size = st.st_size
            if not self.size:
                raise ValueError(f"{path} is empty")
        except BaseException:
            self.close()
            raise
        self._crc = 0
        self._manifest: Optional[ChunkManifest] = None
        self._scan = self._scanning(manifest_packet_size)
        #: The last read, and the object offset it starts at.
        self._read, self._read_at = b"", 0

    def __len__(self) -> int:
        return self.size

    def scan(self) -> Iterator[None]:
        """The scan, one window read and digested per step."""
        return self._scan

    @property
    def crc(self) -> int:
        for _step in self._scan:
            pass
        return self._crc

    @property
    def manifest(self) -> Optional[ChunkManifest]:
        for _step in self._scan:
            pass
        return self._manifest

    def _scanning(self, packet_size: Optional[int]) -> Iterator[None]:
        if packet_size is None:
            for _window in self._windows(VERIFY_READ_BYTES):
                yield
        else:
            window = max(1, VERIFY_READ_BYTES // packet_size) * packet_size
            self._manifest = yield from ChunkManifest.digesting(
                self._windows(window), packet_size)

    def _windows(self, window: int):
        """The file a window at a time, its CRC32 folded on the way."""
        for offset in range(0, self.size, window):
            data = self._pread(offset, min(window, self.size - offset))
            self._crc = zlib.crc32(data, self._crc)
            yield data

    def _pread(self, offset: int, length: int) -> bytes:
        """``length`` bytes from ``offset``, no read larger than
        ``VERIFY_READ_BYTES``."""
        data = (os.pread(self.fd, length, offset)
                if length <= VERIFY_READ_BYTES else b"".join(
                    os.pread(self.fd, min(VERIFY_READ_BYTES,
                                          offset + length - at), at)
                    for at in range(offset, offset + length,
                                    VERIFY_READ_BYTES)))
        if len(data) != length:
            raise SourceChanged(f"source shrank: {self.path} ends at byte "
                                f"{offset + len(data)} of {self.size}")
        return data

    def window(self, offset: int, length: int) -> tuple[bytes, int]:
        """A buffer holding ``length`` bytes of the object from
        ``offset``, and the object offset it starts at: the last read if
        it holds them, else a new read, once the file is checked to be
        the one admitted."""
        read, at = self._read, self._read_at
        if not at <= offset <= offset + length <= at + len(read):
            self._check()
            ahead = READ_AHEAD if offset == at + len(read) else 0
            read = self._pread(offset, min(max(length, ahead),
                                           self.size - offset))
            self._read, self._read_at = read, at = read, offset
        return read, at

    def _check(self) -> None:
        try:
            now = _identity(os.stat(self.path))
        except FileNotFoundError:
            now = None
        if now != self._identity:
            moved = ("it was removed" if now is None else ", ".join(
                f"{name} {was} -> {new}" for name, was, new in zip(
                    ("size", "mtime_ns", "inode"), self._identity, now)
                if was != new))
            raise SourceChanged(f"source changed since admission: "
                                f"{self.path} ({moved})")

    def close(self) -> None:
        """Release the fd (idempotent)."""
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def __enter__(self) -> "ObjectFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
