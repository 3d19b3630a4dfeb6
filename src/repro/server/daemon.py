"""The real-socket multi-transfer daemon (``repro serve``).

One process serves many concurrent FOBS transfers, as one endpoint of
:func:`repro.runtime.transfer.run_endpoints` (:meth:`ObjectServer.endpoint`):

* each turn accepts on the TCP control listener, drains **one shared
  UDP data socket** — all fetch DATA out, all fetch ACKs in, all push
  DATA in, routed to their transfer by the session extension
  (:func:`repro.runtime.wire.peek_session` +
  :class:`repro.server.registry.TransferRegistry`) — pumps every send
  and takes one turn of each control connection, itself one generator
  of ``reading``/``writing``/``waiting`` turns;
* admission control (:class:`repro.server.admission.AdmissionController`)
  bounds concurrency: past ``max_active`` a fetch gets an explicit
  QUEUED reply and waits its FIFO turn; past ``queue_depth`` (or a
  per-client cap, or during drain) it gets a REJECT with a reason;
* a bandwidth budget (:class:`repro.server.allocator.BandwidthAllocator`)
  divides the host send rate across active transfers by max-min
  fairness, re-feeding each sender's pacing rate on every admission
  and completion;
* graceful drain: :meth:`ObjectServer.request_drain` (the CLI wires it
  to SIGTERM) stops admissions, rejects the queue, lets active
  transfers finish, then returns.

Fetch protocol (client pulls; PROTOCOL.md §9): the client sends FETCH
(name, flags, attempt epoch, client nonce, rate cap); the server
replies QUEUED/REJECT or an OFFER whose transfer id is the
content-addressed id XOR the client's nonce — so two clients fetching
the same object get disjoint sessions, while one client's retries (and
its receiver journal) see a stable id.  From the OFFER on, the exchange
*is* the existing resumable session: the client answers RESUME with its
data port and journal bitmap, DATA flows out of the shared socket,
bitmap ACKs flow back into it, and the TCP completion signal finishes.

Push: a vanilla :func:`repro.runtime.files.send_file` client can
connect and offer a file.  Its datagrams share the UDP socket, routed
by their session extension like a fetch's; an offer that is not a
resumable session (a v1 OFFER, or one without ``FLAG_RESUME``) is
refused on decode.  A queued push simply waits — the delayed RESUME
is transparent to the vanilla client; a rejected push sees its
connection closed and its supervisor retries with backoff.

The protocol loops are :mod:`repro.runtime.driver`'s: the pump calls
each send entry's ``step(now)`` and the turn yields the smallest wakeup
any of them asked for; the demux pushes every datagram into its entry's
driver.
"""

from __future__ import annotations

import itertools
import math
import os
import socket
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Generator, Iterator, Optional, TextIO

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

import numpy as np

from repro.core.config import FobsConfig
from repro.core.manifest import ChunkManifest
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import files, wire
from repro.runtime.driver import (
    EndpointKilled,
    FaultySend,
    ObjectFile,
    PartFile,
    RecvDriver,
    SendDriver,
)
from repro.runtime.transfer import (
    SEND_BATCH,
    BurstSend,
    Endpoint,
    accept_trains,
    drain,
    reading,
    run_endpoints,
    waiting,
    writing,
)
from repro.server.admission import (
    ADMIT,
    DRAINING,
    FULL,
    QUEUE,
    AdmissionController,
    AdmissionDecision,
)
from repro.server.allocator import BandwidthAllocator
from repro.server.registry import (
    RECEIVING,
    SENDING,
    RegisteredTransfer,
    TransferRegistry,
)
from repro.server.stats import ServerSnapshot, TransferSnapshot
from repro.telemetry import (
    EV_ADMISSION,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    NULL_CHANNEL,
    EventBus,
    SnapshotSink,
    TelemetryChannel,
)

#: Datagrams sent per transfer per pump pass, and read per socket per
#: loop pass: pump and drain take turns, so neither one big send nor a
#: push that floods the shared socket starves the rest of the loop.
_PUMP_QUANTUM = 256
_REJECT_CODES = {
    FULL: wire.REJECT_FULL,
    DRAINING: wire.REJECT_DRAINING,
    "client_cap": wire.REJECT_CLIENT_CAP,
}
_NOT_FOUND = wire.encode_reject(wire.REJECT_NOT_FOUND)


def _expect(frame, kind: type, phase: str):
    """``frame``, which must be a ``kind`` at this ``phase``."""
    if not isinstance(frame, kind):
        raise ValueError(f"{type(frame).__name__} frame while {phase}")
    return frame


class _SendEntry:
    """Server → client transfer (a fetch) on the shared socket."""

    kind = SENDING
    __slots__ = ("key", "transfer_id", "epoch", "sender", "name", "client",
                 "source", "burst", "driver", "started_at", "ok")

    def __init__(self, key, session: wire.SessionContext, sender, client,
                 name, source: Optional[ObjectFile] = None):
        self.key = key
        self.transfer_id, self.epoch = session.transfer_id, session.epoch
        self.sender: FobsSender = sender
        self.name = name
        self.client = client
        #: The object's file, read as it is sent; closed when the
        #: transfer ends.
        self.source = source
        #: Its send onto the shared socket; the address arrives with
        #: the client's RESUME.
        self.burst: Optional[BurstSend] = None
        self.driver: Optional[SendDriver] = None
        self.started_at = 0.0
        #: How it ended (None while it runs): its connection's cue.
        self.ok: Optional[bool] = None


class _RecvEntry:
    """Client → server transfer (a push)."""

    kind = RECEIVING
    __slots__ = ("key", "driver", "receiver", "part", "offer",
                 "transfer_id", "epoch", "name", "client", "started_at",
                 "ok")

    def __init__(self, key, driver, part, client, offer, name):
        self.key = key
        self.driver: RecvDriver = driver
        self.receiver: FobsReceiver = driver.receiver
        self.part: PartFile = part
        self.offer: wire.Offer = offer
        self.transfer_id, self.epoch = offer.transfer_id, offer.epoch
        self.name = name
        self.client = client
        self.started_at = 0.0
        self.ok: Optional[bool] = None


class ObjectServer:
    """A concurrent object-transfer daemon over real sockets."""

    def __init__(
        self,
        root: str,
        port: int = 0,
        bind: str = "0.0.0.0",
        config: Optional[FobsConfig] = None,
        max_active: int = 4,
        queue_depth: int = 8,
        per_client_max: Optional[int] = None,
        rate_budget_bps: Optional[float] = None,
        drain_timeout: float = 30.0,
        stats_interval: float = 0.0,
        stats_out: Optional[TextIO] = None,
        handshake_timeout: float = 15.0,
        kill=None,
        telemetry: Optional[EventBus] = None,
        opener=open,
        tuning: Optional["TuningConfig"] = None,
    ):
        self.root = os.path.abspath(root)
        #: Part-file factory — ``repro.chaos.FaultyStore.open`` slots in
        #: here to put the daemon's disk under fault injection.
        self.opener = opener
        if not os.path.isdir(self.root):
            raise ValueError(f"served root {root!r} is not a directory")
        self.bind = bind
        self.config = config if config is not None else FobsConfig(
            ack_frequency=32, batch_size=SEND_BATCH)
        self.admission = AdmissionController(
            max_active=max_active, queue_depth=queue_depth,
            per_client_max=per_client_max)
        self.allocator = BandwidthAllocator(rate_budget_bps)
        self.registry = TransferRegistry()
        self.drain_timeout = drain_timeout
        self.handshake_timeout = handshake_timeout
        self.kill = kill
        #: Autotune sends (None = fixed-knob sends, the default).
        self.tuning = tuning
        #: Enabled event bus, or None — one check site for every emit.
        self.telemetry = (telemetry if telemetry is not None
                          and telemetry.enabled else None)
        self._server_tel = (self.telemetry.channel(src="server")
                            if self.telemetry is not None else NULL_CHANNEL)
        #: Periodic --stats-interval reporting (stderr unless stats_out
        #: overrides; stdout stays machine-readable).
        self._snapshot_sink: Optional[SnapshotSink] = (
            SnapshotSink(self.stats, stats_interval, out=stats_out,
                         bus=self.telemetry)
            if stats_interval > 0 else None)

        self.port = port           # re-resolved after bind when 0
        self.udp_port = 0
        self.crashed = False
        #: Finished-transfer log: (name, direction, client, ok, reason).
        self.history: list[tuple[str, str, str, bool, Optional[str]]] = []

        self._listener: Optional[socket.socket] = None
        self._udp: Optional[socket.socket] = None
        # Reusable datagram receive buffer shared by every UDP drain
        # (single-threaded event loop; each datagram is fully consumed
        # before the next receive overwrites the buffer).
        self._rxbuf = bytearray(65535)
        #: Every open control connection, one private endpoint each.
        self._conns: list[Endpoint] = []
        self._send_entries: dict[object, _SendEntry] = {}
        self._recv_entries: dict[object, _RecvEntry] = {}
        #: Queued request key -> its connection, until it sees it admitted.
        self._waiting_conns: dict[object, Endpoint] = {}
        self._completed = 0
        self._failed = 0
        self._rejected_other = 0   # NOT_FOUND + queue drained
        self._bytes_sent = 0
        self._bytes_received = 0
        self._started_at = 0.0
        self._stop = False
        self._drain_requested = False
        self._draining = False
        self._drain_deadline = 0.0

    # ------------------------------------------------------------------
    # Lifecycle / external control (thread- and signal-safe: flags only)
    # ------------------------------------------------------------------
    def request_drain(self) -> None:
        """Stop admissions; finish active transfers; then exit."""
        self._drain_requested = True

    def stop(self) -> None:
        """Exit the serve loop at the next tick (abrupt)."""
        self._stop = True

    def stats(self) -> ServerSnapshot:
        """Point-in-time snapshot of the whole daemon."""
        now = time.monotonic()
        transfers = []
        for entry in list(self._send_entries.values()):
            tune: dict = {}
            tuner = entry.driver.tuner
            if tuner is not None:
                tune = dict(
                    tune_rate_bps=tuner.rate_bps,
                    tune_ack_frequency=tuner.ack_frequency,
                    tune_batch_size=tuner.batch_size,
                    waste_ratio=tuner.last_waste,
                    stall_events=tuner.last_stalls)
            transfers.append(TransferSnapshot(
                transfer_id=entry.transfer_id,
                name=entry.name, client=entry.client, direction="send",
                epoch=entry.epoch,
                nbytes=entry.sender.total_bytes,
                npackets=entry.sender.npackets,
                packets_done=int(entry.sender.acked.count),
                share_bps=entry.sender.pacing_rate_bps,
                elapsed=max(now - entry.started_at, 0.0),
                **tune))
        for entry in list(self._recv_entries.values()):
            transfers.append(TransferSnapshot(
                transfer_id=entry.transfer_id,
                name=entry.name, client=entry.client, direction="recv",
                epoch=entry.epoch,
                nbytes=entry.offer.filesize,
                npackets=entry.receiver.npackets,
                packets_done=int(entry.receiver.bitmap.count),
                elapsed=max(now - entry.started_at, 0.0)))
        return ServerSnapshot(
            uptime=max(now - self._started_at, 0.0),
            active=len(self._send_entries) + len(self._recv_entries),
            queued=len(self._waiting_conns),
            completed=self._completed,
            failed=self._failed,
            rejected=self.admission.counters.rejected + self._rejected_other,
            budget_bps=self.allocator.budget_bps,
            draining=self._draining,
            bytes_sent=self._bytes_sent,
            bytes_received=self._bytes_received,
            unknown_transfer_dropped=self.registry.counters.unknown_transfer,
            stale_epoch_dropped=self.registry.counters.stale_epoch,
            transfers=tuple(transfers))

    # ------------------------------------------------------------------
    # The daemon as an endpoint
    # ------------------------------------------------------------------
    def endpoint(self) -> Endpoint:
        """Bind the TCP listener and the shared UDP socket (``port``,
        ``udp_port``); the daemon, until drained, stopped or killed."""
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.bind, self.port))
        self._listener.listen(64)
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._udp.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 21)
        accept_trains(self._udp)
        self._udp.bind((self.bind, 0))
        self._udp.setblocking(False)
        self.udp_port = self._udp.getsockname()[1]
        self._started_at = time.monotonic()
        end = Endpoint(socks=[self._listener, self._udp])
        end.turns = self._turns(end)
        return end

    def serve_forever(self) -> ServerSnapshot:
        """Run until drained (or stopped/killed); returns final stats."""
        run_endpoints([self.endpoint()])
        return self.stats()

    def _turns(self, end: Endpoint) -> Iterator[float]:
        """Each turn yields the pump's wakeup, or a sooner one a control
        connection asked for; their sockets join ``end``'s wait."""
        next_sweep = self._started_at
        try:
            while not self._stop:
                now = time.monotonic()
                if self._drain_requested and not self._draining:
                    self._begin_drain(now)
                if self._draining and now > self._drain_deadline:
                    self._fail_all("drain timeout expired")
                    return
                while True:
                    try:
                        sock, addr = self._listener.accept()
                    except OSError:
                        break
                    sock.setblocking(False)
                    conn = Endpoint()
                    conn.turns = self._control(conn, sock, addr)
                    self._conns.append(conn)
                drain(self._udp, self._route_train, now, self._rxbuf,
                      _PUMP_QUANTUM)
                wait = self._pump(now)
                if now >= next_sweep:  # receiver liveness
                    next_sweep = now + 0.5
                    for entry in list(self._recv_entries.values()):
                        failure = entry.receiver.liveness_failure(
                            now, entry.started_at)
                        if failure is not None:
                            self._finish(entry, ok=False, reason=failure)
                conns, reads, writes = [], [self._listener, self._udp], []
                for conn in self._conns:
                    try:
                        wait = min(wait, next(conn.turns))
                    except StopIteration:
                        continue
                    conns.append(conn)
                    reads += conn.reads
                    writes += conn.writes
                self._conns = conns
                end.reads, end.writes = reads, writes
                if self._snapshot_sink is not None:
                    self._snapshot_sink.maybe_emit(now)
                # Drained? Asked last: this turn may have ended the last.
                if self._draining and not (self._send_entries
                                           or self._recv_entries):
                    return
                yield wait
        except EndpointKilled:
            # Crash injection fired inside the send pump: abrupt death,
            # unflushed journal writes lost.
            self.crashed = True
            for entry in self._recv_entries.values():
                entry.part.crash()
            for entry in self._send_entries.values():
                if entry.source is not None:
                    entry.source.close()
            raise
        finally:
            if not self.crashed:
                self._fail_all("server shut down")
            for conn in self._conns:
                conn.turns.close()

    def _begin_drain(self, now: float) -> None:
        self._draining = True
        self._drain_deadline = now + self.drain_timeout
        for key in self.admission.drain():  # their connections reject
            if self._waiting_conns.pop(key, None) is not None:
                self._rejected_other += 1

    def _fail_all(self, reason: str) -> None:
        for entries in (self._send_entries, self._recv_entries):
            for entry in list(entries.values()):
                self._finish(entry, ok=False, reason=reason)

    # ------------------------------------------------------------------
    # TCP control plane: one generator per connection
    # ------------------------------------------------------------------
    def _control(self, end: Endpoint, sock: socket.socket,
                 addr) -> Iterator[float]:
        """One accepted control connection, as the turns of its private
        ``end``.  A frame that does not decode, does not validate or
        comes where the exchange has no place for it fails this
        connection, with the reason on record, and nothing else."""
        decoder = wire.ControlDecoder()
        deadline = time.monotonic() + self.handshake_timeout
        with sock:
            try:
                request = yield from reading(end, sock, decoder, deadline)
                if isinstance(request, wire.FetchRequest):
                    started = yield from self._admit_fetch(
                        end, sock, decoder, addr[0], request, deadline)
                else:
                    started = yield from self._admit_push(
                        end, sock, decoder, addr[0],
                        _expect(request, wire.Offer, "request"), deadline)
            except ValueError as exc:
                # No transfer to carry the reason: the connection is
                # the failed operation.
                self._failed += 1
                self.history.append(("-", "ctrl", addr[0], False,
                                     f"bad control frame: {exc}"))
                return
            except OSError:  # gone, reset, or silent past the deadline
                return
            if started is not None:
                yield from self._carry(end, sock, decoder, *started)

    def _carry(self, end: Endpoint, sock: socket.socket,
               decoder: wire.ControlDecoder, entry,
               reply: bytes) -> Iterator[float]:
        """A started transfer's connection: ``reply``, a fetch's RESUME,
        the client watched until the transfer ends, our push completion."""
        sending = entry.kind == SENDING
        deadline = time.monotonic() + self.handshake_timeout
        try:
            yield from writing(end, sock, reply, deadline)
        except OSError:
            self._finish(entry, ok=False,
                         reason="client vanished before offer" if sending
                         else "client vanished before accept")
            return
        awaiting = sending  # a fetch's RESUME, within the deadline
        if sending:
            decoder.npackets = entry.sender.npackets  # what we offered
        try:
            while entry.ok is None:
                frame = wire.read_frame(sock, decoder)
                if frame is None:
                    yield from waiting(end, deadline if awaiting else math.inf,
                                       reads=[sock])
                elif awaiting:
                    resume = _expect(frame, wire.ResumeInfo, "await_resume")
                    if (resume.transfer_id, resume.epoch) != (
                            entry.transfer_id, entry.epoch):
                        raise ValueError("RESUME for a different session")
                    entry.sender.resume_from(resume.bitmap)
                    entry.burst.addr = (entry.client, resume.data_port)
                    entry.started_at = time.monotonic()
                    awaiting = False
                    yield 0.0  # its first batch is due at once
                elif sending:
                    _expect(frame, wire.Completion, "sending")
                    entry.sender.on_completion(time.monotonic())
                    yield 0.0  # the pump finishes it
                else:
                    raise ValueError(f"{type(frame).__name__} frame while "
                                     f"receiving")
        except TimeoutError:
            self._finish(entry, ok=False, reason="handshake timed out")
        except OSError:
            # The client may close immediately after its completion
            # signal; an EOF behind a processed completion is a clean
            # finish, not a lost connection.
            done = sending and entry.sender.complete
            self._finish(entry, ok=done,
                         reason=None if done else "control connection lost")
        except ValueError as exc:
            self._finish(entry, ok=False, reason=f"bad control frame: {exc}")
        if entry.ok and not sending:
            yield from self._tell(end, sock, wire.encode_completion(
                entry.receiver.npackets))

    def _tell(self, end: Endpoint, sock: socket.socket,
              frame: bytes) -> Iterator[float]:
        """``frame`` to a client about to be closed on, best effort."""
        try:
            yield from writing(end, sock, frame,
                               time.monotonic() + self.handshake_timeout)
        except OSError:
            pass

    def _request(self, key: int, name: str,
                 client: str) -> AdmissionDecision:
        """Put a request, now known by its transfer id ``key``, to
        admission control."""
        # A retry of a crashed attempt re-uses the transfer id; the old
        # attempt (if its death went unnoticed) is superseded, running
        # or still waiting.
        prior = self.registry.get(key)
        if prior is not None:
            self._finish(prior.entry, ok=False,
                         reason="superseded by a newer attempt")
        if self._waiting_conns.pop(key, None) is not None:
            self.admission.cancel(key)
        decision = self.admission.request(key, client=client)
        self._emit_admission(key, name, client, decision.action,
                             reason=decision.reason or "",
                             position=decision.position)
        return decision

    def _await_slot(self, end: Endpoint, sock: socket.socket,
                    decoder: wire.ControlDecoder, key,
                    decision: AdmissionDecision, deadline: float,
                    fetch: bool) -> Generator[float, None, bool]:
        """A request admission did not start at once: refused, or queued
        until admitted (True), drained, superseded or gone.  Only a
        fetch client is told (a vanilla sender does not speak QUEUED or
        REJECT: it waits longer for its RESUME, or sees a close)."""
        if decision.action != QUEUE:
            if fetch:
                yield from self._tell(end, sock, wire.encode_reject(
                    _REJECT_CODES.get(decision.reason, wire.REJECT_FULL)))
            return False
        self._waiting_conns[key] = end
        try:
            if fetch:
                yield from writing(end, sock,
                                   wire.encode_queued(decision.position),
                                   deadline)
            while self._waiting_conns.get(key) is end:
                if key in self.admission.active:
                    del self._waiting_conns[key]
                    return True
                # No deadline, but the client's going away (or speaking)
                # gives up its place.
                frame = wire.read_frame(sock, decoder)
                if frame is not None:
                    raise ValueError(f"{type(frame).__name__} frame while "
                                     f"queued")
                yield from waiting(end, math.inf, reads=[sock])
        except BaseException:
            if self._waiting_conns.get(key) is end:
                del self._waiting_conns[key]
                self.admission.cancel(key)
                self._release_and_promote(key)
            raise
        if fetch and self._draining:
            yield from self._tell(end, sock,
                                  wire.encode_reject(wire.REJECT_DRAINING))
        return False

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _emit_admission(self, key: int, name: str, client: str, action: str,
                        reason: str = "", position: int = 0) -> None:
        """Publish one admission decision (admit/queue/reject)."""
        if self.telemetry is None:
            return
        self._server_tel.emit(
            EV_ADMISSION, tid_hint=key, name=name, client=client,
            action=action, reason=reason, position=position,
            active=len(self.admission.active),
            queued=len(self.admission.waiting))

    def _transfer_channel(self, tid: int, epoch: int,
                          src: str = "server") -> TelemetryChannel:
        if self.telemetry is None:
            return NULL_CHANNEL
        return self.telemetry.channel(transfer_id=tid, epoch=epoch, src=src)

    # ------------------------------------------------------------------
    # Fetch (server sends)
    # ------------------------------------------------------------------
    def _open(self, req: wire.FetchRequest) -> Optional[ObjectFile]:
        """The object ``req`` names inside the served root, opened and
        scanned for its CRC32 (and, for a verified fetch, its manifest),
        or None (no such object, or an empty one)."""
        path = os.path.normpath(os.path.join(self.root, req.name))
        if not (path.startswith(self.root + os.sep)
                and os.path.isfile(path)):
            return None
        try:
            return ObjectFile(path, self.config.packet_size
                              if req.verify else None)
        except (OSError, ValueError):
            return None

    def _admit_fetch(self, end: Endpoint, sock: socket.socket,
                     decoder: wire.ControlDecoder, client: str,
                     req: wire.FetchRequest, deadline: float
                     ) -> Generator[float, None, Optional[tuple]]:
        """A FETCH up to its transfer: its object found (and one ACK's
        bitmap enough for it), then admitted; the entry and its OFFER."""
        source = self._open(req)
        if source is None:
            self._emit_admission(0, req.name, client, "reject",
                                 reason="not_found")
            self._rejected_other += 1
            yield from self._tell(end, sock, _NOT_FOUND)
            return None
        try:
            wire.check_npackets(self.config.npackets(len(source)))
        except ValueError as exc:
            source.close()
            self._failed += 1
            self.history.append((req.name, "send", client, False, str(exc)))
            return None
        key = req.client_nonce ^ files.derive_transfer_id(len(source),
                                                          source.crc)
        decision = self._request(key, req.name, client)
        if decision.action != ADMIT:
            source.close()  # not held while it waits; reopened once admitted
            if not (yield from self._await_slot(end, sock, decoder, key,
                                                decision, deadline,
                                                fetch=True)):
                return None
            # What the OFFER announces is what the file holds now.
            source = self._open(req)
            if source is None:
                # Admitted from the queue, but the object has since gone.
                self._release_and_promote(key)
                self._rejected_other += 1
                yield from self._tell(end, sock, _NOT_FOUND)
                return None
        return self._begin_fetch_send(req, key, client, source)

    def _begin_fetch_send(self, req: wire.FetchRequest, key, client: str,
                          source: ObjectFile) -> tuple[_SendEntry, bytes]:
        """Start the fetch ``req`` asked for, now that it holds a slot."""
        config = replace(self.config, checksum=req.checksum)
        session = wire.SessionContext(key, req.epoch)
        sender = FobsSender(config, len(source),
                            rng=np.random.default_rng(key & 0xFFFFFFFF),
                            epoch=req.epoch,
                            telemetry=self._transfer_channel(
                                key, req.epoch, src="sender"))
        entry = _SendEntry(key, session, sender, client, req.name, source)
        entry.started_at = time.monotonic()
        tuner = None
        if self.tuning is not None:
            from repro.tuning import make_tuner

            # ack_frequency is receiver-side; the fetch client runs its
            # own F-tuner.  The daemon's tuner drives pacing rate and
            # batch size, with the max-min share as its rate ceiling.
            tuner = make_tuner(self.tuning, sender=sender,
                               telemetry=self.telemetry, transfer_id=key,
                               label=req.name)
        entry.driver = SendDriver(sender, source, self._send_for(entry),
                                  session, tuner)
        self._transfer_channel(key, req.epoch).emit(
            EV_TRANSFER_START, nbytes=len(source), npackets=sender.npackets,
            packet_size=config.packet_size,
            ack_frequency=config.ack_frequency, backend="server",
            role="sender", name=req.name, client=client)
        self._send_entries[key] = entry
        self.registry.add(RegisteredTransfer(key, req.epoch, SENDING, entry))
        self.allocator.register(
            key, tuner.set_ceiling if tuner else sender.set_pacing_rate,
            demand_bps=req.rate_cap_bps or None)
        self.allocator.reallocate()
        return entry, files.announce_offer(
            len(source), source.crc, config, self.udp_port, session,
            source.manifest)

    # ------------------------------------------------------------------
    # Push (server receives)
    # ------------------------------------------------------------------
    def _admit_push(self, end: Endpoint, sock: socket.socket,
                    decoder: wire.ControlDecoder, client: str,
                    offer: wire.Offer, deadline: float
                    ) -> Generator[float, None, Optional[tuple]]:
        """An OFFER up to its transfer; the entry and its RESUME."""
        manifest = None
        if offer.verify:
            # A VERIFY frame (digest manifest) follows the offer; hold
            # admission until it arrives so the resume audit has digests
            # from the start.  An unusable manifest falls back to the
            # whole-object CRC rather than refusing the transfer.
            verify = _expect((yield from reading(end, sock, decoder,
                                                 deadline)),
                             wire.Verify, "await_verify")
            manifest = files.manifest_for(verify.manifest, offer)
        key = offer.transfer_id
        decision = self._request(key, "push", client)
        if decision.action != ADMIT and not (yield from self._await_slot(
                end, sock, decoder, key, decision, deadline, fetch=False)):
            return None
        return self._begin_push_recv(offer, key, manifest, client)

    def _begin_push_recv(self, offer: wire.Offer, key: int,
                         manifest: Optional[ChunkManifest],
                         client: str) -> Optional[tuple[_RecvEntry, bytes]]:
        """Start the push ``offer`` made, now that it holds a slot."""
        config = files.attempt_config_for(offer, self.config)
        name = f"push-{offer.transfer_id:016x}.bin"
        channel = self._transfer_channel(offer.transfer_id, offer.epoch)
        part = PartFile(
            os.path.join(self.root, name), offer.filesize,
            offer.packet_size, offer.crc, offer.transfer_id,
            manifest=manifest, opener=self.opener, channel=channel)
        if part.fault is not None:
            self._failed += 1
            self.history.append((name, "recv", client, False, part.fault))
            self._release_and_promote(key)
            return None
        driver, reply = files.accept_offer(offer, config, part, self.udp_port,
                                           self.telemetry)
        entry = _RecvEntry(key, driver, part, client, offer, name)
        channel.emit(
            EV_TRANSFER_START, nbytes=offer.filesize,
            npackets=entry.receiver.npackets, packet_size=offer.packet_size,
            ack_frequency=config.ack_frequency, backend="server",
            role="receiver", name=name, client=client)
        entry.started_at = time.monotonic()
        self._recv_entries[key] = entry
        self.registry.add(RegisteredTransfer(
            offer.transfer_id, offer.epoch, RECEIVING, entry))
        return entry, reply

    # ------------------------------------------------------------------
    # Shared-socket demux
    # ------------------------------------------------------------------
    def _route_train(self, train, now: float) -> None:
        """Route one read of the shared socket (a
        :class:`~repro.runtime.wire.Train`, or any sequence of
        datagrams).  A ``UDP_GRO`` train is one 5-tuple: the first
        datagram is routed and, when the train's decode under that
        transfer's session rejects none of it (so every datagram carries
        its id and epoch), the whole read is that transfer's burst — or,
        where the first belonged to nothing live (a finished push's
        tail) and the rest carry its session-extension bytes, counted
        unknown in one step.  Anything else, and a read whose first
        datagram was an acknowledgement, is routed datagram by datagram,
        consecutive data datagrams of one transfer as one burst."""
        train = wire.Train.of(train)
        counters = self.registry.counters
        stale, unknown = counters.stale_epoch, counters.unknown_transfer
        first = train[0]
        burst_entry = self._route_datagram(first, now)
        # The ACK-offset probe's transfer id lies inside the session
        # extension: where the first datagram was long enough for both
        # probes and counted no stale epoch, each datagram carrying its
        # extension is routed where the first was.
        if (len(train) > 1 and counters.stale_epoch == stale
                and wire.peek_session(first, "ack") is not None):
            if burst_entry is not None:
                # The decode is made once: on_burst reads this one.
                if not burst_entry.driver.decode(train)[1]:
                    self._on_push_data(burst_entry, train, now)
                    return
            elif counters.unknown_transfer != unknown:
                ext = first[wire.DATA_SESSION_EXT]
                if all(datagram[wire.DATA_SESSION_EXT] == ext
                       for datagram in itertools.islice(train, 1, None)):
                    counters.unknown_transfer += len(train) - 1
                    return
        burst = [first] if burst_entry is not None else []
        for datagram in itertools.islice(train, 1, None):
            entry = self._route_datagram(datagram, now)
            if entry is not burst_entry and burst:
                self._on_push_data(burst_entry, burst, now)
                burst = []
            burst_entry = entry
            if entry is not None:
                burst.append(datagram)
        if burst:
            self._on_push_data(burst_entry, burst, now)

    def _route_datagram(self, datagram,
                        now: float) -> Optional[_RecvEntry]:
        """The receiving entry a data datagram belongs to; an
        acknowledgement is consumed here, and so (counted) is one that
        belongs to nothing live."""
        # ACK or DATA?  No magic distinguishes them — probe the session
        # extension at the ACK offset for a sending transfer first,
        # then the DATA offset for a receiving one.  The decode below
        # re-verifies everything the peek guessed.
        peek = wire.peek_session(datagram, "ack")
        if peek is not None:
            reg = self.registry.route(peek[0], peek[1], kind=SENDING)
            if reg is not None:
                self._on_fetch_ack(reg.entry, datagram, now)
                return None
        peek = wire.peek_session(datagram, "data")
        if peek is not None:
            reg = self.registry.route(peek[0], peek[1], kind=RECEIVING)
            if reg is not None:
                return reg.entry
        self.registry.count_unknown()
        return None

    def _on_fetch_ack(self, entry: _SendEntry, datagram: bytes,
                      now: float) -> None:
        driver = entry.driver
        undecodable = driver.undecodable
        driver.on_ack_datagram(datagram, now)
        self.registry.counters.undecodable += driver.undecodable - undecodable

    def _on_push_data(self, entry: _RecvEntry, train, now: float) -> None:
        train = wire.Train.of(train)
        driver = entry.driver
        undecodable = driver.undecodable
        acks = driver.on_burst(train, now)
        # The driver dropped what was no data packet; the demux counts it.
        self.registry.counters.undecodable += driver.undecodable - undecodable
        self._bytes_received += train.nbytes
        if entry.driver.fault is not None:
            # Disk fault mid-push (ENOSPC/EIO): fail this transfer with
            # a typed, retryable reason — the daemon itself survives,
            # the journal keeps its durable prefix, and the client's
            # supervisor re-offers through admission.
            self._finish(entry, ok=False, reason=entry.driver.fault)
            return
        for ack in acks:
            try:
                self._udp.sendto(ack, (entry.client, entry.offer.ack_port))
            except OSError:
                pass
        if entry.receiver.complete:
            self._finish(entry, ok=True)

    # ------------------------------------------------------------------
    # Sender pump (the paper's batch blast, paced by the allocator)
    # ------------------------------------------------------------------
    def _pump(self, now: float) -> float:
        hint = 0.05
        for entry in list(self._send_entries.values()):
            hint = min(hint, self._pump_entry(entry, now))
        return max(hint, 0.0)

    def _send_for(self, entry: _SendEntry):
        """The entry's ``send(train) -> n_sent`` onto the shared socket; a
        full buffer (or a transient error) leaves the tail with the driver."""
        burst = entry.burst = BurstSend(self._udp)

        def send(train: wire.Train) -> int:
            try:
                sent = burst(train)
            except OSError:
                sent = 0
            self._bytes_sent += train.nbytes - train.after(sent).nbytes
            return sent

        if self.kill is not None:
            return FaultySend(send, kill=self.kill)
        return send

    def _pump_entry(self, entry: _SendEntry, now: float) -> float:
        if entry.burst.addr is None:  # still awaiting RESUME
            return 0.05
        sender = entry.sender
        quota = sender.stats.packets_sent + _PUMP_QUANTUM
        while True:
            hint = entry.driver.step(now)
            if sender.complete or sender.failed:
                self._finish(entry, ok=sender.complete,
                                  reason=sender.failure_reason)
                return 0.05
            if hint > 0.0 or sender.stats.packets_sent >= quota:
                return hint

    # ------------------------------------------------------------------
    # Completion / failure
    # ------------------------------------------------------------------
    def _release_and_promote(self, key) -> None:
        # A promoted request's connection starts it at its next turn.
        self.admission.release(key)
        self.allocator.reallocate()

    def _finish(self, entry, ok: bool, reason: Optional[str] = None) -> None:
        """End ``entry``'s transfer either way: out of the tables, its
        outcome onto the counters, the event stream, ``history`` and
        ``entry.ok`` (its connection's cue to close), its slot handed
        on."""
        if entry.ok is not None:
            return
        sending = entry.kind == SENDING
        entries = self._send_entries if sending else self._recv_entries
        del entries[entry.key]
        reg = self.registry.get(entry.transfer_id)
        if reg is not None and reg.entry is entry:
            self.registry.remove(entry.transfer_id)
        if sending:
            if entry.source is not None:
                entry.source.close()
            self.allocator.unregister(entry.key)
            stats = entry.sender.stats
            counters = dict(
                packets_sent=stats.packets_sent,
                retransmissions=stats.retransmissions,
                wasted_fraction=stats.wasted_fraction(entry.sender.npackets),
                resumed_packets=stats.resumed_packets, role="sender")
        else:
            ok, reason = self._close_push(entry, ok, reason)
            vstats = entry.part.vstats
            counters = dict(
                packets_received=entry.receiver.stats.packets_new,
                resumed_packets=entry.receiver.stats.resumed_packets,
                packets_demoted=vstats.chunks_corrupt,
                ranges_demoted=vstats.ranges_demoted,
                bytes_demoted=vstats.bytes_demoted,
                verify_seconds=vstats.duration, role="receiver")
        if ok:
            self._completed += 1
        else:
            self._failed += 1
        self._transfer_channel(entry.transfer_id, entry.epoch).emit(
            EV_TRANSFER_END, completed=ok, failed=not ok,
            duration=max(time.monotonic() - entry.started_at, 0.0),
            name=entry.name, failure_reason=reason or "", **counters)
        self.history.append((entry.name, "send" if sending else "recv",
                             entry.client, ok, reason))
        entry.ok = ok
        self._release_and_promote(entry.key)

    def _close_push(self, entry: _RecvEntry, ok: bool,
                    reason: Optional[str]) -> tuple[bool, Optional[str]]:
        """Release a push's part file; a complete one is audited and
        published first, which has the last word on ``ok``."""
        if ok:
            # Verify-on-complete: per-chunk digests when the client
            # sent a manifest, whole-object CRC32 fallback otherwise;
            # either way corrupt chunks are demoted in the journal so
            # the retry re-fetches them instead of publishing garbage.
            reason = entry.part.publish()
            ok = reason is None
        entry.part.close()
        return ok, reason


def serve_root(root: str, port: int, **kwargs) -> ServerSnapshot:
    """Build and run an :class:`ObjectServer`; returns the final stats."""
    server = ObjectServer(root, port=port, **kwargs)
    return server.serve_forever()
