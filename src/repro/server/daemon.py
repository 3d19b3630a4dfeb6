"""The real-socket multi-transfer daemon (``repro serve``).

One process serves many concurrent FOBS transfers:

* a ``selectors`` event loop multiplexes the TCP control listener, every
  per-client control connection, and **one shared UDP data socket** that
  carries all fetch DATA out, all fetch ACKs in, and all v2 push DATA
  in — datagrams are routed to their transfer by the session extension
  (:func:`repro.runtime.wire.peek_session` +
  :class:`repro.server.registry.TransferRegistry`);
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
replies QUEUED/REJECT or a v2 OFFER whose transfer id is the
content-addressed id XOR the client's nonce — so two clients fetching
the same object get disjoint sessions, while one client's retries (and
its receiver journal) see a stable id.  From the OFFER on, the exchange
*is* the existing resumable session: the client answers RESUME with its
data port and journal bitmap, DATA flows out of the shared socket,
bitmap ACKs flow back into it, and the TCP completion signal finishes.

Push compatibility: a vanilla :func:`repro.runtime.files.send_file`
client can connect and offer a file.  v2 (resumable) pushes share the
UDP socket via their session extension; v1 pushes get a dedicated
per-transfer socket (their datagrams carry nothing to demux on).  A
queued push simply waits — the delayed ACCEPT/RESUME is transparent to
the vanilla client; a rejected push sees its connection closed and its
supervisor retries with backoff.

The protocol loops are :mod:`repro.runtime.driver`'s: the pump calls
each send entry's ``step(now)`` and sleeps for the smallest wakeup any
of them asked for; the demux pushes every datagram into its entry's
driver.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
import zlib
from dataclasses import replace
from functools import partial
from typing import TYPE_CHECKING, Optional, TextIO

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
    PartFile,
    RecvDriver,
    SendDriver,
)
from repro.runtime.transfer import (
    SEND_BATCH,
    BurstSend,
    accept_trains,
    drain,
)
from repro.server.admission import (
    ADMIT,
    DRAINING,
    FULL,
    QUEUE,
    AdmissionController,
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


class _Conn:
    """One TCP control connection and its protocol state."""

    __slots__ = ("sock", "addr", "decoder", "state", "deadline", "entry",
                 "key", "fetch", "offer", "manifest")

    # States: "request" → ("queued" →) "await_resume" → "sending"
    #                   | ("await_verify" →) ("queued" →) "receiving"
    def __init__(self, sock: socket.socket, addr, deadline: float):
        self.sock = sock
        self.addr = addr
        self.decoder = wire.ControlDecoder()
        self.state = "request"
        #: The handshake must move on by then; None once the connection
        #: is queued or carries a running transfer.
        self.deadline: Optional[float] = deadline
        self.entry = None
        self.key = None
        self.fetch: Optional[wire.FetchRequest] = None
        self.offer: Optional[wire.Offer] = None
        #: Digest manifest from a push client's VERIFY frame.
        self.manifest: Optional[ChunkManifest] = None


class _SendEntry:
    """Server → client transfer (a fetch) on the shared socket."""

    kind = SENDING
    __slots__ = ("key", "transfer_id", "epoch", "sender", "conn", "name",
                 "client", "burst", "driver", "started_at")

    def __init__(self, key, session: wire.SessionContext, sender, conn, name):
        self.key = key
        self.transfer_id, self.epoch = session.transfer_id, session.epoch
        self.sender: FobsSender = sender
        self.conn: _Conn = conn
        self.name = name
        self.client = conn.addr[0]
        #: Its send onto the shared socket; the address arrives with
        #: the client's RESUME.
        self.burst: Optional[BurstSend] = None
        self.driver: Optional[SendDriver] = None
        self.started_at = 0.0


class _RecvEntry:
    """Client → server transfer (a push)."""

    kind = RECEIVING
    __slots__ = ("key", "driver", "receiver", "part", "conn", "offer",
                 "transfer_id", "epoch", "name", "client", "sock",
                 "started_at")

    def __init__(self, key, driver, part, conn, offer, name):
        self.key = key
        self.driver: RecvDriver = driver
        self.receiver: FobsReceiver = driver.receiver
        self.part: PartFile = part
        self.conn: _Conn = conn
        self.offer: wire.Offer = offer
        self.transfer_id, self.epoch = offer.transfer_id, offer.epoch
        self.name = name
        self.client = conn.addr[0]
        self.sock: Optional[socket.socket] = None  # dedicated (v1) only
        self.started_at = 0.0


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
        self.stats_interval = stats_interval
        self.stats_out = stats_out
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

        self._sel: Optional[selectors.BaseSelector] = None
        self._listener: Optional[socket.socket] = None
        self._udp: Optional[socket.socket] = None
        # Reusable datagram receive buffer shared by every UDP drain
        # (single-threaded event loop; each datagram is fully consumed
        # before the next receive overwrites the buffer).
        self._rxbuf = bytearray(65535)
        self._conns: set[_Conn] = set()
        self._send_entries: dict[object, _SendEntry] = {}
        self._recv_entries: dict[object, _RecvEntry] = {}
        self._waiting_conns: dict[object, _Conn] = {}
        self._anon_pushes = 0
        self._data_packets_sent = 0
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
    # Socket plumbing
    # ------------------------------------------------------------------
    def _open_sockets(self) -> None:
        self._sel = selectors.DefaultSelector()
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
        self._sel.register(self._listener, selectors.EVENT_READ,
                           ("listener",))
        self._sel.register(self._udp, selectors.EVENT_READ, ("udp",))

    def _close_conn(self, conn: _Conn) -> None:
        if conn.state == "closed":
            return
        conn.state = "closed"
        # Its entry points back at it: let go, or a finished transfer's
        # object bytes stay until some later cycle collection.
        conn.entry = None
        self._conns.discard(conn)
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    def _send_ctrl(self, conn: _Conn, payload: bytes) -> bool:
        try:
            conn.sock.sendall(payload)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def serve_forever(self, ready=None) -> ServerSnapshot:
        """Run until drained (or stopped/killed); returns final stats."""
        self._open_sockets()
        self._started_at = time.monotonic()
        next_sweep = self._started_at
        if ready is not None:
            ready.set()
        try:
            while True:
                now = time.monotonic()
                if self._stop:
                    break
                if self._drain_requested and not self._draining:
                    self._begin_drain(now)
                if self._draining:
                    if not self._send_entries and not self._recv_entries:
                        break
                    if now > self._drain_deadline:
                        self._fail_all("drain timeout expired")
                        break
                hint = self._pump(now)
                events = self._sel.select(min(hint, 0.05))
                now = time.monotonic()
                for key, _mask in events:
                    tag = key.data[0]
                    if tag == "listener":
                        self._accept(now)
                    elif tag == "udp":
                        drain(self._udp, self._route_train, now,
                              self._rxbuf, _PUMP_QUANTUM)
                    elif tag == "conn":
                        self._on_conn_readable(key.data[1], now)
                    elif tag == "recv_sock":
                        entry = key.data[1]
                        drain(entry.sock, partial(self._on_push_data, entry),
                              now, self._rxbuf, _PUMP_QUANTUM)
                if now >= next_sweep:
                    next_sweep = now + 0.5
                    self._sweep(now)
                if self._snapshot_sink is not None:
                    self._snapshot_sink.maybe_emit(now)
        except EndpointKilled:
            # Crash injection fired inside the send pump.
            self._crash_teardown()
            return self.stats()
        finally:
            if not self.crashed:
                self._graceful_teardown()
        return self.stats()

    def _begin_drain(self, now: float) -> None:
        self._draining = True
        self._drain_deadline = now + self.drain_timeout
        for key in self.admission.drain():
            conn = self._waiting_conns.pop(key, None)
            if conn is None:
                continue
            self._rejected_other += 1
            if conn.fetch is not None:
                self._send_ctrl(conn, wire.encode_reject(
                    wire.REJECT_DRAINING))
            self._close_conn(conn)

    def _fail_all(self, reason: str) -> None:
        for entries in (self._send_entries, self._recv_entries):
            for entry in list(entries.values()):
                self._finish(entry, ok=False, reason=reason)

    def _graceful_teardown(self) -> None:
        self._fail_all("server shut down")
        self._close_sockets()

    def _crash_teardown(self) -> None:
        """Abrupt death: close fds, lose unflushed journal writes."""
        self.crashed = True
        for entry in self._recv_entries.values():
            entry.part.crash()
        self._close_sockets()

    def _close_sockets(self) -> None:
        for conn in list(self._conns):
            self._close_conn(conn)
        for sock in (self._listener, self._udp):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        if self._sel is not None:
            self._sel.close()

    def _sweep(self, now: float) -> None:
        """Periodic housekeeping: handshake deadlines, receiver liveness."""
        for conn in list(self._conns):
            if conn.deadline is not None and now > conn.deadline:
                self._fail_conn(conn, "handshake timed out")
        for entry in list(self._recv_entries.values()):
            failure = entry.receiver.liveness_failure(now, entry.started_at)
            if failure is not None:
                self._finish(entry, ok=False, reason=failure)

    # ------------------------------------------------------------------
    # TCP control plane
    # ------------------------------------------------------------------
    def _accept(self, now: float) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            conn = _Conn(sock, addr, now + self.handshake_timeout)
            self._conns.add(conn)
            self._sel.register(sock, selectors.EVENT_READ, ("conn", conn))

    def _on_conn_readable(self, conn: _Conn, now: float) -> None:
        # One read a wakeup (the selector is level-triggered), so the
        # decoder refuses an oversized or unframed stream before the
        # next read can add to it.
        if conn.state == "closed":
            return
        try:
            chunk = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if chunk:
            conn.decoder.feed(chunk)
            self._service_conn(conn, now)
        else:
            self._on_conn_lost(conn)

    def _on_conn_lost(self, conn: _Conn) -> None:
        entry = conn.entry
        if (entry is not None and entry.kind == SENDING
                and entry.sender.complete):
            # The client may close immediately after its completion
            # signal; an EOF behind a processed completion is a clean
            # finish, not a lost connection.
            self._finish(entry, ok=True)
        else:
            self._fail_conn(conn, "control connection lost")

    def _fail_conn(self, conn: _Conn, reason: str) -> None:
        """Close ``conn``, failing the transfer it carries (if any) with
        ``reason`` and giving up its place in the queue (if it has one)."""
        if conn.entry is not None:
            self._finish(conn.entry, ok=False, reason=reason)
            return
        if conn.state == "queued":
            self.admission.cancel(conn.key)
            self._waiting_conns.pop(conn.key, None)
        self._close_conn(conn)

    def _service_conn(self, conn: _Conn, now: float) -> None:
        """Hand every whole frame to the handler for ``(state, frame
        type)``.  A frame that does not decode, does not validate or has
        no handler in this state — a push client, for one, never speaks
        between its offer and our completion signal — fails this
        connection, with the reason on record, and nothing else."""
        try:
            while conn.state != "closed":
                frame = conn.decoder.next_frame()
                if frame is None:
                    return
                handler = self._ON_FRAME.get((conn.state, type(frame)))
                if handler is None:
                    raise ValueError(f"{type(frame).__name__} frame while "
                                     f"{conn.state}")
                handler(self, conn, frame, now)
        except ValueError as exc:
            reason = f"bad control frame: {exc}"
            if conn.entry is None:
                # No transfer to carry the reason: the connection is
                # the failed operation.
                self._failed += 1
                self.history.append(("-", "ctrl", conn.addr[0], False,
                                     reason))
            self._fail_conn(conn, reason)

    def _on_offer(self, conn: _Conn, offer: wire.Offer, now: float) -> None:
        conn.offer = offer
        if offer.verify:
            # A VERIFY frame (digest manifest) follows the offer; hold
            # admission until it arrives so the resume audit has digests
            # from the start.
            conn.state = "await_verify"
        else:
            self._handle_push(conn, now)

    def _on_verify(self, conn: _Conn, frame: wire.Verify, now: float) -> None:
        # An unusable manifest falls back to the whole-object CRC rather
        # than refusing the transfer.
        conn.manifest = files.manifest_for(frame.manifest, conn.offer)
        self._handle_push(conn, now)

    def _on_resume(self, conn: _Conn, resume: wire.ResumeInfo,
                   now: float) -> None:
        entry: _SendEntry = conn.entry
        if (resume.transfer_id, resume.epoch) != (entry.transfer_id,
                                                  entry.epoch):
            raise ValueError("RESUME for a different session")
        entry.sender.resume_from(resume.bitmap)
        entry.burst.addr = (conn.addr[0], resume.data_port)
        entry.started_at = now
        conn.state = "sending"
        conn.deadline = None

    def _on_completion(self, conn: _Conn, _frame: wire.Completion,
                       now: float) -> None:
        conn.entry.sender.on_completion(now)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _emit_admission(self, key, name: str, client: str, action: str,
                        reason: str = "", position: int = 0) -> None:
        """Publish one admission decision (admit/queue/reject)."""
        if self.telemetry is None:
            return
        tid = key if isinstance(key, int) else 0
        self._server_tel.emit(
            EV_ADMISSION, tid_hint=tid, name=name, client=client,
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
    def _resolve(self, name: str) -> Optional[str]:
        """Resolve an object name inside the served root, or None."""
        path = os.path.normpath(os.path.join(self.root, name))
        if not (path == self.root or path.startswith(self.root + os.sep)):
            return None
        if not os.path.isfile(path):
            return None
        return path

    def _handle_fetch(self, conn: _Conn, req: wire.FetchRequest,
                      now: float) -> None:
        path = self._resolve(req.name)
        if path is None or os.path.getsize(path) == 0:
            self._emit_admission(0, req.name, conn.addr[0], "reject",
                                 reason="not_found")
            self._reject_not_found(conn)
            return
        with open(path, "rb") as fh:
            data = fh.read()
        conn.fetch = req
        self._admit(conn, req.client_nonce ^ files.derive_transfer_id(
            len(data), zlib.crc32(data)), req.name, now, data)

    def _admit(self, conn: _Conn, key, name: str, now: float,
               data: Optional[bytes] = None) -> None:
        """Put ``conn``'s request, now known as ``key``, to admission
        control: start it, queue it or refuse it.  Only a fetch client
        is told which — a vanilla sender does not speak QUEUED or
        REJECT: queued, it simply waits longer for its ACCEPT/RESUME;
        refused, it sees the connection close and its supervisor backs
        off and retries."""
        conn.key = key
        if isinstance(key, int):
            # A retry of a crashed attempt re-uses the transfer id; the
            # old attempt (if its death went unnoticed) is superseded,
            # running or still waiting.
            prior = self.registry.get(key)
            if prior is not None:
                self._finish(prior.entry, ok=False,
                             reason="superseded by a newer attempt")
            stale_conn = self._waiting_conns.pop(key, None)
            if stale_conn is not None:
                self.admission.cancel(key)
                self._close_conn(stale_conn)
        decision = self.admission.request(key, client=conn.addr[0])
        self._emit_admission(key, name, conn.addr[0], decision.action,
                             reason=decision.reason or "",
                             position=decision.position)
        if decision.action == ADMIT:
            self._begin(conn, now, data)
        elif decision.action == QUEUE:
            conn.state = "queued"
            conn.deadline = None
            self._waiting_conns[key] = conn
            if conn.fetch is not None:
                self._send_ctrl(conn, wire.encode_queued(decision.position))
        else:
            if conn.fetch is not None:
                self._send_ctrl(conn, wire.encode_reject(
                    _REJECT_CODES.get(decision.reason, wire.REJECT_FULL)))
            self._close_conn(conn)

    def _begin(self, conn: _Conn, now: float,
               data: Optional[bytes] = None) -> None:
        """Start the transfer ``conn`` asked for: it holds a slot."""
        if conn.fetch is not None:
            self._begin_fetch_send(conn, data, now)
        else:
            self._begin_push_recv(conn, now)

    def _begin_fetch_send(self, conn: _Conn, data: Optional[bytes],
                          now: float) -> None:
        req = conn.fetch
        if data is None:
            path = self._resolve(req.name)
            if path is None:
                # Admitted from the queue, but the object has since gone.
                self._reject_not_found(conn)
                self._release_and_promote(conn.key)
                return
            with open(path, "rb") as fh:
                data = fh.read()
        tid = conn.key
        config = replace(self.config, checksum=req.checksum)
        session = wire.SessionContext(tid, req.epoch)
        sender = FobsSender(config, len(data),
                            rng=np.random.default_rng(tid & 0xFFFFFFFF),
                            epoch=req.epoch,
                            telemetry=self._transfer_channel(
                                tid, req.epoch, src="sender"))
        entry = _SendEntry(tid, session, sender, conn, req.name)
        entry.started_at = now
        tuner = None
        if self.tuning is not None:
            from repro.tuning import make_tuner

            # ack_frequency is receiver-side; the fetch client runs its
            # own F-tuner.  The daemon's tuner drives pacing rate and
            # batch size, with the max-min share as its rate ceiling.
            tuner = make_tuner(self.tuning, sender=sender,
                               telemetry=self.telemetry, transfer_id=tid,
                               label=req.name)
        entry.driver = SendDriver(sender, data, self._send_for(entry),
                                  session, tuner)
        self._transfer_channel(tid, req.epoch).emit(
            EV_TRANSFER_START, nbytes=len(data), npackets=sender.npackets,
            packet_size=config.packet_size,
            ack_frequency=config.ack_frequency, backend="server",
            role="sender", name=req.name, client=conn.addr[0])
        conn.entry = entry
        conn.decoder.npackets = sender.npackets  # what we are offering
        conn.state = "await_resume"
        conn.deadline = now + self.handshake_timeout
        self._send_entries[tid] = entry
        self.registry.add(RegisteredTransfer(tid, req.epoch, SENDING, entry))
        self.allocator.register(
            tid, tuner.set_ceiling if tuner else sender.set_pacing_rate,
            demand_bps=req.rate_cap_bps or None)
        self.allocator.reallocate()
        manifest = (ChunkManifest.from_data(data, config.packet_size)
                    if req.verify else None)
        if not self._send_ctrl(conn, files.announce_offer(
                len(data), zlib.crc32(data), config, self.udp_port, session,
                manifest)):
            self._finish(entry, ok=False,
                              reason="client vanished before offer")

    def _reject_not_found(self, conn: _Conn) -> None:
        self._rejected_other += 1
        self._send_ctrl(conn, wire.encode_reject(wire.REJECT_NOT_FOUND))
        self._close_conn(conn)

    # ------------------------------------------------------------------
    # Push (server receives)
    # ------------------------------------------------------------------
    def _handle_push(self, conn: _Conn, now: float) -> None:
        if conn.offer.resumable:
            key = conn.offer.transfer_id
        else:
            self._anon_pushes += 1
            key = ("push-v1", self._anon_pushes)
        self._admit(conn, key, "push", now)

    def _begin_push_recv(self, conn: _Conn, now: float) -> None:
        offer = conn.offer
        config = files.attempt_config_for(offer, self.config)
        name = (f"push-{offer.transfer_id:016x}.bin" if offer.resumable
                else f"push-anon-{conn.key[1]}.bin")
        channel = self._transfer_channel(offer.transfer_id, offer.epoch)
        part = PartFile(
            os.path.join(self.root, name), offer.filesize,
            offer.packet_size, offer.crc,
            transfer_id=offer.transfer_id if offer.resumable else None,
            manifest=conn.manifest, opener=self.opener, channel=channel)
        if part.fault is not None:
            self._failed += 1
            self.history.append((name, "recv", conn.addr[0], False,
                                 part.fault))
            self._close_conn(conn)
            self._release_and_promote(conn.key)
            return
        sock = None
        data_port = self.udp_port
        if not offer.resumable:
            # v1 datagrams carry no session extension to demux on: give
            # the transfer its own socket.
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            accept_trains(sock)
            sock.bind((self.bind, 0))
            sock.setblocking(False)
            data_port = sock.getsockname()[1]
        driver, reply = files.accept_offer(offer, config, part, data_port,
                                           self.telemetry)
        entry = _RecvEntry(conn.key, driver, part, conn, offer, name)
        entry.sock = sock
        channel.emit(
            EV_TRANSFER_START, nbytes=offer.filesize,
            npackets=entry.receiver.npackets, packet_size=offer.packet_size,
            ack_frequency=config.ack_frequency, backend="server",
            role="receiver", name=name, client=conn.addr[0])
        entry.started_at = now
        conn.entry = entry
        conn.state = "receiving"
        conn.deadline = None
        self._recv_entries[conn.key] = entry
        if sock is not None:
            self._sel.register(sock, selectors.EVENT_READ,
                               ("recv_sock", entry))
        else:
            self.registry.add(RegisteredTransfer(
                offer.transfer_id, offer.epoch, RECEIVING, entry))
        if not self._send_ctrl(conn, reply):
            self._finish(entry, ok=False,
                              reason="client vanished before accept")

    # ------------------------------------------------------------------
    # Shared-socket demux
    # ------------------------------------------------------------------
    def _route_train(self, views, now: float) -> None:
        """Route one read of the shared socket.  A ``UDP_GRO`` train is
        one 5-tuple: the first datagram is routed and, when the rest
        carry its session-extension bytes, the whole read is that
        transfer's burst (whose decode still verifies id, epoch and CRC
        per datagram).  Anything else is routed datagram by datagram,
        consecutive data datagrams of one transfer as one burst."""
        counters = self.registry.counters
        stale = counters.stale_epoch
        burst_entry = self._route_datagram(views[0], now)
        burst = [views[0]] if burst_entry is not None else []
        rest = views[1:]
        # The ACK-offset probe reads inside the compared bytes: where
        # the first datagram's counted no stale epoch, no other's would.
        if burst and rest and counters.stale_epoch == stale:
            ext = views[0][wire.DATA_SESSION_EXT]
            if all(view[wire.DATA_SESSION_EXT] == ext for view in rest):
                self._on_push_data(burst_entry, views, now)
                return
        for datagram in rest:
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
        try:
            entry.driver.on_ack_datagram(datagram, now)
        except ValueError:
            self.registry.count_undecodable()

    def _on_push_data(self, entry: _RecvEntry, views, now: float) -> None:
        try:
            acks = entry.driver.on_burst(views, now)
        except ValueError:
            # The rest of the train was processed all the same, so the
            # fault and completion checks below still apply.
            self.registry.count_undecodable()
            acks = ()
        self._bytes_received += sum(map(len, views))
        if entry.driver.fault is not None:
            # Disk fault mid-push (ENOSPC/EIO): fail this transfer with
            # a typed, retryable reason — the daemon itself survives,
            # the journal keeps its durable prefix, and the client's
            # supervisor re-offers through admission.
            self._finish(entry, ok=False, reason=entry.driver.fault)
            return
        sock = entry.sock if entry.sock is not None else self._udp
        for ack in acks:
            try:
                sock.sendto(ack, (entry.conn.addr[0], entry.offer.ack_port))
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
        """The entry's ``send(views) -> n_sent`` onto the shared socket; a
        full buffer (or a transient error) leaves the tail with the driver."""
        burst = entry.burst = BurstSend(self._udp)

        def send(views) -> int:
            try:
                sent = burst(views)
            except OSError:
                sent = 0
            self._bytes_sent += sum(map(len, views[:sent]))
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
    def _start_promoted(self, key) -> None:
        conn = self._waiting_conns.pop(key, None)
        if conn is None:
            self._release_and_promote(key)
        else:
            self._begin(conn, time.monotonic())

    def _release_and_promote(self, key) -> None:
        for promoted in self.admission.release(key):
            self._start_promoted(promoted)
        self.allocator.reallocate()

    def _finish(self, entry, ok: bool, reason: Optional[str] = None) -> None:
        """End ``entry``'s transfer either way: out of the tables, its
        outcome onto the counters, the event stream and ``history``, its
        connection closed and its slot handed on."""
        sending = entry.kind == SENDING
        entries = self._send_entries if sending else self._recv_entries
        if entry.key not in entries:
            return
        del entries[entry.key]
        reg = self.registry.get(entry.transfer_id)
        if reg is not None and reg.entry is entry:
            self.registry.remove(entry.transfer_id)
        if sending:
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
        self._close_conn(entry.conn)
        self._release_and_promote(entry.key)

    def _close_push(self, entry: _RecvEntry, ok: bool,
                    reason: Optional[str]) -> tuple[bool, Optional[str]]:
        """Release a push's socket and part file; a complete one is
        audited and published first, which has the last word on ``ok``."""
        if entry.sock is not None:
            try:
                self._sel.unregister(entry.sock)
            except (KeyError, ValueError):
                pass
            entry.sock.close()
        if ok:
            # Verify-on-complete: per-chunk digests when the client
            # sent a manifest, whole-object CRC32 fallback otherwise;
            # either way corrupt chunks are demoted in the journal so
            # the retry re-fetches them instead of publishing garbage.
            reason = entry.part.publish()
            ok = reason is None
            if ok:
                self._send_ctrl(entry.conn, wire.encode_completion(
                    entry.receiver.npackets))
        entry.part.close()
        return ok, reason

    #: (connection state, frame type) -> handler(self, conn, frame, now);
    #: every other pairing is a protocol violation.
    _ON_FRAME = {
        ("request", wire.FetchRequest): _handle_fetch,
        ("request", wire.Offer): _on_offer,
        ("await_verify", wire.Verify): _on_verify,
        ("await_resume", wire.ResumeInfo): _on_resume,
        ("sending", wire.Completion): _on_completion,
    }


def serve_root(root: str, port: int, **kwargs) -> ServerSnapshot:
    """Build and run an :class:`ObjectServer`; returns the final stats."""
    server = ObjectServer(root, port=port, **kwargs)
    return server.serve_forever()
