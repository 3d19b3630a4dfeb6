"""Loopback transfer: the sans-IO core over real UDP/TCP sockets.

A sender driving :class:`FobsSender` and a receiver driving
:class:`FobsReceiver` on 127.0.0.1, with the paper's three connections:
a UDP data socket, a UDP acknowledgement socket, and a TCP completion
connection.  What arrived is compared with what was sent, byte for byte.

The protocol loops themselves live in :mod:`repro.runtime.driver`; this
module owns the sockets and the blocking around them, written once and
single-threaded (the paper's endpoints are *non-blocking polling
loops*; under one GIL a thread each only adds hand-off): :func:`drain`
what the kernel queued into the driver, take one sender or receiver
turn, sleep until the earliest wakeup asked for (:func:`run_endpoints`
— with both endpoints here, with one in :mod:`repro.runtime.files`).

An optional ``drop_rate`` discards outgoing data datagrams at the
sender (deterministic RNG) to exercise the retransmission machinery on
an otherwise loss-free loopback path.  ``corrupt_rate`` flips one byte
in that fraction of datagrams instead (the checksum must catch them),
and ``blackhole_acks`` silences the receiver's acknowledgement and
completion channels entirely — the adversarial case that must end in a
clean stall abort rather than a hang.

Crash-resume support: ``kill`` (a
:class:`~repro.simnet.faults.KillSwitch`) makes one endpoint die
abruptly at a packet count; ``journal`` persists the receiver's bitmap
so a later attempt can be seeded with ``resume_bitmap``; ``session`` (a
:class:`~repro.runtime.wire.SessionContext`) stamps every datagram with
the transfer id and attempt epoch so zombies from a killed attempt are
rejected.  :func:`repro.runtime.supervisor.run_resumable_loopback`
drives the retry loop over these hooks.
"""

from __future__ import annotations

import functools
import select
import socket
import struct
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.core.config import FobsConfig
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.runtime.driver import (
    EndpointKilled,
    FaultySend,
    RecvDriver,
    SendDriver,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.journal import ReceiverJournal
    from repro.simnet.faults import KillSwitch
    from repro.tuning import TuningConfig

#: Longest sleep of :func:`run_endpoints`: how often a silent path gets
#: its deadline, receiver liveness and progress tick looked at.
MAX_WAIT = 0.05


@dataclass
class LoopbackResult:
    """Outcome of one loopback transfer."""

    nbytes: int
    duration: float
    throughput_bps: float
    checksum_ok: bool
    packets_sent: int
    packets_retransmitted: int
    duplicates_received: int
    acks_sent: int
    wasted_fraction: float
    #: Did both sides finish the protocol (vs. a clean stall failure)?
    completed: bool = True
    failure_reason: Optional[str] = None
    stall_events: int = 0
    stall_recoveries: int = 0
    #: Datagrams rejected by CRC verification (data + acks).
    corrupt_dropped: int = 0
    #: Datagrams rejected for carrying a stale attempt epoch.
    stale_epoch_dropped: int = 0
    #: Packets pre-acknowledged via the resume bitmap (never re-sent).
    resumed_packets: int = 0
    #: Endpoint killed by crash injection ("sender"/"receiver"/None).
    crashed: Optional[str] = None


# Linux UDP segmentation offload (``linux/udp.h``; the socket module
# names neither before Python 3.12).  ``UDP_SEGMENT`` on a ``sendmsg``
# makes the kernel cut one buffer into equal datagrams; ``UDP_GRO`` on a
# receiving socket lets it hand a coalesced train back in one read, with
# the segment size as ancillary data.  Neither changes a byte on the
# wire.
UDP_SEGMENT = 103
UDP_GRO = 104
#: The kernel's limit on one segmented send (its bytes: one datagram's).
_MAX_SEGMENTS = 64
_SEGMENT_SIZE = struct.Struct("H")
_GRO_SIZE = struct.Struct("i")
_GRO_CMSG_SPACE = socket.CMSG_SPACE(_GRO_SIZE.size)

#: ``FobsConfig.batch_size`` a real-socket send starts from unless the
#: caller chose one (the tuner still moves it): the codec pass and the
#: kernel crossing are paid per batch, and the paper's DES default of 2
#: pays both every other datagram.
SEND_BATCH = 16


class BurstSend:
    """The driver's ``send(views) -> n_sent`` seam onto one UDP socket.

    Each run of equal-length views — optionally closed by one shorter
    view: the object's last packet can sit mid-batch on a
    retransmission pass — leaves in one ``sendmsg`` that the kernel
    segments (``UDP_SEGMENT``), with *zero* per-datagram encode,
    allocation or copy (the views all window the codec's one buffer).
    A run of one (every 32 KiB packet, every :class:`FaultySend`
    datagram) is a plain ``sendto``, and so is everything after the
    first segmented send the kernel refuses (old kernel, another OS, a
    segment above the path MTU): that run is re-sent datagram by
    datagram, nothing lost and nothing doubled.  Returns how many views
    the socket took — fewer than given only when a non-blocking
    socket's buffer filled up, and then at a run boundary.
    """

    __slots__ = ("sock", "addr", "_segmenting")

    def __init__(self, sock: socket.socket, addr=None):
        self.sock = sock
        #: Destination; a caller that learns it late sets it before the
        #: first send.
        self.addr = addr
        self._segmenting = True

    def __call__(self, views) -> int:
        sock, addr = self.sock, self.addr
        sent, n = 0, len(views)
        while sent < n:
            size = len(views[sent])
            end = sent + 1
            if self._segmenting and size:
                stop = min(n, sent + min(_MAX_SEGMENTS,
                                         wire.MAX_DATAGRAM_BYTES // size))
                while end < stop and len(views[end]) == size:
                    end += 1
                if end < stop and 0 < len(views[end]) < size:
                    end += 1
            if end - sent > 1:
                try:
                    sock.sendmsg(
                        views[sent:end],
                        [(socket.SOL_UDP, UDP_SEGMENT,
                          _SEGMENT_SIZE.pack(size))], 0, addr)
                except BlockingIOError:
                    break
                except OSError:
                    # Refused, so nothing of the run left: it goes out
                    # below, and no later run is offered.
                    self._segmenting = False
                else:
                    sent = end
                    continue
            try:
                for view in views[sent:end]:
                    sock.sendto(view, addr)
                    sent += 1
            except BlockingIOError:
                break
        return sent


def accept_trains(sock: socket.socket) -> None:
    """Let a receiving UDP socket hand :func:`drain` whole trains
    (``UDP_GRO``); where the kernel has no such option it stays plain."""
    try:
        sock.setsockopt(socket.SOL_UDP, UDP_GRO, 1)
    except OSError:
        pass


def drain(sock: socket.socket, handle, now: float, rxbuf: bytearray,
          budget: float = float("inf")) -> None:
    """Hand what is queued on non-blocking ``sock`` to ``handle(views,
    now)``, one call per read: until the kernel has no more (EAGAIN),
    ``budget`` datagrams have been handed over (the rest stays queued,
    the socket readable: for a loop with other work to do between
    calls), ``handle`` returns true, or ``handle`` closed the socket.
    A read is one datagram, or — after :func:`accept_trains` — a train
    of them that the ``UDP_GRO`` ancillary datum says to split at that
    segment size (the last may be shorter).  The views window the one
    reusable ``rxbuf`` (``recv(65535)`` allocates per datagram), so
    ``handle`` must consume them before returning.
    """
    recvmsg_into = sock.recvmsg_into
    rxview = memoryview(rxbuf)
    buffers = [rxbuf]
    while budget > 0:
        try:
            nrecv, ancdata, _flags, _addr = recvmsg_into(
                buffers, _GRO_CMSG_SPACE)
        except OSError:
            return
        size = 0
        for level, kind, value in ancdata:
            if level == socket.SOL_UDP and kind == UDP_GRO:
                (size,) = _GRO_SIZE.unpack(value)
        if 0 < size < nrecv:
            views = [rxview[start:min(start + size, nrecv)]
                     for start in range(0, nrecv, size)]
        else:
            views = [rxview[:nrecv]]
        budget -= len(views)
        if handle(views, now):
            return


@functools.cache
def udp_offload() -> bool:
    """Does this kernel segment and coalesce UDP trains on loopback?

    Tries both socket options on a throwaway socket pair, once per
    process.  Nothing in the transfer path asks — :class:`BurstSend`
    and :func:`drain` go by what their own socket calls return — it is
    for tests to skip by and for CI to print, so a green run on a
    kernel without the offload is visibly a fallback run.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
            socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
        try:
            rx.setsockopt(socket.SOL_UDP, UDP_GRO, 1)
            rx.bind(("127.0.0.1", 0))
            rx.settimeout(1.0)
            BurstSend(tx, rx.getsockname())([b"ab", b"cd", b"e"])
            trains = []
            drain(rx, lambda views, _now: trains.append(
                [bytes(view) for view in views]) or True, 0.0, bytearray(64))
        except OSError:
            return False
    return trains == [[b"ab", b"cd", b"e"]]


def sender_turns(driver: SendDriver, ack_sock: socket.socket,
                 poll_completion: Callable[[], Optional[str]]
                 ) -> Iterator[float]:
    """The sending :class:`Endpoint`'s turns: each drains *every*
    acknowledgement queued on the non-blocking ``ack_sock`` (one per
    turn falls behind a fast receiver and leaves stale bitmaps steering
    retransmission), asks ``poll_completion`` for a control-connection
    failure, takes one ``step`` and yields its wakeup.  Returns None on
    completion, else the failure.
    """
    sender = driver.sender
    rxbuf = bytearray(65535)

    def on_acks(views, now: float) -> None:
        for view in views:
            driver.on_ack_datagram(view, now)

    while True:
        now = time.monotonic()
        drain(ack_sock, on_acks, now, rxbuf)
        # sender.failure_reason carries the last step's stall diagnosis;
        # terminate cleanly well before the deadline.
        failure = poll_completion() or sender.failure_reason
        if failure is not None or sender.complete:
            return failure
        yield driver.step(now)


def receiver_turns(driver: RecvDriver, data_sock: socket.socket,
                   send_ack: Callable[[bytes], object],
                   tick: Optional[Callable[[float], None]] = None
                   ) -> Iterator[float]:
    """The receiving :class:`Endpoint`'s turns: each checks liveness
    and drains the non-blocking ``data_sock`` — one driver call per
    train, zero-copy decode — handing every acknowledgement a train
    produced to ``send_ack``, then, the object still incomplete, runs
    ``tick(now)``; only more data gives it work, so it yields the
    longest wait.  Returns None once every packet is marked, else the
    failure (liveness timeout, storage fault).
    """
    receiver = driver.receiver
    rxbuf = bytearray(65535)
    start = time.monotonic()

    def on_data(views, now: float) -> bool:
        for ack in driver.on_burst(views, now):
            send_ack(ack)
        return driver.fault is not None or receiver.complete

    while True:
        now = time.monotonic()
        # The sender went away: exit cleanly with a diagnosis instead
        # of burning the full deadline.
        failure = receiver.liveness_failure(now, start)
        if failure is not None:
            return failure
        drain(data_sock, on_data, now, rxbuf)
        if driver.fault is not None or receiver.complete:
            return driver.fault
        if tick is not None:
            tick(now)
        yield MAX_WAIT


@dataclass
class Endpoint:
    """One end of a transfer in :func:`run_endpoints`, and how it ended."""

    #: Each ``next`` is one turn and yields the seconds until the next
    #: is due; the return value is the failure (None = completed).
    turns: Iterator[float]
    #: Sockets it owns, closed as it leaves the loop; data arriving on
    #: the first ends the loop's sleep early.
    socks: list
    failure_reason: Optional[str] = None
    #: Ended by crash injection (:class:`EndpointKilled`).
    crashed: bool = False


def run_endpoints(endpoints: list, deadline: float) -> None:
    """Give every live :class:`Endpoint` its turn, on this thread, then
    sleep until the earliest wakeup asked for or until data arrives.
    Any exception but the crash injection reaches the caller as raised;
    ``TimeoutError`` past ``deadline``.
    """
    live = list(endpoints)
    try:
        while live:
            if time.monotonic() > deadline:
                raise TimeoutError("transfer deadline exceeded")
            wait = MAX_WAIT
            for end in list(live):
                try:
                    wait = min(wait, next(end.turns))
                except (StopIteration, EndpointKilled) as ended:
                    # Crash injection is abrupt process death, no goodbye:
                    # the sockets close as a SIGKILLed process's do, the
                    # peer sees silence and must diagnose it by itself.
                    end.crashed = isinstance(ended, EndpointKilled)
                    end.failure_reason = (str(ended) if end.crashed
                                          else ended.value)
                    live.remove(end)
                    for sock in end.socks:
                        sock.close()
            if live and wait > 0.0:
                select.select([end.socks[0] for end in live], (), (), wait)
    finally:
        for end in live:
            for sock in end.socks:
                sock.close()


def _bound(kind: int, rcvbuf: int = 0) -> socket.socket:
    """A non-blocking localhost socket on an ephemeral port."""
    sock = socket.socket(socket.AF_INET, kind)
    if rcvbuf:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.bind(("127.0.0.1", 0))
    sock.setblocking(False)
    return sock


def run_loopback_transfer(
    nbytes: int = 1_000_000,
    config: Optional[FobsConfig] = None,
    drop_rate: float = 0.0,
    corrupt_rate: float = 0.0,
    blackhole_acks: bool = False,
    seed: int = 0,
    timeout: float = 60.0,
    data: Optional[bytes] = None,
    journal: Optional["ReceiverJournal"] = None,
    resume_bitmap: Optional[np.ndarray] = None,
    session: Optional[wire.SessionContext] = None,
    kill: Optional["KillSwitch"] = None,
    buffer: Optional[bytearray] = None,
    tuning: Optional["TuningConfig"] = None,
    telemetry=None,
) -> LoopbackResult:
    """Transfer a checksummed object over real sockets on localhost.

    Returns throughput and protocol counters; ``checksum_ok`` confirms
    byte-exact delivery.  ``drop_rate`` discards that fraction of data
    datagrams at the sender to exercise retransmission; ``corrupt_rate``
    flips a byte in that fraction instead (requires ``config.checksum``
    for detection); ``blackhole_acks`` silences the reverse path so the
    sender must stall-abort.  Protocol-level failures (stall abort,
    receiver liveness timeout) return a result with ``completed=False``
    and a ``failure_reason`` rather than raising.

    The crash-resume hooks (``journal``, ``resume_bitmap``, ``session``,
    ``kill``, ``buffer``) are documented in the module docstring; use
    :func:`repro.runtime.supervisor.run_resumable_loopback` for the
    full retry loop.
    """
    config = config if config is not None else FobsConfig(ack_frequency=32)
    if data is None:
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    elif len(data) != nbytes:
        raise ValueError("len(data) must equal nbytes")

    epoch = session.epoch if session is not None else 0
    receiver = FobsReceiver(config, nbytes, resume_bitmap=resume_bitmap,
                            journal=journal, epoch=epoch)
    sender = FobsSender(config, nbytes, rng=np.random.default_rng(seed),
                        epoch=epoch)
    if resume_bitmap is not None:
        sender.resume_from(resume_bitmap)
    #: The "disk file": shared across attempts by the supervisor.
    buffer = buffer if buffer is not None else bytearray(nbytes)
    if len(buffer) != nbytes:
        raise ValueError("resume buffer length != nbytes")
    kill_tx = kill if kill is not None and kill.target == "sender" else None
    kill_rx = kill if kill is not None and kill.target == "receiver" else None
    deadline = time.monotonic() + timeout

    # The paper's three connections: UDP data, UDP acknowledgements,
    # and a TCP completion connection.
    data_sock = _bound(socket.SOCK_DGRAM, rcvbuf=1 << 20)
    accept_trains(data_sock)
    ack_sock = _bound(socket.SOCK_DGRAM)
    listener = _bound(socket.SOCK_STREAM)
    listener.listen(1)
    data_out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    ack_out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    data_addr, ack_addr = data_sock.getsockname(), ack_sock.getsockname()

    placed = 0

    def place(offset: int, payload) -> None:
        nonlocal placed
        if kill_rx is not None and kill_rx.should_fire(placed):
            # What this train placed but had not yet marked, and the
            # pending (unflushed) journal run, are lost with the
            # process; the sender must stall-abort.
            kill_rx.fire(time.monotonic())
            if journal is not None:
                journal.simulate_crash()
            raise EndpointKilled(f"receiver killed by crash injection "
                                 f"after {placed} data packets")
        buffer[offset:offset + len(payload)] = payload
        placed += 1

    def send_ack(ack: bytes) -> None:
        if not blackhole_acks:
            ack_out.sendto(ack, ack_addr)

    def receive() -> Iterator[float]:
        failure = yield from receiver_turns(
            RecvDriver(receiver, place, session), data_sock, send_ack)
        if failure is None:
            # Normal completion: make the journal durable, then send
            # the completion signal over TCP (suppressed, like the
            # ACKs, in the adversarial mode).
            if journal is not None:
                journal.close()
            if not blackhole_acks:
                with socket.create_connection(listener.getsockname(),
                                              timeout=5.0) as ctrl:
                    ctrl.sendall(wire.encode_completion(receiver.npackets))
        return failure

    send = BurstSend(data_out, data_addr)
    if drop_rate or corrupt_rate or kill_tx is not None:
        send = FaultySend(send, drop_rate, corrupt_rate, kill_tx, seed)
    driver = SendDriver(sender, data, send, session)
    if tuning is not None:
        # Loopback owns both endpoints (like the DES), so the tuner
        # drives rate and batch size on the sender and F on the
        # in-process receiver.
        from repro.tuning import make_tuner

        driver.tuner = make_tuner(
            tuning, sender=sender, receiver=receiver, telemetry=telemetry,
            transfer_id=session.transfer_id if session is not None else 0)

    def poll_completion() -> None:
        try:
            conn, _addr = listener.accept()
        except BlockingIOError:
            return
        with conn:
            conn.settimeout(2.0)
            wire.expect(wire.read_frame(conn, wire.ControlDecoder()),
                        wire.Completion)
            driver.on_completion(time.monotonic())

    rx = Endpoint(receive(), [data_sock, ack_out])
    tx = Endpoint(sender_turns(driver, ack_sock, poll_completion),
                  [ack_sock, data_out, listener])
    start = time.monotonic()
    run_endpoints([tx, rx], deadline)
    duration = max(time.monotonic() - start, 1e-9)

    crashed = "sender" if tx.crashed else "receiver" if rx.crashed else None
    completed = sender.complete and receiver.complete and crashed is None
    checksum_ok = completed and buffer == data
    return LoopbackResult(
        nbytes=nbytes,
        duration=duration,
        throughput_bps=nbytes * 8.0 / duration,
        checksum_ok=checksum_ok,
        packets_sent=sender.stats.packets_sent,
        packets_retransmitted=sender.stats.retransmissions,
        duplicates_received=receiver.stats.packets_duplicate,
        acks_sent=receiver.stats.acks_built,
        wasted_fraction=sender.wasted_fraction,
        completed=completed,
        failure_reason=(rx.failure_reason if rx.crashed
                        else tx.failure_reason or rx.failure_reason),
        stall_events=sender.stats.stall_events,
        stall_recoveries=sender.stats.stall_recoveries,
        corrupt_dropped=(receiver.stats.packets_corrupt
                         + sender.stats.acks_corrupt),
        stale_epoch_dropped=(receiver.stats.stale_epoch_data
                             + sender.stats.stale_epoch_acks),
        resumed_packets=sender.stats.resumed_packets,
        crashed=crashed,
    )
