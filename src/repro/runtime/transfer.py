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
— with both endpoints here; the file endpoints of
:mod:`repro.runtime.files` take their handshakes as turns too, through
:func:`connecting`, :func:`accepting`, :func:`writing` and
:func:`reading`).

An optional ``drop_rate`` discards outgoing data datagrams at the
sender (deterministic RNG) to exercise the retransmission machinery on
an otherwise loss-free loopback path.  ``corrupt_rate`` flips one byte
in that fraction of datagrams instead (the checksum must catch them),
and ``blackhole_acks`` silences the receiver's acknowledgement and
completion channels entirely — the adversarial case that must end in a
clean stall abort rather than a hang.

Every datagram carries the session extension (transfer id 0, epoch
0), as on every real-socket path.  Crash-resume is not this harness's:
a killed endpoint and its resume from the ``.part`` file and journal
run on the file session (:mod:`repro.runtime.files`).
"""

from __future__ import annotations

import errno
import functools
import os
import select
import socket
import struct
import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Generator, Iterator, Optional,
                    Sequence)

from repro.core.config import FobsConfig
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.runtime.driver import (
    IDLE_WAIT,
    EndpointKilled,
    FaultySend,
    RecvDriver,
    SendDriver,
)

if TYPE_CHECKING:  # pragma: no cover
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
    """The driver's ``send(train) -> n_sent`` seam onto one UDP socket.

    Each run of the :class:`~repro.runtime.wire.Train` leaves as one
    buffer in one ``sendmsg`` that the kernel segments
    (``UDP_SEGMENT``), as many as its limits allow a call: 64 segments,
    one datagram's bytes.  A run of one (every 32 KiB packet, every
    :class:`FaultySend` datagram) is a plain ``sendto``, and so is
    every datagram after the first segmented send the kernel refuses
    (old kernel, another OS, a segment above the path MTU): that run is
    re-sent datagram by datagram, nothing lost and nothing doubled.
    Returns how many datagrams the socket took — fewer than given only
    when a non-blocking socket's buffer filled up, and then at the end
    of a send call.
    """

    __slots__ = ("sock", "addr", "_segmenting")

    def __init__(self, sock: socket.socket, addr=None):
        self.sock = sock
        #: Destination; a caller that learns it late sets it before the
        #: first send.
        self.addr = addr
        self._segmenting = True

    def __call__(self, train: wire.Train) -> int:
        sock, addr = self.sock, self.addr
        sent = 0
        for region, size in train.runs:
            step = size * max(min(_MAX_SEGMENTS,
                                  wire.MAX_DATAGRAM_BYTES // size), 1)
            for start in range(0, len(region) or 1, step):
                chunk = region[start:start + step]
                if self._segmenting and len(chunk) > size:
                    try:
                        sock.sendmsg([chunk], [(
                            socket.SOL_UDP, UDP_SEGMENT,
                            _SEGMENT_SIZE.pack(size))], 0, addr)
                    except BlockingIOError:
                        return sent
                    except OSError:
                        # Refused, so nothing of it left: it goes out
                        # below, and nothing more is segmented.
                        self._segmenting = False
                    else:
                        sent += -(-len(chunk) // size)
                        continue
                try:
                    for at in range(0, len(chunk) or 1, size):
                        sock.sendto(chunk[at:at + size], addr)
                        sent += 1
                except BlockingIOError:
                    return sent
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
    """Hand what is queued on non-blocking ``sock`` to ``handle(train,
    now)``, one call per read: until the kernel has no more (EAGAIN),
    ``budget`` datagrams have been handed over (the rest stays queued,
    the socket readable: for a loop with other work to do between
    calls), ``handle`` returns true, or ``handle`` closed the socket.
    A read is one datagram, or — after :func:`accept_trains` — a train
    of them; either way ``handle`` gets it as one region, a
    :class:`~repro.runtime.wire.Train` of one run whose size is the
    ``UDP_GRO`` segment size (the last datagram may be shorter).  The
    region windows the one reusable ``rxbuf`` (``recv(65535)``
    allocates per datagram), so ``handle`` must consume it before
    returning.
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
        if not 0 < size < nrecv:
            size = nrecv or 1
        budget -= -(-nrecv // size) or 1
        if handle(wire.Train([(rxview[:nrecv], size)]), now):
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
            BurstSend(tx, rx.getsockname())(
                wire.Train([(memoryview(b"abcde"), 2)]))
            trains = []
            drain(rx, lambda train, _now: trains.append(
                [bytes(view) for view in train]) or True, 0.0, bytearray(64))
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

    With packets still unacknowledged the completion cannot be due, so
    ``poll_completion`` (an ``accept`` or a read that mostly finds
    nothing) is asked at most once per ``IDLE_WAIT``; once all are
    acknowledged, every turn, so a normal completion is not delayed.
    """
    sender = driver.sender
    rxbuf = bytearray(65535)
    next_probe = 0.0

    def on_acks(train, now: float) -> None:
        for datagram in train:
            driver.on_ack_datagram(datagram, now)

    while True:
        now = time.monotonic()
        drain(ack_sock, on_acks, now, rxbuf)
        # sender.failure_reason carries the last step's stall diagnosis;
        # terminate cleanly well before the deadline.
        failure = None
        if now >= next_probe or sender.all_acked:
            next_probe = now + IDLE_WAIT
            failure = poll_completion()
        failure = failure or sender.failure_reason
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

    def on_data(train, now: float) -> bool:
        for ack in driver.on_burst(train, now):
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
    #: is due; what it returns becomes :attr:`result`.
    turns: Optional[Iterator[float]] = None
    #: Sockets it owns, closed as it leaves the loop.
    socks: list = field(default_factory=list)
    #: What its next turn reads (writes): one turning ready ends the
    #: loop's sleep early.  Nothing may be here that the turns leave
    #: unread, or the loop spins.
    reads: Sequence = ()
    writes: Sequence = ()
    #: What the turns returned (the data plane's: the failure, None =
    #: completed), or the crash's message.
    result: object = None
    #: Ended by crash injection (:class:`EndpointKilled`).
    crashed: bool = False


def run_endpoints(endpoints: list, deadline: float = float("inf")) -> None:
    """Give every live :class:`Endpoint` its turn, on this thread, then
    sleep until the earliest wakeup asked for or until a socket one of
    them waits on turns ready.  Any exception but the crash injection
    reaches the caller as raised, the other endpoints' turns closed;
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
                    end.result = str(ended) if end.crashed else ended.value
                    live.remove(end)
                    for sock in end.socks:
                        sock.close()
            if live and wait > 0.0:
                # poll (no FD_SETSIZE bound) counts whole milliseconds: a
                # shorter wait, a paced batch's, sleeps if nothing is ready.
                waiter = select.poll()
                for end in live:
                    for sock in end.reads:
                        waiter.register(sock, select.POLLIN)
                    for sock in end.writes:
                        waiter.register(sock, select.POLLOUT)
                if wait >= 1e-3:
                    waiter.poll(wait * 1e3)
                elif not waiter.poll(0):
                    time.sleep(wait)
    finally:
        for end in live:
            getattr(end.turns, "close", lambda: None)()
            for sock in end.socks:
                sock.close()


# The control plane's turns: a handshake waits in run_endpoints' one
# poll, never in a blocking call, so its peer may share the thread.

def waiting(end: Endpoint, deadline: float, reads: Sequence = (),
            writes: Sequence = ()) -> Iterator[float]:
    """One turn of ``end`` spent until ``reads`` turn readable or
    ``writes`` writable; ``TimeoutError`` past ``deadline``."""
    if time.monotonic() > deadline:
        raise TimeoutError("transfer deadline exceeded")
    end.reads, end.writes = reads, writes
    yield MAX_WAIT


def connecting(end: Endpoint, addr, deadline: float
               ) -> Generator[float, None, socket.socket]:
    """A non-blocking TCP connection to ``addr``, made across turns
    (asked again, connect says whether the handshake has finished)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setblocking(False)
    try:
        while (err := sock.connect_ex(addr)) in (errno.EINPROGRESS,
                                                  errno.EALREADY):
            yield from waiting(end, deadline, writes=[sock])
        if err not in (0, errno.EISCONN):
            raise OSError(err, os.strerror(err))
    except BaseException:
        sock.close()
        raise
    return sock


def accepting(end: Endpoint, listener: socket.socket, deadline: float
              ) -> Generator[float, None, tuple]:
    """The next connection on non-blocking ``listener``, non-blocking."""
    while True:
        try:
            conn, peer = listener.accept()
        except BlockingIOError:
            yield from waiting(end, deadline, reads=[listener])
        else:
            conn.setblocking(False)
            return conn, peer


def writing(end: Endpoint, sock: socket.socket, payload: bytes,
            deadline: float) -> Iterator[float]:
    """``payload`` onto non-blocking ``sock``, what its buffer takes a
    turn: a VERIFY manifest or RESUME bitmap can outgrow it, and a
    ``sendall`` would wait on a peer that needs this thread to read."""
    view = memoryview(payload)
    while view:
        try:
            view = view[sock.send(view):]
        except BlockingIOError:
            yield from waiting(end, deadline, writes=[sock])


def reading(end: Endpoint, sock: socket.socket, decoder: wire.ControlDecoder,
            deadline: float) -> Generator[float, None, object]:
    """The next control frame on non-blocking ``sock``, through its
    ``decoder``."""
    while (frame := wire.read_frame(sock, decoder)) is None:
        yield from waiting(end, deadline, reads=[sock])
    return frame


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
    """
    config = config if config is not None else FobsConfig(ack_frequency=32)
    wire.check_npackets(config.npackets(nbytes))
    if data is None:
        import numpy as np

        rng = np.random.default_rng(seed)
        data = rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()
    elif len(data) != nbytes:
        raise ValueError("len(data) must equal nbytes")

    session = wire.SessionContext(0)
    receiver = FobsReceiver(config, nbytes)
    sender = FobsSender(config, nbytes, rng=seed)
    buffer = bytearray(nbytes)
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

    def place(offset: int, payload) -> None:
        buffer[offset:offset + len(payload)] = payload

    def send_ack(ack: bytes) -> None:
        if not blackhole_acks:
            ack_out.sendto(ack, ack_addr)

    def receive() -> Iterator[float]:
        failure = yield from receiver_turns(
            RecvDriver(receiver, place, session), data_sock, send_ack)
        if failure is None and not blackhole_acks:
            # Normal completion: the completion signal over TCP
            # (suppressed, like the ACKs, in the adversarial mode).
            with socket.create_connection(listener.getsockname(),
                                          timeout=5.0) as ctrl:
                ctrl.sendall(wire.encode_completion(receiver.npackets))
        return failure

    send = BurstSend(data_out, data_addr)
    if drop_rate or corrupt_rate:
        send = FaultySend(send, drop_rate, corrupt_rate, seed=seed)
    driver = SendDriver(sender, data, send, session)
    if tuning is not None:
        # Loopback owns both endpoints (like the DES), so the tuner
        # drives rate and batch size on the sender and F on the
        # in-process receiver.
        from repro.tuning import make_tuner

        driver.tuner = make_tuner(
            tuning, sender=sender, receiver=receiver, telemetry=telemetry,
            transfer_id=session.transfer_id)

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

    rx = Endpoint(receive(), [data_sock, ack_out], [data_sock])
    tx = Endpoint(sender_turns(driver, ack_sock, poll_completion),
                  [ack_sock, data_out, listener], [ack_sock])
    start = time.monotonic()
    run_endpoints([tx, rx], deadline)
    duration = max(time.monotonic() - start, 1e-9)

    completed = sender.complete and receiver.complete
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
        failure_reason=tx.result or rx.result,
        stall_events=sender.stats.stall_events,
        stall_recoveries=sender.stats.stall_recoveries,
        corrupt_dropped=(receiver.stats.packets_corrupt
                         + sender.stats.acks_corrupt),
    )
