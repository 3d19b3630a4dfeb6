"""Shared helpers for the test suite (imported by test modules).

Kept outside conftest.py so the import name is unambiguous when tests
and benchmarks run in the same pytest invocation.
"""

from __future__ import annotations

import contextlib
import os
import socket
import struct
import threading
import time

import numpy as np

from repro.core.config import FobsConfig
from repro.core.packets import AckPacket, DataPacket
from repro.runtime import wire
from repro.runtime.transfer import run_endpoints
from repro.server import ObjectServer
from repro.simnet.topology import HopSpec, MBPS, Network, PathSpec, build_path


class RunningServer:
    """An :class:`ObjectServer` on 127.0.0.1, bound (``port`` known)
    before anything runs.

    :meth:`run` runs it and the clients' endpoints in one
    ``run_endpoints`` call on the calling thread and drains it once the
    last client has ended.  As a context manager it serves from a
    thread instead, drained on exit, for a peer that must block: a raw
    blocking socket, a client that outlives a daemon.
    """

    def __init__(self, root, **kwargs):
        kwargs.setdefault("bind", "127.0.0.1")
        self.server = ObjectServer(str(root), **kwargs)
        self.daemon = self.server.endpoint()
        #: Its stats once it has stopped.
        self.snapshot = None
        self._thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def port(self):
        return self.server.port

    def run(self, *clients, timeout=60.0):
        """The clients' results, each client an endpoint."""
        pending = len(clients)

        def then_drain(turns):
            nonlocal pending
            try:
                return (yield from turns)
            finally:
                pending -= 1
                if not pending:
                    self.server.request_drain()

        for end in clients:
            end.turns = then_drain(end.turns)
        self._serve(clients, time.monotonic() + timeout)
        return [end.result for end in clients]

    def _serve(self, clients=(), deadline=float("inf")):
        try:
            # The daemon's turn follows the clients': the one after the
            # last client's sees the drain and ends the loop.
            run_endpoints([*clients, self.daemon], deadline)
        finally:
            self.snapshot = self.server.stats()

    def start(self):
        self._thread.start()
        return self

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.server.request_drain()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            self.server.stop()
            self._thread.join(timeout=5)


def after(ready, end):
    """``end``, its first turn held back until ``ready()``."""
    def turns(inner=end.turns):
        while not ready():
            yield 0.005
        return (yield from inner)

    end.turns = turns()
    return end


def rewrite_after_lstat(monkeypatch, victim: str, data: bytes) -> None:
    """Make the next directory walk write ``data`` over the file at
    ``victim`` right after its entry's ``stat()``: the file changes
    between a scan's ``lstat`` and its read, however the scan reads."""
    real_scandir = os.scandir

    class Entry:
        def __init__(self, entry):
            self._entry = entry

        def __getattr__(self, name):
            return getattr(self._entry, name)

        def stat(self, **kwargs):
            st = self._entry.stat(**kwargs)
            if self._entry.path == victim:
                with open(victim, "wb") as fh:
                    fh.write(data)
            return st

    @contextlib.contextmanager
    def scandir(path):
        with real_scandir(path) as it:
            yield [Entry(entry) for entry in it]

    monkeypatch.setattr(os, "scandir", scandir)


def free_port() -> int:
    """A TCP port on 127.0.0.1 the kernel just handed out and nobody holds.

    A fixed number in the ephemeral range can already belong to an
    earlier client socket; asking the kernel cannot.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def tiny_path(
    seed: int = 0,
    bandwidth_bps: float = 100 * MBPS,
    delay: float = 1e-3,
    queue_bytes: int = 64 * 1024,
    loss_rate: float = 0.0,
) -> Network:
    """A minimal two-hop path for fast protocol tests (RTT = 4*delay)."""
    spec = PathSpec(
        name="tiny",
        a_name="a",
        b_name="b",
        hops=(
            HopSpec(bandwidth_bps, delay, queue_bytes=queue_bytes, loss_rate=loss_rate),
            HopSpec(bandwidth_bps, delay, queue_bytes=queue_bytes),
        ),
        bottleneck_bps=bandwidth_bps,
    )
    return build_path(spec, seed=seed)


def quick_config(**overrides) -> FobsConfig:
    """FOBS config suited to sub-MB test transfers."""
    defaults = dict(ack_frequency=16)
    defaults.update(overrides)
    return FobsConfig(**defaults)


def stepwise(scheduler, acked, size):
    """The reference ``take_batch``: ``size`` x (next_seq, record_sent),
    written out here so no scheduler is checked against its own code."""
    seqs, trans = [], []
    for _ in range(size):
        seq = scheduler.next_seq(acked)
        if seq is None:
            break
        seqs.append(seq)
        trans.append(int(scheduler.send_count[seq]))
        scheduler.record_sent(seq)
    return seqs, trans


class DribbleSocket:
    """A TCP socket whose ``recv`` hands over at most ``limit`` bytes a
    call -- what a stream may do to any frame, made certain."""

    def __init__(self, sock, limit: int = 5):
        self._sock = sock
        self._limit = limit

    def recv(self, nbytes: int) -> bytes:
        return self._sock.recv(min(nbytes, self._limit))

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._sock.close()


#: The session the codec tests frame their datagrams with.
SESSION = wire.SessionContext(0x5E55)


def raw_offer(filesize: int, packet_size: int, flags: int = 0,
              transfer_id: int = 0x5EED, epoch: int = 0) -> bytes:
    """OFFER bytes packed by hand (``FLAG_RESUME`` always set), so a
    test can put on the wire what ``wire.Offer`` refuses to construct."""
    return struct.pack("!IQIIIIQI", wire.OFFER2_MAGIC, filesize,
                       packet_size, 40001, flags | wire.FLAG_RESUME, 0,
                       transfer_id, epoch)


def joined(datagrams) -> wire.Train:
    """``datagrams`` laid end to end as the kernel moves them: each run
    of equal lengths, closed by at most one shorter datagram, copied
    into one buffer of its own (a ``UDP_GRO`` read is one such run)."""
    runs: list = []
    size = 0
    for datagram in datagrams:
        # An empty datagram is a run (an empty region) of its own.
        if (runs and runs[-1][0] and datagram
                and len(runs[-1][0]) % size == 0 and len(datagram) <= size):
            runs[-1][0].extend(datagram)
        else:
            size = len(datagram) or 1
            runs.append((bytearray(datagram), size))
    return wire.Train([(memoryview(region), size) for region, size in runs])


def decode_burst(datagrams, checksum=False, session=SESSION):
    """``wire.decode_data_burst`` with each result tuple made the
    ``(DataPacket, payload)`` pair ``wire.decode_data`` returns."""
    results, errors = wire.decode_data_burst(datagrams, checksum,
                                             session=session)
    return [result and (DataPacket.unchecked(
        result[0], result[1], len(result[3]), result[2], session.epoch),
        result[3])
        for result in results], errors


def packed(bools) -> bytes:
    """A bool per packet as the packed image an ACK or RESUME carries
    (MSB first, padding clear): the reference ``np.packbits``."""
    return np.packbits(np.asarray(bools, dtype=bool)).tobytes()


def ack_of(ack_id, received_count, bools, epoch=0) -> AckPacket:
    """An :class:`AckPacket` whose bitmap is ``bools``, packed."""
    return AckPacket(ack_id=ack_id, received_count=received_count,
                     bitmap=packed(bools), npackets=len(bools), epoch=epoch)


def unpacked(image, npackets):
    """A packed image back to one bool per packet (``np.unpackbits``)."""
    return np.unpackbits(np.frombuffer(image, dtype=np.uint8),
                         count=npackets).astype(bool)
