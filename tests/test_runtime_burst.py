"""The burst is the unit on the real-socket path: equivalence and trains.

``RecvDriver.on_burst`` must leave exactly what a per-datagram loop
leaves, whatever the train holds; ``BurstSend`` and ``drain`` must move
the same datagrams in the same order whether or not the kernel offers
UDP segmentation offload, choosing by what the socket calls return.
No sleeps: sockets are waited on with ``select``.
"""

from __future__ import annotations

import errno
import select
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitmap import PacketBitmap
from repro.core.config import FobsConfig
from repro.core.packets import DataPacket
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.runtime.driver import IDLE_WAIT, RecvDriver, SendDriver
from repro.runtime.transfer import (
    UDP_GRO,
    BurstSend,
    accept_trains,
    drain,
    run_loopback_transfer,
    udp_offload,
)

PSIZE = 16
SESSION = wire.SessionContext(transfer_id=0xF0B5, epoch=3)
VARIANTS = [(checksum, session) for checksum in (False, True)
            for session in (None, SESSION)]


# ----------------------------------------------------------------------
# (a) on_burst == the per-datagram loop
# ----------------------------------------------------------------------

class Endpoint:
    """A receiver over a store and a journal that both keep evidence."""

    def __init__(self, checksum, session, npackets, tail, fail_at):
        config = FobsConfig(packet_size=PSIZE, ack_frequency=3,
                            checksum=checksum, recv_buffer=1 << 16)
        self.checksum, self.session = checksum, session
        self.store = bytearray((npackets - 1) * PSIZE + tail)
        self.writes = 0
        self.fail_at = fail_at
        #: Sequence numbers, in the order they were logged.
        self.journal: list = []
        #: offset -> the payload last written there.
        self.written: dict = {}
        self.fault = None
        self.receiver = FobsReceiver(
            config, len(self.store), journal=self,
            epoch=session.epoch if session is not None else 0)

    def record(self, seq: int) -> None:
        chunk = bytes(self.store[seq * PSIZE:(seq + 1) * PSIZE])
        assert self.written.get(seq * PSIZE) == chunk, "log before data"
        self.journal.append(seq)

    def write_at(self, offset: int, payload) -> None:
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        self.store[offset:offset + len(payload)] = payload
        self.written[offset] = bytes(payload)

    def state(self) -> dict:
        rx = self.receiver
        return dict(stats=vars(rx.stats), bitmap=rx.bitmap.array.tolist(),
                    store=bytes(self.store), journal=self.journal,
                    last_data_time=rx.last_data_time,
                    next_ack_id=rx._next_ack_id, fault=self.fault)


def reference_train(end: Endpoint, train, now: float):
    """The per-datagram receive loop as it stood before ``on_burst``,
    on :func:`wire.decode_data`: returns (ACK bytes, first ValueError)."""
    rx = end.receiver
    acks, undecodable = [], None
    for datagram in train:
        try:
            pkt, payload = wire.decode_data(
                datagram, checksum=end.checksum, session=end.session)
        except wire.ChecksumError:
            rx.on_corrupt_data(now)
        except (wire.StaleEpochError, wire.SessionMismatchError):
            rx.on_stale_data(0)
        except ValueError as exc:
            undecodable = undecodable or exc
        else:
            offset = pkt.seq * PSIZE
            if (pkt.total != rx.npackets or len(payload) != min(
                    PSIZE, rx.total_bytes - offset)):
                rx.on_corrupt_data(now)
            else:
                try:
                    end.write_at(offset, payload)
                    ack = rx.on_data(pkt.seq, now)
                except OSError as exc:
                    end.fault = f"storage fault [ENOSPC] at part: {exc}"
                    break
                if ack is not None:
                    acks.append(wire.encode_ack(
                        ack, checksum=end.checksum, session=end.session))
        if rx.complete:
            break
    return acks, undecodable


KINDS = ("good", "good", "good", "flipped", "stale", "foreign",
         "wrong_total", "over_long", "truncated")


@st.composite
def transfers(draw):
    """Object geometry plus a few trains of mixed datagrams."""
    variant = draw(st.sampled_from(range(len(VARIANTS))))
    checksum, session = VARIANTS[variant]
    npackets = draw(st.integers(2, 10))
    tail = draw(st.integers(1, PSIZE))
    nbytes = (npackets - 1) * PSIZE + tail
    data = bytes(draw(st.binary(min_size=nbytes, max_size=nbytes)))
    trains = []
    for _ in range(draw(st.integers(1, 4))):
        train = []
        for _ in range(draw(st.integers(1, 10))):
            kind = draw(st.sampled_from(KINDS))
            seq = draw(st.integers(0, npackets - 1))
            payload = data[seq * PSIZE:(seq + 1) * PSIZE]
            total, sess = npackets, session
            if kind == "stale":
                sess = wire.SessionContext(SESSION.transfer_id, epoch=2)
            elif kind == "foreign":
                sess = wire.SessionContext(SESSION.transfer_id + 1, epoch=3)
            elif kind == "wrong_total":
                # Above seq: another object's geometry; at or below:
                # not a data packet at all.
                total = draw(st.integers(1, 2 * npackets))
                if seq >= total:
                    seq = draw(st.integers(0, npackets + 2))
            elif kind == "over_long":
                payload += b"\xee" * draw(st.integers(1, 8))
            datagram = bytearray(_encode(seq, total, payload, checksum, sess))
            if kind == "flipped":
                datagram[draw(st.integers(0, len(datagram) - 1))] ^= draw(
                    st.integers(1, 255))
            elif kind == "truncated":
                del datagram[draw(st.integers(0, len(datagram) - 1)):]
            train.append(bytes(datagram))
        # Some gaps cross ack_refresh_interval (5 s), most do not.
        trains.append((train, draw(st.sampled_from((0.001, 0.5, 6.0)))))
    fail_at = draw(st.one_of(st.none(), st.integers(1, 12)))
    return variant, npackets, tail, trains, fail_at


def _encode(seq, total, payload, checksum, session) -> bytes:
    """``wire.encode_data`` minus DataPacket's range check, so a train
    can carry ``seq >= total``."""
    pkt = DataPacket.unchecked(seq, total, len(payload), 0, 0)
    return wire.encode_data(pkt, payload, checksum, session)


@settings(max_examples=200, deadline=None)
@given(transfer=transfers())
def test_on_burst_leaves_what_the_per_datagram_loop_leaves(transfer):
    variant, npackets, tail, trains, fail_at = transfer
    checksum, session = VARIANTS[variant]
    ours = Endpoint(checksum, session, npackets, tail, fail_at)
    ref = Endpoint(checksum, session, npackets, tail, fail_at)
    driver = RecvDriver(ours.receiver, ours.write_at, session)
    now = 0.0
    for train, gap in trains:
        now += gap
        ref_acks, ref_error = reference_train(ref, train, now)
        error = None
        try:
            # The views window one buffer, as drain's do.
            acks = driver.on_burst(
                [memoryview(bytearray(d)) for d in train], now)
        except ValueError as exc:
            error, acks = exc, None
        ours.fault = driver.fault
        assert ours.state() == ref.state()
        assert (type(error), str(error)) == (type(ref_error), str(ref_error))
        if error is None:
            assert acks == ref_acks
        if ref.fault is not None or ref.receiver.complete:
            break


def test_a_bad_datagram_never_takes_its_neighbours_down():
    end = Endpoint(True, SESSION, npackets=4, tail=PSIZE, fail_at=None)
    driver = RecvDriver(end.receiver, end.write_at, SESSION)
    good = [_encode(seq, 4, bytes([seq + 1]) * PSIZE, True, SESSION)
            for seq in range(4)]
    flipped = bytearray(good[1])
    flipped[-1] ^= 1
    with pytest.raises(ValueError, match="shorter than data header"):
        driver.on_burst([good[0], bytes(flipped), b"\x00", good[2]], 1.0)
    # The undecodable one raised only after the rest were processed.
    assert end.receiver.bitmap.array.tolist() == [True, False, True, False]
    assert end.receiver.stats.packets_corrupt == 1
    # Completion ends the train: the duplicate behind it is not counted.
    acks = driver.on_burst([good[1], good[3], good[0]], 2.0)
    assert end.receiver.complete and len(acks) == 2
    assert end.receiver.stats.packets_duplicate == 0


def test_a_clean_loopback_builds_no_packet_object_and_never_rescans(
        monkeypatch):
    """Counts that repeat exactly: over one clean 1,024-packet loopback
    no ``DataPacket`` is constructed by any of its three routes
    (``DataPacket(...)``, ``DataPacket.unchecked``, the stamping in
    ``FobsSender.next_batch``) and the bitmap's missing list is never
    rebuilt -- the send path moves columns, the sweep scans flags."""
    calls = dict.fromkeys(
        ("__post_init__", "unchecked", "next_batch", "missing_indices"), 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(DataPacket, "__post_init__")
    counted(DataPacket, "unchecked")
    counted(FobsSender, "next_batch")
    counted(PacketBitmap, "missing_indices")
    config = FobsConfig(packet_size=1024, ack_frequency=64, batch_size=16,
                        checksum=True)
    result = run_loopback_transfer(nbytes=1 << 20, config=config)
    assert result.completed and result.checksum_ok
    assert (result.packets_sent, result.acks_sent) == (1024, 16)
    assert not any(calls.values()), calls


# ----------------------------------------------------------------------
# (b) real UDP on loopback, where the kernel has the offload
# ----------------------------------------------------------------------

needs_offload = pytest.mark.skipif(
    not udp_offload(), reason="kernel without UDP_SEGMENT/UDP_GRO")


class CountingSocket(socket.socket):
    """A real UDP socket that counts its segmented and plain sends."""

    def __init__(self):
        super().__init__(socket.AF_INET, socket.SOCK_DGRAM)
        self.calls = {"sendmsg": 0, "sendto": 0}

    def sendmsg(self, *args):
        self.calls["sendmsg"] += 1
        return super().sendmsg(*args)

    def sendto(self, *args):
        self.calls["sendto"] += 1
        return super().sendto(*args)


def receive_trains(rx: socket.socket, expected: int) -> list:
    """Drain ``rx`` until ``expected`` datagrams arrived: one list per
    ``handle`` call."""
    trains: list = []
    rxbuf = bytearray(65535)
    while sum(map(len, trains)) < expected:
        ready, _, _ = select.select([rx], (), (), 5.0)
        assert ready, f"only {trains} of {expected} datagrams arrived"
        drain(rx, lambda views, _now: trains.append(
            [bytes(view) for view in views]), 0.0, rxbuf)
    return trains


@pytest.fixture
def udp_pair():
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    rx.bind(("127.0.0.1", 0))
    rx.setblocking(False)
    tx = CountingSocket()
    yield rx, tx
    rx.close()
    tx.close()


@needs_offload
def test_short_last_packet_mid_batch_is_one_run_per_size(udp_pair):
    rx, tx = udp_pair
    accept_trains(rx)
    # A retransmission pass: the object's short last packet sits in the
    # middle of the batch.
    batch = ([bytes([i]) * 40 for i in range(3)] + [b"\xff" * 17]
             + [bytes([i]) * 40 for i in range(3, 7)])
    assert BurstSend(tx, rx.getsockname())(batch) == len(batch)
    assert tx.calls == {"sendmsg": 2, "sendto": 0}
    trains = receive_trains(rx, len(batch))
    # Two trains, the first closed by its short tail.
    assert trains == [batch[:4], batch[4:]]


@needs_offload
def test_runs_respect_the_kernel_limits_and_singles_stay_sendto(udp_pair):
    rx, tx = udp_pair
    accept_trains(rx)
    send = BurstSend(tx, rx.getsockname())
    # 70 equal datagrams: at most 64 segments per call.
    batch = [bytes([i]) * 32 for i in range(70)]
    assert send(batch) == 70
    assert tx.calls == {"sendmsg": 2, "sendto": 0}
    assert [len(t) for t in receive_trains(rx, 70)] == [64, 6]
    # 30 KB datagrams: at most 65,507 bytes per call.
    big = [bytes([i]) * 30_000 for i in range(4)]
    assert send(big) == 4
    assert tx.calls == {"sendmsg": 4, "sendto": 0}
    assert sum(receive_trains(rx, 4), []) == big
    # A longer view never joins a run, and a run of one is a sendto.
    odd = [b"a" * 20, b"b" * 30, b"c" * 40_000]
    assert send(odd) == 3
    assert tx.calls == {"sendmsg": 4, "sendto": 3}
    assert receive_trains(rx, 3) == [[d] for d in odd]


# ----------------------------------------------------------------------
# (c) the fallbacks, chosen by what the socket calls return
# ----------------------------------------------------------------------

class FakeSocket:
    """Records sends; ``sendmsg`` raises what it is told to."""

    def __init__(self, refuse=()):
        self.refuse = list(refuse)      # one entry per sendmsg call
        self.sendmsg_calls = 0
        self.runs: list = []            # datagrams per accepted sendmsg
        self.wire: list = []            # (how, datagram), in order

    def sendmsg(self, buffers, ancdata, flags, addr):
        self.sendmsg_calls += 1
        error = self.refuse.pop(0) if self.refuse else None
        if error is not None:
            raise error
        self.runs.append(len(buffers))
        self.wire.extend(("sendmsg", bytes(b)) for b in buffers)

    def sendto(self, datagram, addr):
        self.wire.append(("sendto", bytes(datagram)))


@pytest.mark.parametrize("code", [errno.EINVAL, errno.ENOPROTOOPT])
def test_a_refused_segmented_send_falls_back_for_good(code):
    sock = FakeSocket(refuse=[OSError(code, "refused")])
    send = BurstSend(sock, ("127.0.0.1", 9))
    first = [bytes([i]) * 8 for i in range(5)] + [b"\xff" * 3]
    assert send(first) == len(first)
    # Every datagram of that burst left exactly once, in order.
    assert sock.wire == [("sendto", d) for d in first]
    later = [bytes([i]) * 8 for i in range(4)]
    assert send(later) == 4 and send(later) == 4
    assert sock.sendmsg_calls == 1
    assert sock.wire[len(first):] == [("sendto", d) for d in later * 2]


def test_a_full_socket_stops_at_a_run_boundary_and_the_tail_follows():
    # One batch of 70 is two runs (64 + 6); the socket fills up between.
    config = FobsConfig(packet_size=PSIZE, batch_size=70, max_batch_size=70,
                        checksum=True, recv_buffer=1 << 16)
    data = bytes(range(256)) * 5                     # 80 packets of 16
    sock = FakeSocket(refuse=[None, BlockingIOError()])
    sender = FobsSender(config, len(data), rng=np.random.default_rng(0))
    driver = SendDriver(sender, data, BurstSend(sock, ("127.0.0.1", 9)))
    assert driver.step(0.0) == IDLE_WAIT             # 64 out, 6 kept
    assert sock.runs == [64] and sock.sendmsg_calls == 2
    # EAGAIN is not a refusal: the driver's tail goes out first, still
    # segmented, before the next batch is picked.
    driver.step(0.01)
    assert sock.runs[:2] == [64, 6]
    assert {how for how, _d in sock.wire} == {"sendmsg"}
    seqs = [wire.decode_data(d, checksum=True)[0].seq for _h, d in sock.wire]
    assert seqs[:70] == list(range(70))


def test_a_socket_without_gro_still_drains_every_datagram():
    class PlainSocket(socket.socket):
        def setsockopt(self, level, option, value):
            if (level, option) == (socket.SOL_UDP, UDP_GRO):
                raise OSError(errno.ENOPROTOOPT, "Protocol not available")
            return super().setsockopt(level, option, value)

    with PlainSocket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
            CountingSocket() as tx:
        accept_trains(rx)                            # refused, swallowed
        rx.bind(("127.0.0.1", 0))
        rx.setblocking(False)
        batch = [bytes([i]) * 24 for i in range(5)] + [b"\xff" * 9]
        assert BurstSend(tx, rx.getsockname())(batch) == len(batch)
        # One datagram per read, same bytes, same order — whether the
        # sending side segmented in the kernel or fell back itself.
        assert receive_trains(rx, len(batch)) == [[d] for d in batch]
