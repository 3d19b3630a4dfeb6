"""Shared-socket demux: transfer-id routing and stale-epoch rejection."""

import struct

import numpy as np
import pytest

from _support import packed
from repro.core.packets import AckPacket, DataPacket
from repro.runtime import wire
from repro.server import (
    RECEIVING,
    SENDING,
    RegisteredTransfer,
    TransferRegistry,
)


class TestRouting:
    def test_routes_to_registered_entry(self):
        registry = TransferRegistry()
        reg = RegisteredTransfer(0xAB, epoch=1, kind=SENDING, entry="S")
        registry.add(reg)
        assert registry.route(0xAB, 1) is reg
        assert registry.route(0xAB, 1, kind=SENDING) is reg

    def test_unknown_id_misses_without_counting(self):
        registry = TransferRegistry()
        assert registry.route(0xDEAD, 0) is None
        assert registry.counters.unknown_transfer == 0
        registry.count_unknown()  # the daemon counts the *final* miss
        assert registry.counters.unknown_transfer == 1

    def test_stale_epoch_dropped_and_counted(self):
        registry = TransferRegistry()
        registry.add(RegisteredTransfer(7, epoch=2, kind=RECEIVING))
        assert registry.route(7, 1) is None
        assert registry.route(7, 3) is None
        assert registry.counters.stale_epoch == 2
        assert registry.route(7, 2) is not None

    def test_kind_mismatch_is_silent(self):
        """Demux probes both interpretations; a kind miss is not a drop."""
        registry = TransferRegistry()
        registry.add(RegisteredTransfer(9, epoch=0, kind=SENDING))
        assert registry.route(9, 0, kind=RECEIVING) is None
        assert registry.counters.stale_epoch == 0
        assert registry.counters.unknown_transfer == 0


class TestLifecycle:
    def test_add_supersedes_prior_attempt(self):
        registry = TransferRegistry()
        old = RegisteredTransfer(5, epoch=0, kind=SENDING, entry="old")
        new = RegisteredTransfer(5, epoch=1, kind=SENDING, entry="new")
        assert registry.add(old) is None
        assert registry.add(new) is old
        assert registry.counters.superseded == 1
        assert registry.route(5, 1).entry == "new"
        assert len(registry) == 1

    def test_remove_and_contains(self):
        registry = TransferRegistry()
        registry.add(RegisteredTransfer(3, epoch=0, kind=RECEIVING))
        assert 3 in registry
        assert registry.remove(3).transfer_id == 3
        assert 3 not in registry and registry.remove(3) is None

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            RegisteredTransfer(1, epoch=0, kind="bogus")


class TestPeekIntegration:
    """peek_session + registry is the real demux path end to end."""

    def test_ack_datagram_routes_to_sending_entry(self):
        session = wire.SessionContext(transfer_id=0x1234, epoch=3)
        ack = wire.encode_ack(
            AckPacket(ack_id=0, received_count=10, bitmap=packed([1] * 10),
                      npackets=10),
            session=session)
        peeked = wire.peek_session(ack, "ack")
        assert peeked == (0x1234, 3)
        registry = TransferRegistry()
        reg = RegisteredTransfer(0x1234, epoch=3, kind=SENDING)
        registry.add(reg)
        assert registry.route(*peeked, kind=SENDING) is reg

    def test_data_datagram_routes_to_receiving_entry(self):
        session = wire.SessionContext(transfer_id=0x77, epoch=0)
        datagram = wire.encode_data(
            DataPacket(seq=4, total=32, payload_bytes=64), b"x" * 64,
            session=session)
        peeked = wire.peek_session(datagram, "data")
        assert peeked == (0x77, 0)
        registry = TransferRegistry()
        reg = RegisteredTransfer(0x77, epoch=0, kind=RECEIVING)
        registry.add(reg)
        assert registry.route(*peeked, kind=RECEIVING) is reg

    def test_datagram_too_short_for_extension_peeks_none(self):
        datagram = wire.encode_data(
            DataPacket(seq=0, total=1, payload_bytes=4), b"y" * 4,
            session=wire.SessionContext(transfer_id=0x77))
        assert wire.peek_session(datagram[:wire.DATA_SESSION_EXT.stop - 1],
                                 "data") is None

    def test_sessionless_garbage_peek_misses_in_registry(self):
        """peek_session doesn't validate; the registry miss is the guard.
        A DATA datagram with no session extension (what a v1 sender
        puts on the wire) peeks its payload bytes as an identity."""
        datagram = struct.pack("!IIi", 0, 1, 0) + b"y" * 32
        peeked = wire.peek_session(datagram, "data")
        assert peeked is not None  # garbage tid from payload bytes
        assert TransferRegistry().route(*peeked) is None


# ----------------------------------------------------------------------
# One demux per train: ObjectServer._route_train against the walk
# ----------------------------------------------------------------------
from dataclasses import asdict  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.config import FobsConfig  # noqa: E402
from repro.core.receiver import FobsReceiver  # noqa: E402
from repro.core.sender import FobsSender  # noqa: E402
from repro.runtime.driver import RecvDriver, SendDriver  # noqa: E402
from repro.server.daemon import ObjectServer, _RecvEntry, _SendEntry  # noqa: E402

DEMUX = FobsConfig(packet_size=32, ack_frequency=4, checksum=True)
NPACKETS = 64
PUSH_A = wire.SessionContext(0x0A0A0A0A11111111, epoch=2)
PUSH_B = wire.SessionContext(0x0B0B0B0B22222222, epoch=5)
FETCH = wire.SessionContext(0x0C0C0C0C33333333, epoch=1)
#: A sending transfer whose id is what the ACK-offset probe reads out
#: of PUSH_A's DATA datagrams (the low half of its id, then its epoch).
SHADOW = wire.SessionContext(((PUSH_A.transfer_id & 0xFFFFFFFF) << 32)
                             | PUSH_A.epoch, epoch=9)


def walk(server, views, now):
    """The parent's ``_route_train``: every datagram classified by
    itself, consecutive data datagrams of one transfer one burst."""
    burst, burst_entry = [], None
    for datagram in views:
        entry = server._route_datagram(datagram, now)
        if entry is not burst_entry and burst:
            server._on_push_data(burst_entry, burst, now)
            burst = []
        burst_entry = entry
        if entry is not None:
            burst.append(datagram)
    if burst:
        server._on_push_data(burst_entry, burst, now)


def demux_server(tmp_path, sending=FETCH):
    """A daemon with no sockets: two pushes and one fetch registered,
    every driver call logged."""
    server = ObjectServer(str(tmp_path), config=DEMUX)
    server._udp = SimpleNamespace(sendto=lambda ack, addr: len(ack))
    log = []
    nbytes = NPACKETS * DEMUX.packet_size
    client = "127.0.0.1"
    for name, session in (("a", PUSH_A), ("b", PUSH_B)):
        driver = RecvDriver(
            FobsReceiver(DEMUX, nbytes, epoch=session.epoch),
            lambda offset, payload: None, session)
        offer = SimpleNamespace(transfer_id=session.transfer_id,
                                epoch=session.epoch, ack_port=2)
        entry = _RecvEntry(session.transfer_id, driver, None, client, offer,
                           name)
        real = driver.on_burst
        driver.on_burst = (lambda views, now, name=name, real=real: log.append(
            (name, [bytes(v) for v in views])) or real(views, now))
        server._recv_entries[entry.key] = entry
        server.registry.add(RegisteredTransfer(
            session.transfer_id, session.epoch, RECEIVING, entry))
    sender = FobsSender(DEMUX, nbytes, epoch=sending.epoch)
    entry = _SendEntry(sending.transfer_id, sending, sender, client, "s")
    entry.driver = SendDriver(sender, bytes(nbytes), len, sending)
    real_ack = entry.driver.on_ack_datagram
    entry.driver.on_ack_datagram = lambda datagram, now: log.append(
        ("s", bytes(datagram))) or real_ack(datagram, now)
    server._send_entries[entry.key] = entry
    server.registry.add(RegisteredTransfer(
        sending.transfer_id, sending.epoch, SENDING, entry))
    return server, log


def outcome(server, log):
    return (log, asdict(server.registry.counters), server._bytes_received,
            [asdict(e.receiver.stats)
             for e in server._recv_entries.values()],
            [asdict(e.sender.stats) for e in server._send_entries.values()])


def data_of(session, seq, total=NPACKETS):
    return wire.encode_data(
        DataPacket(seq=seq, total=total, payload_bytes=DEMUX.packet_size),
        bytes([seq]) * DEMUX.packet_size, checksum=True, session=session)


def ack_of(session, count, ack_id):
    bitmap = np.zeros(NPACKETS, dtype=np.bool_)
    bitmap[:count] = True
    return wire.encode_ack(
        AckPacket(ack_id=ack_id, received_count=count, bitmap=packed(bitmap),
                  npackets=NPACKETS, epoch=session.epoch),
        checksum=True, session=session)


def flipped(datagram, index):
    damaged = bytearray(datagram)
    damaged[index % len(damaged)] ^= 0x40
    return bytes(damaged)


seqs = st.integers(0, NPACKETS - 1)
stale = lambda s: wire.SessionContext(s.transfer_id, s.epoch - 1)
datagrams = st.one_of(
    st.builds(data_of, st.sampled_from([PUSH_A, PUSH_A, PUSH_B]), seqs),
    st.builds(ack_of, st.just(FETCH), seqs, st.integers(0, 8)),
    st.builds(data_of, st.sampled_from([stale(PUSH_A), stale(PUSH_B)]), seqs),
    st.builds(ack_of, st.just(stale(FETCH)), seqs, st.integers(0, 8)),
    st.builds(data_of, st.just(wire.SessionContext(0xDEAD, 0)), seqs),
    st.builds(data_of, st.just(PUSH_A), seqs, st.just(NPACKETS + 1)),
    st.binary(max_size=30),
    st.builds(flipped, st.builds(data_of, st.just(PUSH_A), seqs),
              st.integers(0, 200)),
)
# Mostly what the kernel hands over — one transfer's train, perhaps
# with a stranger in it — and sometimes anything at all.
reads = st.one_of(
    st.lists(datagrams, min_size=1, max_size=12),
    st.builds(lambda first, count, odd, at: (
        [data_of(PUSH_A, (first + i) % NPACKETS) for i in range(count)][:at]
        + odd
        + [data_of(PUSH_A, (first + i) % NPACKETS) for i in range(count)][at:]),
        seqs, st.integers(1, 16), st.lists(datagrams, max_size=1),
        st.integers(0, 16)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(reads, min_size=1, max_size=6))
@example([[data_of(PUSH_A, i) for i in range(16)]])
def test_route_train_is_the_per_datagram_walk(tmp_path_factory, trains):
    """Same bursts to the same drivers in the same order, same drop
    counters, same receiver and sender statistics — whether a read is
    routed by its first datagram or datagram by datagram."""
    root = tmp_path_factory.getbasetemp()
    by_train, train_log = demux_server(root)
    by_walk, walk_log = demux_server(root)
    for now, views in enumerate(trains):
        by_train._route_train([memoryview(v) for v in views], float(now))
        walk(by_walk, [memoryview(v) for v in views], float(now))
    assert outcome(by_train, train_log) == outcome(by_walk, walk_log)


def test_a_train_is_one_lookup_and_one_burst(tmp_path):
    server, log = demux_server(tmp_path)
    routed = []
    real = server._route_datagram
    server._route_datagram = lambda d, now: routed.append(1) or real(d, now)
    train = [data_of(PUSH_A, i) for i in range(16)]
    server._route_train([memoryview(d) for d in train], 0.0)
    assert len(routed) == 1 and log == [("a", train)]
    # One stranger and every datagram is looked at again.
    train[7] = data_of(PUSH_B, 7)
    del routed[:], log[:]
    server._route_train([memoryview(d) for d in train], 0.0)
    assert len(routed) == 16
    assert [name for name, _burst in log] == ["a", "b", "a"]


def test_a_train_the_ack_probe_also_claims_is_walked(tmp_path):
    """PUSH_A's datagrams read, at the ACK offset, as (stale) ACKs of a
    sending transfer that happens to be registered: each one counts a
    stale epoch in the walk, so the train is not routed by its first."""
    train = [data_of(PUSH_A, i) for i in range(8)]
    outcomes = []
    for route in (ObjectServer._route_train, walk):
        server, log = demux_server(tmp_path, sending=SHADOW)
        route(server, [memoryview(d) for d in train], 0.0)
        outcomes.append(outcome(server, log))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["stale_epoch"] == 8
    assert outcomes[0][0] == [("a", train)]


def test_a_dead_transfers_train_is_counted_in_one_step(tmp_path):
    """A finished push's tail: the first datagram routes nowhere and
    the rest carry its session bytes, so the whole read is counted
    unknown at once — one probe, not one per datagram."""
    server, log = demux_server(tmp_path)
    routed = []
    real = server._route_datagram
    server._route_datagram = lambda d, now: routed.append(1) or real(d, now)
    counters = server.registry.counters
    train = [data_of(wire.SessionContext(0xDEAD, 0), i) for i in range(16)]
    server._route_train([memoryview(d) for d in train], 0.0)
    assert len(routed) == 1 and log == []
    assert counters.unknown_transfer == 16
    # A read whose first datagram is an acknowledgement is walked.
    ack = ack_of(FETCH, 3, 0)
    del routed[:]
    server._route_train([memoryview(d) for d in [ack] + train[1:]], 0.0)
    assert len(routed) == 16 and log == [("s", ack)]
    assert counters.unknown_transfer == 16 + 15
    # So is one whose first is too short for the ACK-offset probe: the
    # next, sharing its DATA-offset bytes, is an acknowledgement.
    outcomes = []
    for route in (ObjectServer._route_train, walk):
        server, log = demux_server(tmp_path)
        route(server, [memoryview(ack[:26]), memoryview(ack)], 0.0)
        outcomes.append(outcome(server, log))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [("s", ack)]
    assert outcomes[0][1]["unknown_transfer"] == 1
