"""Shared helpers for the test suite (imported by test modules).

Kept outside conftest.py so the import name is unambiguous when tests
and benchmarks run in the same pytest invocation.
"""

from __future__ import annotations

import struct

from repro.core.config import FobsConfig
from repro.core.packets import DataPacket
from repro.runtime import wire
from repro.simnet.topology import HopSpec, MBPS, Network, PathSpec, build_path


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


def raw_offer(filesize: int, packet_size: int, flags: int = 0,
              transfer_id: int = 0x5EED, epoch: int = 0) -> bytes:
    """OFFER bytes packed by hand (v2 iff the resume bit is set), so a
    test can put on the wire what ``wire.Offer`` refuses to construct."""
    fields = (filesize, packet_size, 40001, flags, 0)
    if flags & 2:
        return struct.pack("!IQIIIIQI", 0xF0B50FF2, *fields, transfer_id,
                           epoch)
    return struct.pack("!IQIIII", 0xF0B50FFE, *fields)


def encode_burst(packets, payloads, checksum=False, session=None):
    """``wire.encode_data_burst`` for a list of ``DataPacket``s: the
    adapter the packet-object tests reach the column codec through."""
    for pkt, payload in zip(packets, payloads):
        if len(payload) != pkt.payload_bytes:
            raise ValueError(f"payload length {len(payload)} != declared "
                             f"{pkt.payload_bytes}")
    return wire.encode_data_burst(
        [pkt.seq for pkt in packets],
        [pkt.transmission for pkt in packets],
        packets[0].total if packets else 0, payloads, checksum, session)


def decode_burst(datagrams, checksum=False, session=None):
    """``wire.decode_data_burst`` with each result tuple made the
    ``(DataPacket, payload)`` pair ``wire.decode_data`` returns."""
    results, errors = wire.decode_data_burst(datagrams, checksum, session)
    epoch = session.epoch if session is not None else 0
    return [result and (DataPacket.unchecked(
        result[0], result[1], len(result[3]), result[2], epoch), result[3])
        for result in results], errors
