"""Host calibration and isolated single-layer timings.

Everything here runs one layer alone, outside any transfer, for a
fixed amount of work; each figure is the median of :data:`REPEATS`
repeats.  The ``calib.*`` numbers are a host fingerprint: numbers from
two hosts are comparable as ratios to them, never as absolutes.

The UDP ceiling is the paper's "maximum available bandwidth" for the
loopback workloads: the payload rate *delivered* by a raw ``sendto``
blast into a ``select``/``recv_into`` drain loop with the same packet
size, ``SO_RCVBUF`` and two-thread layout as ``repro.runtime.transfer``.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
import zlib
from statistics import median

import numpy as np

from harness import spin_sample

REPEATS = 5
#: The paper's 40 MB object in 1 KiB packets.
PAPER_NPACKETS = 39063
#: Bytes of FOBS data header + CRC in front of each payload on the wire.
WIRE_HEADER = 16


def _per_call_us(fn, calls: int) -> float:
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls * 1e6)
    return median(samples)


def spin_mops() -> float:
    """Pure-Python integer loop, million iterations per second."""
    return median(spin_sample() for _ in range(REPEATS))


def crc32_mbps() -> float:
    buf = bytes(8 << 20)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        zlib.crc32(buf)
        samples.append(len(buf) / 1e6 / (time.perf_counter() - t0))
    return median(samples)


def memcpy_mbps() -> float:
    src = bytearray(8 << 20)
    dst = bytearray(8 << 20)
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        dst[:] = src
        samples.append(len(src) / 1e6 / (time.perf_counter() - t0))
    return median(samples)


def udp_ceiling_mbps(packet_size: int, duration: float = 0.25) -> float:
    """Delivered payload Mb/s of a raw two-thread UDP blast on loopback."""
    rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    rx.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    rx.bind(("127.0.0.1", 0))
    rx.setblocking(False)
    tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    addr = rx.getsockname()
    datagram = memoryview(bytes(packet_size + WIRE_HEADER))
    done = threading.Event()
    state = {"received": 0, "first": 0.0, "last": 0.0}

    def drain() -> None:
        buf = bytearray(65535)
        recv_into = rx.recv_into
        received = 0
        while True:
            if not select.select([rx], [], [], 0.05)[0]:
                if done.is_set():
                    break
                continue
            while True:
                try:
                    recv_into(buf)
                except BlockingIOError:
                    break
                if not received:
                    state["first"] = time.perf_counter()
                received += 1
            state["last"] = time.perf_counter()
        state["received"] = received

    thread = threading.Thread(target=drain, name="ceiling-receiver",
                              daemon=True)
    thread.start()
    try:
        sendto = tx.sendto
        end = time.perf_counter() + duration
        while time.perf_counter() < end:
            for _ in range(64):
                sendto(datagram, addr)
    finally:
        done.set()
        thread.join(timeout=5)
        tx.close()
        rx.close()
    span = state["last"] - state["first"]
    if state["received"] < 2 or span <= 0:
        raise RuntimeError("UDP ceiling blast delivered nothing")
    return state["received"] * packet_size * 8 / span / 1e6


def bitmap_merge_us() -> float:
    """One full-bitmap ACK merge into a half-acked paper-sized bitmap."""
    from repro.core.bitmap import PacketBitmap

    bm = PacketBitmap(PAPER_NPACKETS)
    other = np.zeros(PAPER_NPACKETS, dtype=np.bool_)
    other[::2] = True
    return _per_call_us(lambda: bm.merge(other), 400)


def take_batch_us_per_pkt() -> float:
    """Scheduler sweep cost per packet, batches of 16, half acked."""
    from repro.core.bitmap import PacketBitmap
    from repro.core.scheduling import CircularScheduler

    acked = PacketBitmap(PAPER_NPACKETS)
    half = np.zeros(PAPER_NPACKETS, dtype=np.bool_)
    half[::2] = True
    acked.merge(half)
    sched = CircularScheduler(PAPER_NPACKETS)
    return _per_call_us(lambda: sched.take_batch(acked, 16), 2000) / 16


def engine_events_per_s() -> float:
    """Schedule + dispatch rate of the bare DES engine."""
    from repro.simnet.engine import Simulator

    def noop() -> None:
        return None

    samples = []
    for _ in range(REPEATS):
        sim = Simulator()
        t0 = time.perf_counter()
        for i in range(20_000):
            sim.call_in(i * 1e-6, noop)
        sim.run()
        samples.append(20_000 / (time.perf_counter() - t0))
    return median(samples)


def telemetry_emit_us(workdir: str) -> tuple[float, float]:
    """(ring, jsonl) cost of one ``channel.emit`` of a sampled kind."""
    from repro.telemetry import (EV_BATCH_SENT, EventBus, JsonlSink,
                                 RingBufferSink)

    def timed(bus) -> float:
        channel = bus.channel(transfer_id=1, src="bench")
        try:
            return _per_call_us(
                lambda: channel.emit(EV_BATCH_SENT, packets=16, nbytes=16384,
                                     first_seq=0), 2000)
        finally:
            bus.close()

    ring = timed(EventBus(sinks=[RingBufferSink(capacity=1 << 16)]))
    path = os.path.join(workdir, "emit.jsonl")
    jsonl = timed(EventBus(sinks=[JsonlSink(path, producer="bench")]))
    os.unlink(path)
    return ring, jsonl


def tuning_epoch_us() -> float:
    from repro.tuning.controller import (EpochSignals, TuningConfig,
                                         TuningController)

    ctl = TuningController(TuningConfig(), rate_bps=1e8)
    signals = EpochSignals(duration=0.15, acked_delta=1500, sent_delta=1600,
                           retrans_delta=40)
    return _per_call_us(lambda: ctl.on_epoch(signals), 2000)


def isolated_layers(workdir: str) -> dict:
    """Every isolated figure, keyed by its ``PER_LAYER`` name."""
    ring, jsonl = telemetry_emit_us(workdir)
    return {
        "calib.spin_mops": spin_mops(),
        "calib.crc32_mbps": crc32_mbps(),
        "calib.memcpy_mbps": memcpy_mbps(),
        "calib.udp_ceiling_mbps_1k": udp_ceiling_mbps(1024),
        "calib.udp_ceiling_mbps_32k": udp_ceiling_mbps(32768),
        "core.bitmap.merge_us_per_call": bitmap_merge_us(),
        "core.scheduling.take_batch_us_per_pkt": take_batch_us_per_pkt(),
        "simnet.engine.events_per_host_s": engine_events_per_s(),
        "telemetry.emit_ring_us_per_event": ring,
        "telemetry.emit_jsonl_us_per_event": jsonl,
        "tuning.controller.epoch_us": tuning_epoch_us(),
    }
