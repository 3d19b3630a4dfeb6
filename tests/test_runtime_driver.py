"""The real-socket transfer driver, with no sockets and no sleeps.

``repro.runtime.driver`` writes the paper's sender and receiver loops
once; the loopback endpoints, the file endpoints and the daemon only
call it.  Everything here runs it against a fake ``send`` and a fake
clock, so each property is exact rather than a wall-clock race.
"""

from __future__ import annotations

import ast
import collections
import itertools
import os
import re
import socket
import time

import numpy as np
import pytest

from repro.core.config import FobsConfig
from repro.core.journal import ReceiverJournal
from repro.core.manifest import VERIFY_READ_BYTES, ChunkManifest
from repro.core.packets import DataPacket
from repro.core.receiver import FobsReceiver
from repro.core.sender import FobsSender
from repro.runtime import wire
from repro.runtime.driver import (
    FOLLOW_WINDOW,
    IDLE_WAIT,
    PACING_CLAMP,
    PACING_CREDIT,
    EndpointKilled,
    FaultySend,
    PartFile,
    RecvDriver,
    SendDriver,
)
from repro.runtime.transfer import MAX_WAIT, Endpoint, run_endpoints
from repro.simnet.faults import KillSwitch
from repro.telemetry import EV_STORAGE_FAULT, EventBus, RingBufferSink

PSIZE = 64


def cfg(**overrides) -> FobsConfig:
    defaults = dict(packet_size=PSIZE, ack_frequency=4, batch_size=4,
                    max_batch_size=64, checksum=True, recv_buffer=1 << 16)
    defaults.update(overrides)
    return FobsConfig(**defaults)


def blob(npackets: int, tail: int = 17, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    nbytes = (npackets - 1) * PSIZE + tail
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


class Wire:
    """A fake ``send``: records datagrams, optionally takes only a few."""

    def __init__(self, take=None):
        self.datagrams: list[bytes] = []
        self.take = take  # per-call limits, consumed front to back

    def __call__(self, views) -> int:
        limit = self.take.pop(0) if self.take else len(views)
        views = list(views)[:limit]
        self.datagrams.extend(bytes(v) for v in views)
        return len(views)

    def seqs(self, config, session=None) -> list[int]:
        return [wire.decode_data(d, checksum=config.checksum,
                                 session=session)[0].seq
                for d in self.datagrams]


def make_sender(config, data, send, session=None) -> SendDriver:
    sender = FobsSender(config, len(data), rng=np.random.default_rng(0),
                        epoch=session.epoch if session else 0)
    return SendDriver(sender, data, send, session)


def ack_for(config, npackets, seqs, ack_id=0, session=None) -> bytes:
    rx = FobsReceiver(config, npackets * PSIZE,
                      epoch=session.epoch if session else 0)
    for seq in seqs:
        rx.bitmap.mark(seq)
    rx._next_ack_id = ack_id
    return wire.encode_ack(rx.build_ack(), checksum=config.checksum,
                           session=session)


class TestSendDriver:
    def test_three_phase_order(self, monkeypatch):
        """One step = pick a batch, encode it in ONE burst, send it; an
        ACK pushed in between steps steers the next pick."""
        config = cfg()
        data = blob(12)
        out = Wire()
        drv = make_sender(config, data, out)
        calls = []
        real_burst = wire.encode_data_burst
        monkeypatch.setattr(
            wire, "encode_data_burst",
            lambda *a, **k: calls.append("encode") or real_burst(*a, **k))
        real_select = drv.sender.select_batch
        drv.sender.select_batch = (
            lambda *a, **k: calls.append("pick") or real_select(*a, **k))
        real_send = drv.send
        drv.send = lambda views: calls.append("send") or real_send(views)

        assert drv.step(0.0) == 0.0
        assert calls == ["pick", "encode", "send"]
        assert out.seqs(config) == [0, 1, 2, 3]
        # Phase 2: the receiver already holds 4..7 (say, from a resume).
        drv.on_ack_datagram(ack_for(config, 12, [4, 5, 6, 7]), 0.01)
        drv.step(0.02)
        assert calls == ["pick", "encode", "send"] * 2
        assert out.seqs(config)[4:] == [8, 9, 10, 11]
        # Payloads are the object's own bytes, tail packet short.
        last = wire.decode_data(out.datagrams[-1], checksum=True)[1]
        assert bytes(last) == data[11 * PSIZE:]

    def test_every_queued_ack_steers_the_next_batch(self):
        """Anomaly 2 pin: N ACK datagrams queued behind one batch all
        reach FobsSender.on_ack before the next pick, and nothing any
        of them acknowledged is sent again."""
        config = cfg(batch_size=8)
        data = blob(40)
        out = Wire()
        drv = make_sender(config, data, out)
        drv.step(0.0)  # 0..7 out
        groups = [range(0, 8), range(8, 16), range(16, 24), range(30, 34)]
        acked: set[int] = set()
        for ack_id, group in enumerate(groups):
            acked |= set(group)
            drv.on_ack_datagram(
                ack_for(config, 40, sorted(acked), ack_id=ack_id), 0.001)
        assert drv.sender.stats.acks_processed == len(groups)
        del out.datagrams[:]
        drv.step(0.002)
        batch = out.seqs(config)
        assert len(batch) == 8
        assert not acked & set(batch)

    def test_stall_probe_abort_at_configured_times(self):
        config = cfg(stall_timeout=1.0, stall_backoff=2.0,
                     stall_abort_after=6.0, batch_size=2)
        data = blob(64)
        out = Wire()
        drv = make_sender(config, data, out)
        sender = drv.sender
        assert drv.step(0.0) == 0.0          # clock starts, first batch
        drv.step(0.5)
        assert sender.stats.stall_events == 0
        sent = len(out.datagrams)
        drv.step(1.0)                        # stall declared -> probe now
        assert sender.stalled and sender.stats.stall_probes == 1
        # A probe is ack_frequency packets, whatever the batch size.
        assert len(out.datagrams) - sent == config.ack_frequency
        sent = len(out.datagrams)
        hint = drv.step(1.2)                 # between probes: wait
        assert len(out.datagrams) == sent
        assert hint == pytest.approx(0.8)    # next probe due at t=2.0
        drv.step(2.0)
        assert sender.stats.stall_probes == 2
        assert drv.step(2.5) == pytest.approx(1.5)   # backoff: next at 4.0
        assert not sender.failed
        assert drv.step(6.0) == 0.0          # stalled 6 s: abort
        assert sender.failed and "stalled" in sender.failure_reason
        sent = len(out.datagrams)
        assert drv.step(6.1) == 0.0          # and nothing more is sent
        assert len(out.datagrams) == sent

    def test_stall_recovers_on_ack_progress(self):
        config = cfg(stall_timeout=1.0, stall_abort_after=6.0)
        drv = make_sender(config, blob(64), Wire())
        drv.step(0.0)
        drv.step(1.0)
        assert drv.sender.stalled
        drv.on_ack_datagram(ack_for(config, 64, [0, 1]), 1.1)
        assert not drv.sender.stalled
        assert drv.step(1.2) == 0.0          # greedy again
        assert drv.sender.stats.stall_recoveries == 1

    def test_pacing_hint_clamped_after_a_rate_cut(self):
        """At 1 kb/s one batch's wire time is seconds; honoring it
        would leave an allocator/tuner raise unused that long.  The
        hint is clamped so the caller re-reads the *current* rate
        promptly (was: a SimpleNamespace poke at the daemon's pump)."""
        config = cfg()
        out = Wire()
        drv = make_sender(config, blob(64), out)
        drv.sender.set_pacing_rate(1000.0)   # the cut
        assert drv.step(0.0) == 0.0          # first batch is free
        nbytes = sum(len(d) for d in out.datagrams)
        assert nbytes * 8 / 1000.0 > 1.0     # the hazard is real
        sent = len(out.datagrams)
        assert drv.step(0.001) == PACING_CLAMP <= 0.02
        assert len(out.datagrams) == sent    # and nothing went out
        drv.sender.set_pacing_rate(1e9)      # the raise, mid-wait
        assert drv.step(0.002) == 0.0        # applies to this very wait
        assert len(out.datagrams) > sent

    def test_pacing_spaces_batches_by_wire_time(self):
        config = cfg()
        out = Wire()
        drv = make_sender(config, blob(64), out)
        drv.sender.set_pacing_rate(8e6)      # 1 byte per microsecond
        drv.step(0.0)
        gap = sum(len(d) for d in out.datagrams) / 1e6
        assert drv.step(gap / 2) == pytest.approx(gap / 2)
        assert len(out.datagrams) == 4
        assert drv.step(gap) == 0.0
        assert len(out.datagrams) == 8

    def test_partial_send_keeps_the_tail_in_order(self):
        config = cfg(batch_size=6)
        out = Wire(take=[2, 1, 0])
        drv = make_sender(config, blob(30), out)
        assert drv.step(0.0) == IDLE_WAIT    # 2 of 6 written
        assert out.seqs(config) == [0, 1]
        assert drv.step(0.001) == IDLE_WAIT  # 1 more, no new batch
        assert drv.step(0.002) == IDLE_WAIT  # socket still full
        assert out.seqs(config) == [0, 1, 2]
        assert drv.sender.stats.packets_sent == 6
        assert drv.step(0.003) == 0.0        # tail flushed + next batch
        assert out.seqs(config) == list(range(12))

    def test_rejected_acks_only_move_counters(self):
        config = cfg()
        current = wire.SessionContext(7, epoch=2)
        drv = make_sender(config, blob(16), Wire(), session=current)
        good = ack_for(config, 16, [0, 1, 2], session=current)
        damaged = bytearray(good)
        damaged[-1] ^= 0xFF
        drv.on_ack_datagram(bytes(damaged), 0.0)
        drv.on_ack_datagram(ack_for(config, 16, [0, 1], session=wire
                                    .SessionContext(7, epoch=1)), 0.0)
        drv.on_ack_datagram(ack_for(config, 16, [0, 1], session=wire
                                    .SessionContext(8, epoch=2)), 0.0)
        stats = drv.sender.stats
        assert (stats.acks_corrupt, stats.stale_epoch_acks) == (1, 2)
        assert stats.acks_processed == 0 and drv.sender.acked.count == 0
        drv.on_ack_datagram(good, 0.0)
        assert drv.sender.acked.count == 3
        with pytest.raises(ValueError):
            drv.on_ack_datagram(b"\x00\x01", 0.0)

    def test_completion_ends_the_loop(self):
        out = Wire()
        drv = make_sender(cfg(), blob(16), out)
        drv.step(0.0)
        drv.on_completion(0.5)
        assert drv.sender.complete
        assert drv.step(0.6) == 0.0 and len(out.datagrams) == 4


class TestFaultySend:
    def test_kill_fires_at_exactly_packet_n(self):
        config = cfg(batch_size=4)
        out = Wire()
        kill = KillSwitch(target="sender", after_packets=10)
        drv = make_sender(config, blob(64), FaultySend(out, kill=kill))
        drv.step(0.0)
        drv.step(0.001)
        assert not kill.fired
        with pytest.raises(EndpointKilled, match="after 10 data packets"):
            drv.step(0.002)
        assert kill.fired and len(out.datagrams) == 10
        assert out.seqs(config) == list(range(10))

    def test_patterns_repeat_for_a_seed_and_spare_the_source(self):
        config = cfg(batch_size=8)
        data = blob(200)
        pristine = bytes(data)

        def run(seed):
            out = Wire()
            drv = make_sender(config, data, FaultySend(
                out, drop_rate=0.2, corrupt_rate=0.2, seed=seed))
            for i in range(25):
                drv.step(i * 1e-3)
            return out.datagrams

        first, again, other = run(5), run(5), run(6)
        assert first == again
        assert first != other
        assert data == pristine
        assert 100 < len(first) < 200            # ~20 % never left
        damaged = 0
        for datagram in first:
            try:
                pkt, payload = wire.decode_data(datagram, checksum=True)
            except wire.ChecksumError:
                damaged += 1
                continue
            # Whatever passed the CRC is the object's own bytes: the
            # flip hit a copy, not the shared burst buffer.
            off = pkt.seq * PSIZE
            assert bytes(payload) == data[off:off + len(payload)]
        assert 10 < damaged < 70

    def test_partial_send_below_is_reported(self):
        out = Wire(take=[1, 0])
        faulty = FaultySend(out)
        views = [b"a", b"b", b"c"]
        assert faulty(views) == 1 and faulty.sent == 1
        assert faulty(views[1:]) == 2 and faulty.sent == 3


class TestRecvDriver:
    def make(self, config, nbytes, session=None, channel=None):
        store = bytearray(nbytes)

        def write_at(offset, payload):
            store[offset:offset + len(payload)] = payload

        rx = FobsReceiver(config, nbytes,
                          epoch=session.epoch if session else 0)
        kwargs = {"channel": channel} if channel is not None else {}
        return RecvDriver(rx, write_at, session, **kwargs), store

    def test_place_mark_ack(self):
        config = cfg()
        data = blob(8)
        out = Wire()
        tx = make_sender(config, data, out)
        rx, store = self.make(config, len(data))
        acks = []
        for i in range(2):
            tx.step(i * 1e-3)
        for datagram in out.datagrams:
            ack = rx.on_datagram(memoryview(datagram), 0.01)
            if ack is not None:
                acks.append(ack)
        assert bytes(store) == data and rx.receiver.complete
        # One ACK per ack_frequency new packets, the last on completion.
        assert len(acks) == 2
        tx.on_ack_datagram(acks[-1], 0.02)
        assert tx.sender.all_acked

    def test_rejected_datagrams_only_move_counters(self):
        config = cfg()
        current = wire.SessionContext(55, epoch=3)
        rx, store = self.make(config, 8 * PSIZE, session=current)
        pkt = DataPacket(seq=2, total=8, payload_bytes=PSIZE, transmission=0)
        junk = b"\xff" * PSIZE

        def datagram(session=current, packet=pkt, payload=junk):
            return wire.encode_data(packet, payload, checksum=True,
                                    session=session)

        flipped = bytearray(datagram())
        flipped[20] ^= 0x01
        assert rx.on_datagram(bytes(flipped), 1.0) is None
        assert rx.on_datagram(
            datagram(wire.SessionContext(55, epoch=2)), 1.0) is None
        assert rx.on_datagram(
            datagram(wire.SessionContext(56, epoch=3)), 1.0) is None
        # Valid CRC and session, but another object's geometry: more
        # packets than ours, or a payload longer than its slot.
        assert rx.on_datagram(datagram(packet=DataPacket(
            seq=9, total=16, payload_bytes=PSIZE, transmission=0)),
            1.0) is None
        assert rx.on_datagram(datagram(
            packet=DataPacket(seq=2, total=8, payload_bytes=PSIZE + 8,
                              transmission=0),
            payload=b"\xff" * (PSIZE + 8)), 1.0) is None
        stats = rx.receiver.stats
        assert (stats.packets_corrupt, stats.stale_epoch_data) == (3, 2)
        assert stats.packets_new == 0 and rx.receiver.bitmap.count == 0
        assert bytes(store) == bytes(8 * PSIZE)
        with pytest.raises(ValueError):
            rx.on_datagram(b"\x00", 1.0)
        rx.on_datagram(datagram(), 1.0)
        assert rx.receiver.bitmap.count == 1

    def test_store_fault_is_typed_and_published_once(self):
        bus = EventBus(sinks=[ring := RingBufferSink(64)])
        config = cfg()
        rx = FobsReceiver(config, 4 * PSIZE)

        def write_at(offset, payload):
            raise OSError(28, "No space left on device")

        drv = RecvDriver(rx, write_at, channel=bus.channel(transfer_id=1))
        pkt = DataPacket(seq=0, total=4, payload_bytes=PSIZE, transmission=0)
        assert drv.on_datagram(wire.encode_data(pkt, b"x" * PSIZE,
                                                checksum=True), 0.0) is None
        assert drv.fault.startswith("storage fault [ENOSPC] at part")
        assert rx.bitmap.count == 0          # data before log: unmarked
        (event,) = [e for e in ring.events if e.kind == EV_STORAGE_FAULT]
        assert set(event.fields) == {"error", "where", "detail"}
        assert event.fields["error"] == "ENOSPC"
        assert event.fields["where"] == "part"


class TestPartFile:
    def test_reopens_in_place_only_behind_a_journal_replay(self, tmp_path):
        """One rule for ``r+b``: right size AND a replayed journal."""
        out = str(tmp_path / "obj.bin")
        nbytes = 8 * PSIZE
        with open(out + ".part", "wb") as fh:
            fh.write(b"\xaa" * nbytes)
        # Resumable, right-sized .part, but no journal to replay: nothing
        # on disk is claimed, so the file is recreated.
        part = PartFile(out, nbytes, PSIZE, crc=0, transfer_id=9)
        assert part.fault is None and part.resume_bitmap is None
        part.write_at(0, b"\x01" * PSIZE)
        part.journal.record(0)
        assert part.close() is None
        with open(out + ".part", "rb") as fh:
            assert fh.read() == b"\x01" * PSIZE + bytes(nbytes - PSIZE)
        # Now a journal claims packet 0: reopened in place, bytes kept.
        part = PartFile(out, nbytes, PSIZE, crc=0, transfer_id=9)
        assert part.resume_bitmap.tolist() == [True] + [False] * 7
        part.close()
        with open(out + ".part", "rb") as fh:
            assert fh.read(PSIZE) == b"\x01" * PSIZE
        # Not resumable: always recreated, and no journal is kept.
        part = PartFile(out, nbytes, PSIZE, crc=0)
        assert part.journal is None and part.resume_bitmap is None
        part.close()

    def test_publish_audit_and_typed_open_fault(self, tmp_path):
        import zlib

        out = str(tmp_path / "obj.bin")
        data = blob(4)
        part = PartFile(out, len(data), PSIZE, crc=zlib.crc32(data),
                        transfer_id=3)
        for seq in range(4):
            part.write_at(seq * PSIZE, data[seq * PSIZE:(seq + 1) * PSIZE])
            part.journal.record(seq)
        assert part.publish() is None
        with open(out, "rb") as fh:
            assert fh.read() == data
        assert not os.path.exists(out + ".part")
        assert not os.path.exists(out + ".journal")
        # A CRC mismatch demotes everything the journal claimed.
        part = PartFile(out, len(data), PSIZE, crc=1, transfer_id=3)
        part.write_at(0, data)
        part.journal.record_range(0, 4)
        assert "CRC mismatch" in part.publish()
        part.close()
        _journal, replay = ReceiverJournal.open(out + ".journal", 3,
                                                len(data), PSIZE)
        assert replay is not None and replay.bitmap.count == 0
        _journal.close()

        def refuse(path, mode):
            raise OSError(5, "Input/output error")

        part = PartFile(out, len(data), PSIZE, crc=0, opener=refuse)
        assert part.fault.startswith("storage fault [EIO] at part-open")

    @pytest.mark.parametrize("with_manifest", [False, True])
    def test_publish_audits_in_bounded_memory(self, tmp_path, with_manifest):
        """Verify-on-complete never holds the object: no single read of
        an 8 MB publish is above 1 MiB, and the audit still passes --
        and still catches one flipped byte."""
        import zlib

        psize = 1024
        data = np.random.default_rng(7).integers(
            0, 256, size=(8 << 20) - 100, dtype=np.uint8).tobytes()
        manifest = (ChunkManifest.from_data(data, psize) if with_manifest
                    else None)
        reads = []

        class Spy:
            def __init__(self, fh):
                self._fh = fh

            def read(self, size=-1):
                got = self._fh.read(size)
                reads.append((size, len(got)))
                return got

            def __getattr__(self, name):
                return getattr(self._fh, name)

        def opener(path, mode):
            return Spy(open(path, mode))

        for damaged in (False, True):
            out = str(tmp_path / f"obj{int(damaged)}.bin")
            part = PartFile(out, len(data), psize, crc=zlib.crc32(data),
                            transfer_id=5, manifest=manifest, opener=opener)
            part.write_at(0, data)
            if damaged:
                part.write_at(5_000_000, bytes([data[5_000_000] ^ 1]))
            part.journal.record_range(0, part.journal.bitmap.npackets)
            del reads[:]
            failure = part.publish()
            assert reads and all(0 <= size <= VERIFY_READ_BYTES
                                 and got <= VERIFY_READ_BYTES
                                 for size, got in reads), reads
            assert sum(got for _size, got in reads) == len(data)
            if not damaged:
                assert failure is None
                with open(out, "rb") as fh:
                    assert fh.read() == data
            elif with_manifest:
                assert failure.startswith("verify failed: 1 corrupt chunk(s)")
                assert part.vstats.corrupt_seqs == [5_000_000 // psize]
            else:
                assert failure.startswith("CRC mismatch after reassembly")
            part.close()


def test_the_loops_are_written_once():
    """Each protocol call site appears in exactly one real-socket module."""
    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    sources = {}
    for package in ("runtime", "server"):
        for name in os.listdir(os.path.join(root, package)):
            if name.endswith(".py") and name != "wire.py":
                with open(os.path.join(root, package, name)) as fh:
                    sources[f"{package}/{name}"] = fh.read()
    for call in (".select_batch(", ".select_probe(", ".poll_stall(",
                 "wire.decode_data_burst(", "wire.decode_ack(",
                 "wire.encode_ack(", "encode_data_burst("):
        users = [m for m, text in sources.items()
                 if re.search(re.escape(call), text)]
        assert users == ["runtime/driver.py"], (call, users)
    assert not any("wire.encode_data(" in text or "TokenBucket" in text
                   for text in sources.values())
    # ... and the real-socket path moves columns and tuples: the
    # per-datagram packet object is the DES's alone.
    for module in ("runtime/driver.py", "runtime/transfer.py",
                   "runtime/files.py", "server/daemon.py"):
        assert "DataPacket" not in sources[module], module
    assert not any(re.search(r"\.(next|probe)_batch\(", text)
                   for text in sources.values())
    # decode → place → mark → ACK is one loop: the store is written to
    # from one call site.
    assert len(re.findall(r"(?<!def )(?<!`)write_at\(",
                          sources["runtime/driver.py"])) == 1
    # The blocking around the loops is written once too, single-threaded:
    # one train read, one segmented send, one wait, all in
    # runtime/transfer.py; no per-datagram receive is left.
    assert "threading" not in sources["runtime/transfer.py"]
    for call, count in (("recvmsg_into(", 1), ("sendmsg(", 1),
                        ("select.poll(", 1)):
        users = {m: text.count(call) for m, text in sources.items()
                 if call in text}
        assert users == {"runtime/transfer.py": count}, (call, users)
    assert not any(re.search(r"\brecv_into\(", text)
                   for text in sources.values())
    assert re.search(r"^ +drain\(self\._udp, ", sources["server/daemon.py"],
                     re.MULTILINE)
    # Control framing is written once as well, in runtime/wire.py: no
    # other endpoint module sizes a read or unpacks a header (the two
    # cmsg structs of the UDP offload are no wire format).
    for module in ("runtime/files.py", "runtime/transfer.py",
                   "server/client.py", "server/daemon.py"):
        text = re.sub(r"_(SEGMENT|GRO)_SIZE( = struct\.Struct\(|\.unpack)",
                      "", sources[module])
        for framing in ("recv_exact", "_MAGIC", "struct.Struct(", ".unpack",
                        "len(buf) <"):
            assert framing not in text, (module, framing)
    # ... and every endpoint reads its frames through wire.read_frame.
    assert [m for m, text in sources.items() if "next_frame(" in text] == []


#: What starts a thread; no endpoint needs one since handshakes are turns.
THREAD_MODULES = {"threading", "_thread", "concurrent.futures"}


def nodes_under_src():
    """Every ``(file, node)`` of every module's AST under ``src/repro``."""
    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    for folder, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                yield os.path.relpath(path, root), node


def imports_under_src(modules) -> list:
    """Every ``(file, module)`` import of one of ``modules`` under
    ``src/repro``."""
    found = []
    for path, node in nodes_under_src():
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(path, module) for module in imported if module in modules]
    return found


def test_no_module_under_src_imports_a_thread_library():
    """Every endpoint — both ends of a loopback file transfer, the chaos
    harness, dataset sync over FOBS, the daemon — is turns of
    ``run_endpoints`` on the caller's thread."""
    assert imports_under_src(THREAD_MODULES) == []


def test_no_module_under_src_imports_selectors():
    """``run_endpoints`` is the one wait: the daemon is one of its
    endpoints, not an event loop of its own."""
    assert imports_under_src({"selectors"}) == []


def test_no_module_under_src_stops_a_simulation_by_predicate():
    """A ``stop_when`` predicate puts ``Simulator.run`` on the
    interpreted loop with one Python call per event; every harness ends
    its run from the event that finishes it (``sim.stop()``) instead."""
    assert [(path, node.lineno) for path, node in nodes_under_src()
            if isinstance(node, ast.Call)
            and any(kw.arg == "stop_when" for kw in node.keywords)] == []


class TestRunEndpoints:
    """The one loop around the turns, on socketpairs."""

    def test_a_killed_endpoint_leaves_and_the_other_runs_on(self):
        a, b = socket.socketpair()
        seen = []

        def killed():
            yield 0.0
            raise EndpointKilled("killed after 1 turn")

        def survivor():
            for _ in range(4):
                seen.append(a.fileno() == -1)
                yield 0.0
            return "stalled: gave up by itself"

        victim, other = Endpoint(killed(), [a]), Endpoint(survivor(), [b])
        run_endpoints([victim, other], time.monotonic() + 5)
        assert victim.crashed
        assert victim.result == "killed after 1 turn"
        assert not other.crashed
        assert other.result == "stalled: gave up by itself"
        # The victim's socket closed the turn it died, not at the end.
        assert seen == [False, True, True, True]
        assert b.fileno() == -1

    def test_any_other_exception_reaches_the_caller_unwrapped(self):
        a, b = socket.socketpair()

        def broken():
            yield 0.0
            raise ZeroDivisionError("a bug, not a crash injection")

        with pytest.raises(ZeroDivisionError, match="a bug"):
            run_endpoints([Endpoint(broken(), [a]),
                           Endpoint(itertools.repeat(0.0), [b])],
                          time.monotonic() + 5)
        assert a.fileno() == -1 and b.fileno() == -1

    @pytest.mark.loopback
    def test_sockets_past_fd_setsize(self, tmp_path):
        """A busy process holds descriptors past ``FD_SETSIZE`` (1024):
        a file pair and a daemon fetch, every socket above it, share
        the one loop (``select`` raised ``ValueError`` there)."""
        import resource

        from _support import RunningServer
        from repro.runtime.files import receive_endpoint, send_endpoint
        from repro.server import fetch_endpoint

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < 1200:
            if hard != resource.RLIM_INFINITY and hard < 1200:
                pytest.skip(f"RLIMIT_NOFILE hard limit {hard} < 1200")
            resource.setrlimit(resource.RLIMIT_NOFILE, (1200, hard))
        fillers = [os.open(os.devnull, os.O_RDONLY) for _ in range(1030)]
        try:
            config = kcfg()
            blob = kblob(64)
            root = tmp_path / "root"
            root.mkdir()
            (root / "obj.bin").write_bytes(blob)
            rx = receive_endpoint(str(tmp_path / "pair.bin"), 0,
                                  bind="127.0.0.1", timeout=30)
            running = RunningServer(root, config=config)
            assert min(rx.socks[0].fileno(),
                       running.daemon.socks[0].fileno()) >= 1024
            results = running.run(
                rx,
                send_endpoint(blob, "127.0.0.1",
                              rx.socks[0].getsockname()[1], config=config,
                              timeout=30),
                fetch_endpoint("obj.bin", "127.0.0.1", running.port,
                               str(tmp_path / "got.bin"), config=config,
                               timeout=30))
        finally:
            for fd in fillers:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
        assert all(result.completed for result in results)
        assert (tmp_path / "pair.bin").read_bytes() == blob
        assert (tmp_path / "got.bin").read_bytes() == blob

    def test_deadline_and_early_wakeup(self):
        a, b = socket.socketpair()
        b.send(b"x")  # readable: the 50 ms sleeps end at once
        turns = itertools.count()
        idle = Endpoint((MAX_WAIT for _ in turns), [a], reads=[a])
        with pytest.raises(TimeoutError):
            run_endpoints([idle], time.monotonic() + 0.02)
        assert next(turns) > 2 and a.fileno() == -1
        b.close()


class SeekCounting:
    """An ``opener`` whose files count their ``seek`` / ``write`` calls."""

    def __init__(self):
        self.calls: list = []

    def __call__(self, path, mode):
        calls = self.calls

        class File:
            def __init__(self):
                self._fh = open(path, mode)

            def seek(self, *args):
                calls.append(("seek",) + args)
                return self._fh.seek(*args)

            def write(self, data):
                calls.append(("write", len(data)))
                return self._fh.write(data)

            def __getattr__(self, name):
                return getattr(self._fh, name)

        return File()


def test_part_file_seeks_only_where_a_write_does_not_follow_the_last(tmp_path):
    """On a buffered file every ``seek`` is a flush and an ``lseek``:
    an in-order train is one of them, not one a packet — and whatever
    else moves the position (an audit's reads) is not trusted over."""
    import zlib

    opener = SeekCounting()
    data = blob(16)
    part = PartFile(str(tmp_path / "obj.bin"), len(data), PSIZE,
                    crc=zlib.crc32(data), opener=opener)

    def place(seqs):
        del opener.calls[:]
        for seq in seqs:
            part.write_at(seq * PSIZE, data[seq * PSIZE:(seq + 1) * PSIZE])
        return [call[0] for call in opener.calls]

    assert place(range(0, 8)) == ["seek"] + ["write"] * 8
    assert place(range(8, 12)) == ["write"] * 4      # carries straight on
    assert place([13, 12]) == ["seek", "write"] * 2  # a hole, then back
    assert not part._verify_crc()                    # reads to the end ...
    assert place([13]) == ["seek", "write"]          # ... where 12 ended
    assert place([14, 15]) == ["write"] * 2          # the short last packet
    assert place([15]) == ["seek", "write"]          # and again, in place
    assert part.publish() is None
    assert (tmp_path / "obj.bin").read_bytes() == data


# ----------------------------------------------------------------------
# Pacing debt and the follower, on a fake clock
# ----------------------------------------------------------------------
KB = 1024
#: A 1 KiB DATA datagram with its CRC and no session extension.
WIRE_1K = KB + 16


def kcfg(**overrides) -> FobsConfig:
    """The benchmark's packet shape: 1 KiB packets, batches of 16."""
    return cfg(**{"packet_size": KB, "ack_frequency": 32, "batch_size": 16,
                  **overrides})


def kblob(npackets: int) -> bytes:
    return np.random.default_rng(1).integers(
        0, 256, size=npackets * KB - 5, dtype=np.uint8).tobytes()


def pump(drv: SendDriver, now: float) -> float:
    """What the daemon's pump and ``sender_turns`` do with one wakeup:
    step until the driver asks to be called later."""
    while True:
        wait = drv.step(now)
        if wait > 0.0:
            return wait


class TestPacingDebt:
    RATE = 900e6

    def test_a_late_wakeup_is_credited(self):
        """EpollSelector rounds every wait up to 1 ms: a daemon paced
        at 900 Mb/s is called a thousand times a second, not after each
        batch's 150 us.  The debt arithmetic lets each call catch up;
        one batch per call (the parent) moved ~15 % of the budget."""
        out = Wire()
        drv = make_sender(kcfg(), kblob(16384), out)
        drv.sender.set_pacing_rate(self.RATE)
        for tick in range(101):
            pump(drv, tick * 1e-3)
        moved = sum(len(d) for d in out.datagrams)
        assert moved >= 0.9 * self.RATE / 8 * 0.100
        assert moved <= self.RATE / 8 * 0.100 + 17 * WIRE_1K

    def test_credit_is_bounded(self):
        out = Wire()
        drv = make_sender(kcfg(), kblob(16384), out)
        drv.sender.set_pacing_rate(self.RATE)
        pump(drv, 0.0)
        del out.datagrams[:]
        wait = pump(drv, 1.0)           # a second of not being called
        released = sum(len(d) for d in out.datagrams)
        assert PACING_CREDIT < released <= PACING_CREDIT + 16 * WIRE_1K
        # ... and then the batches are a wire time apart again.
        assert wait == pytest.approx(
            (released - PACING_CREDIT) * 8 / self.RATE)

    @pytest.mark.loopback
    def test_a_rate_budget_is_delivered_not_a_seventh_of_it(self, tmp_path):
        """End to end: ``repro serve --rate-budget 900`` moved an 8 MB
        fetch at 116 Mb/s (13 %) because every pacing wait became a
        1 ms sleep and the lateness was forgotten."""
        from _support import RunningServer
        from repro.server import fetch_endpoint

        data = kblob(8192)
        (tmp_path / "obj.bin").write_bytes(data)
        config = kcfg(ack_frequency=64)
        running = RunningServer(tmp_path, config=config,
                                rate_budget_bps=self.RATE)
        server = running.server
        fetch = fetch_endpoint("obj.bin", "127.0.0.1", server.port,
                               str(tmp_path / "got.bin"), config=config,
                               timeout=30)
        t0 = time.monotonic()
        (result,) = running.run(fetch)
        elapsed = time.monotonic() - t0
        assert result.completed and result.crc_ok
        assert (tmp_path / "got.bin").read_bytes() == data
        assert len(data) * 8 / elapsed >= 0.5 * self.RATE
        # Paced inside what the receiver drains: nothing is sent twice
        # but what the last acknowledgement's flight time wraps around.
        required = len(data) + 8192 * (WIRE_1K - KB + wire.SESSION_EXT_BYTES)
        assert required <= server.stats().bytes_sent <= 1.05 * required


class FarEnd:
    """The receiving host on the fake clock: a socket buffer of
    ``room`` datagrams (one more finds it full and is lost), drained at
    ``drain`` datagrams a second into a real :class:`RecvDriver`.  It is
    the driver's ``send`` and the source of its acknowledgements."""

    def __init__(self, config, nbytes, drain, room):
        self.driver = RecvDriver(FobsReceiver(config, nbytes),
                                 lambda offset, payload: None)
        self.drain, self.room = drain, room
        self.queue: collections.deque = collections.deque()
        self.now = self._at = self._budget = 0.0
        self._rng = np.random.default_rng(0)
        #: (clock, wire bytes) of every datagram the sender handed over.
        self.taken: list = []

    def __call__(self, views) -> int:
        taken = len(views)
        self.taken += [(self.now, len(view)) for view in views]
        free = self.room - len(self.queue)
        if free < taken:
            # Which of a burst a full buffer loses is the network's
            # jitter to decide (always the same ones is a resonance
            # with the circular sweep no real path has).
            views = [views[i] for i in sorted(self._rng.choice(
                taken, size=free, replace=False))]
        self.queue.extend(bytes(view) for view in views)
        return taken

    def acks_until(self, now: float) -> list:
        self._budget += (now - self._at) * self.drain
        self._at = self.now = now
        count = min(int(self._budget), len(self.queue))
        # An idle receiver banks no time.
        self._budget = self._budget - count if count < len(self.queue) \
            else 0.0
        acks = []
        while count:
            train = [self.queue.popleft() for _ in range(min(count, 16))]
            count -= len(train)
            acks += self.driver.on_burst(train, now)
        return acks

    def bytes_per_window(self) -> list:
        windows = collections.Counter()
        for at, nbytes in self.taken:
            windows[int(at / FOLLOW_WINDOW)] += nbytes
        return [windows[i] for i in range(max(windows) + 1)]


def drive(drv: SendDriver, far, accept: float, on_ack=None,
          limit: float = 10.0) -> float:
    """Run the transfer on the fake clock: ``send`` takes ``accept``
    datagrams a second; a pacing wait is slept in full.  Returns the
    clock when the sender heard that the receiver holds everything."""
    on_ack = on_ack or drv.on_ack_datagram
    now = 0.0
    while now < limit:
        for ack in far.acks_until(now):
            on_ack(ack, now)
        if drv.sender.acked.missing == 0:
            return now
        sent = drv.sender.stats.packets_sent
        wait = drv.step(now)
        sent = drv.sender.stats.packets_sent - sent
        now += wait if wait > 0.0 else max(sent, 1) / accept
    raise AssertionError("the scripted transfer did not finish")


class TestFollower:
    C = 100_000.0   # datagrams a second the far end drains

    def test_an_outrun_receiver_is_followed(self):
        config = kcfg()
        data = kblob(8192)
        far = FarEnd(config, len(data), self.C, PACING_CREDIT // WIRE_1K)
        drv = make_sender(config, data, far)
        drive(drv, far, accept=2 * self.C)
        windows = far.bytes_per_window()
        # The first is the greedy one that found the receiver out ...
        assert windows[0] > 1.5 * self.C * FOLLOW_WINDOW * WIRE_1K
        # ... and within a handful it is followed, to the end of the
        # first pass (the last windows only fill holes).
        for nbytes in windows[5:-3]:
            assert 1.0 <= nbytes / (self.C * FOLLOW_WINDOW * WIRE_1K) <= 1.35
        assert drv.sender.stats.packets_sent <= 1.25 * 8192

    def test_a_receiver_that_keeps_up_is_never_paced(self):
        """Delivered == sent in every window: no pacing wait, and the
        datagrams are the ones a driver that never heard of the
        follower sends."""
        config = kcfg()
        data = kblob(4096)

        def run(follow: bool):
            far = FarEnd(config, len(data), drain=1e9, room=1 << 20)
            drv = make_sender(config, data, far)
            waits = []
            real_step = drv.step
            drv.step = lambda now: waits.append(real_step(now)) or waits[-1]
            if not follow:
                drv._follow = lambda received, now: None
            drive(drv, far, accept=self.C)
            return far.taken, waits, drv.sender.stats.packets_sent

        taken, waits, sent = run(follow=True)
        assert set(waits) == {0.0}
        assert sent == 4096
        assert (taken, waits, sent) == run(follow=False)

    @pytest.mark.parametrize("loss", [0.2, 0.4])
    def test_loss_the_rate_does_not_explain_is_not_followed(self, loss):
        """A lossy path drops the same share at any rate.  Pacing at
        just above what arrived then only lowers what arrives: the
        naive rule collapses geometrically; a cut that cures nothing
        is undone and not retried for a doubling number of windows."""
        config = kcfg()
        data = kblob(8192)

        def run(follow: bool) -> float:
            far = FarEnd(config, len(data), drain=1e9, room=1 << 20)
            drv = make_sender(config, data,
                              FaultySend(far, drop_rate=loss, seed=3))
            if not follow:
                drv._follow = lambda received, now: None
            return drive(drv, far, accept=self.C)

        assert run(follow=False) / run(follow=True) >= 0.85

    def test_silence_leaves_the_last_rate_standing(self):
        """No ACK, no window: the follower neither cuts further nor
        lets go, and the stall machinery is alone on the clock."""
        config = kcfg(stall_timeout=1.0, stall_abort_after=6.0)
        data = kblob(8192)
        far = FarEnd(config, len(data), self.C, PACING_CREDIT // WIRE_1K)
        drv = make_sender(config, data, far)
        heard = []

        def on_ack(ack, now):
            if now < 0.030:
                heard.append(now)
                drv.on_ack_datagram(ack, now)

        with pytest.raises(AssertionError, match="did not finish"):
            drive(drv, far, accept=2 * self.C, on_ack=on_ack, limit=0.5)
        windows = far.bytes_per_window()
        assert len(heard) > 20 and len(windows) > 100
        paced = windows[8]
        assert paced < 1.4 * self.C * FOLLOW_WINDOW * WIRE_1K
        for nbytes in windows[8:120]:
            assert nbytes == pytest.approx(paced, rel=0.05)
        assert drv.sender.stats.stall_events == 0
        pump(drv, heard[-1] + 1.001)
        assert drv.sender.stalled

    def test_the_lower_of_share_and_matched_rate_paces(self):
        config = kcfg()
        data = kblob(8192)
        for share, expect in ((0.5, 0.5), (4.0, None)):
            far = FarEnd(config, len(data), self.C, PACING_CREDIT // WIRE_1K)
            drv = make_sender(config, data, far)
            drv.sender.set_pacing_rate(share * self.C * WIRE_1K * 8)
            drive(drv, far, accept=8 * self.C)
            steady = far.bytes_per_window()[5:-3]
            rel = [n / (self.C * FOLLOW_WINDOW * WIRE_1K) for n in steady]
            if expect is not None:
                # A share below what the receiver drains is the rate.
                assert all(r == pytest.approx(expect, rel=0.1) for r in rel)
                assert drv.sender.stats.packets_sent == 8192
            else:
                # One above it is only a ceiling on the followed rate.
                assert all(1.0 <= r <= 1.35 for r in rel)

    def test_rejected_acks_neither_open_nor_close_a_window(self):
        config = cfg()
        current = wire.SessionContext(7, epoch=2)
        drv = make_sender(config, blob(4096), Wire(), session=current)

        def ack(count, ack_id, session=current):
            return ack_for(config, 4096, range(count), ack_id=ack_id,
                           session=session)

        def hear(datagram, now):
            before = drv._window
            drv.on_ack_datagram(datagram, now)
            return drv._window is not before

        drv.step(0.0)
        damaged = bytearray(ack(16, 0))
        damaged[-1] ^= 0xFF
        assert not hear(bytes(damaged), 0.001)
        assert not hear(ack(16, 0, wire.SessionContext(7, epoch=1)), 0.001)
        assert hear(ack(16, 1), 0.001)            # opens the first
        assert not hear(ack(32, 2), 0.002)        # too soon to close it
        assert not hear(ack(16, 1), 0.010)        # stale: reordered
        assert not hear(bytes(damaged), 0.010)
        assert not hear(ack(48, 3, wire.SessionContext(8, epoch=2)), 0.010)
        assert hear(ack(48, 3), 0.010)            # a fresh one does
