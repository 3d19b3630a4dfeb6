"""An object served from its file, and a receiver killed as SIGKILL
kills it.

A sender holds an fd on the object, not a copy: it reads the file as
it sends, closes it when its transfer ends, and fails that transfer by
name when the file shrinks or changes under it.  On the
receiving side the ``.part`` bytes reach the OS before the journal
record that claims them, and an injected crash loses exactly what a
process death loses: whatever still sat in a userspace buffer.
"""

import os
import subprocess
import sys
import textwrap
import threading
import zlib

import numpy as np
import pytest

import repro
from _support import RunningServer
from repro.core.config import FobsConfig
from repro.core.journal import ReceiverJournal, replay_journal
from repro.core.manifest import VERIFY_READ_BYTES, ChunkManifest
from repro.runtime import driver, files, wire
from repro.runtime.driver import READ_AHEAD, ObjectFile, PartFile, SourceChanged
from repro.runtime.files import receive_endpoint, send_endpoint, send_file
from repro.runtime.transfer import Endpoint, run_endpoints
from repro.server import daemon, fetch_endpoint

CONFIG = FobsConfig(packet_size=1024, ack_frequency=32)


def blob(nbytes: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, nbytes, dtype=np.uint8).tobytes()


def fds_on(path) -> list:
    """The descriptors this process holds open on ``path``."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}") == str(path):
                held.append(fd)
        except OSError:
            pass  # the listing's own descriptor, gone by now
    return held


def probe(server, path) -> Endpoint:
    """An endpoint that waits for ``server`` to end a transfer, then
    returns the descriptors held on ``path`` at that moment."""
    def turns():
        while not server.history:
            yield 0.005
        return fds_on(path)

    return Endpoint(turns())


def after_encodes(monkeypatch, count: int, action) -> None:
    """Run ``action`` as the burst encoder is asked for train ``count``."""
    real = wire.encode_data_burst
    calls = 0

    def encode(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == count:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(wire, "encode_data_burst", encode)


def rewrite_in_place(path, data: bytes) -> None:
    """New bytes, same size and inode, and an mtime the scan cannot
    have seen (the kernel's clock may not tick between two writes)."""
    mtime = os.stat(path).st_mtime_ns
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(mtime, mtime + 1_000_000_000))


class TestObjectFile:
    def test_the_scan_is_the_crc_and_manifest_of_the_bytes(self, tmp_path):
        data = blob(3 * VERIFY_READ_BYTES + 777)
        path = tmp_path / "obj.bin"
        path.write_bytes(data)
        with ObjectFile(str(path), 1024) as source:
            assert len(source) == len(data)
            assert source.crc == zlib.crc32(data)
            assert source.manifest == ChunkManifest.from_data(data, 1024)
            spans = [(0, 10), (10, 6), (len(data) - 3, 3)]
            read = [source.window(*span) for span in spans]
            assert [buffer[offset - at:offset - at + length]
                    for (offset, length), (buffer, at) in zip(spans, read)
                    ] == [data[:10], data[10:16], data[-3:]]
            # A read from where the last one ended runs ahead, and the
            # next span comes out of it; a jump reads just its span.
            assert read[1] == read[0] and len(read[0][0]) == READ_AHEAD
            assert len(read[2][0]) == 3
        with ObjectFile(str(path)) as source:
            assert source.manifest is None and source.crc == zlib.crc32(data)
        assert fds_on(path) == []

    def test_an_empty_file_is_refused_and_released(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="is empty"):
            ObjectFile(str(path))
        assert fds_on(path) == []

    @pytest.mark.parametrize("change, named", [
        ("truncate", "size 4096 -> 100"),
        ("rewrite", "mtime_ns"),
        ("replace", "inode"),
        ("remove", "it was removed"),
    ])
    def test_a_read_after_a_change_names_it(self, tmp_path, change, named):
        path = tmp_path / "obj.bin"
        path.write_bytes(blob(4096))
        with ObjectFile(str(path)) as source:
            if change == "truncate":
                os.truncate(path, 100)
            elif change == "rewrite":
                rewrite_in_place(path, blob(4096, seed=1))
            elif change == "replace":
                (tmp_path / "new.bin").write_bytes(blob(4096, seed=1))
                os.replace(tmp_path / "new.bin", path)
            else:
                os.unlink(path)
            with pytest.raises(SourceChanged, match="source changed since "
                               "admission") as raised:
                source.window(0, 1024)
            assert named in str(raised.value)

    def test_a_short_read_is_a_shrink(self, tmp_path):
        """A file that shrinks between the check and the read."""
        path = tmp_path / "obj.bin"
        path.write_bytes(blob(4096))
        with ObjectFile(str(path)) as source:
            os.truncate(path, 2048)
            source._identity = driver._identity(os.stat(path))
            with pytest.raises(SourceChanged, match="source shrank: .* ends "
                               "at byte 2048 of 4096"):
                source.window(0, 1024)


class TestSourceChangesMidTransfer:
    def test_an_object_that_shrinks_mid_fetch_fails_by_name(
            self, tmp_path, monkeypatch):
        root = tmp_path / "root"
        root.mkdir()
        obj = root / "obj.bin"
        # Larger than a read ahead, so the send reads the file again.
        obj.write_bytes(blob(2_000_000))
        after_encodes(monkeypatch, 3, lambda: os.truncate(obj, 50_000))
        running = RunningServer(root, config=CONFIG)
        out = tmp_path / "got.bin"
        fetch = fetch_endpoint("obj.bin", "127.0.0.1", running.port,
                               str(out), config=CONFIG, timeout=30)
        result, held = running.run(fetch, probe(running.server, obj))
        assert not result.completed
        (name, direction, _client, ok, reason), = running.server.history
        assert (name, direction, ok) == ("obj.bin", "send", False)
        assert reason.startswith("source changed since admission")
        assert "size 2000000 -> 50000" in reason
        assert not out.exists()
        assert held == []

    def test_a_file_rewritten_mid_push_fails_by_name(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "obj.bin"
        data = blob(2_000_000)
        path.write_bytes(data)
        after_encodes(monkeypatch, 3,
                      lambda: rewrite_in_place(path, blob(2_000_000, seed=1)))
        out = tmp_path / "out.bin"
        rx = receive_endpoint(str(out), 0, bind="127.0.0.1", timeout=30)
        with ObjectFile(str(path), CONFIG.packet_size) as source:
            tx = send_endpoint(source, "127.0.0.1",
                               rx.socks[0].getsockname()[1], config=CONFIG,
                               timeout=30)
            run_endpoints([rx, tx])
        assert not tx.result.completed and not rx.result.completed
        assert tx.result.failure_reason.startswith(
            "source changed since admission")
        assert "mtime_ns" in tx.result.failure_reason
        assert not out.exists()


class TestNoDescriptorOutlivesAFetch:
    @pytest.fixture
    def root(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        (root / "obj.bin").write_bytes(blob(200_000))
        return root

    def test_a_completed_fetch_releases_its_object(self, root, tmp_path):
        running = RunningServer(root, config=CONFIG)
        fetch = fetch_endpoint("obj.bin", "127.0.0.1", running.port,
                               str(tmp_path / "got.bin"), config=CONFIG,
                               timeout=30)
        result, held = running.run(fetch, probe(running.server,
                                                 root / "obj.bin"))
        assert result.completed, result.failure_reason
        assert held == []

    def test_a_fetch_a_drain_cuts_short_releases_its_object(self, root,
                                                            tmp_path):
        running = RunningServer(root, config=CONFIG, drain_timeout=0.05)
        server = running.server
        # 200 KB at 1 Mb/s: still running when the drain times out.
        fetch = fetch_endpoint("obj.bin", "127.0.0.1", running.port,
                               str(tmp_path / "got.bin"), config=CONFIG,
                               timeout=30, rate_cap_bps=int(1e6))
        held = []

        def drain_once_sending():
            while not server._send_entries:
                yield 0.005
            server.request_drain()
            while server._send_entries:
                yield 0.005
            held.extend(fds_on(root / "obj.bin"))

        (result, _) = running.run(fetch, Endpoint(drain_once_sending()))
        assert not result.completed
        assert server.history[-1][3:] == (False, "drain timeout expired")
        assert held == []


class TestCrashLosesWhatSigkillLoses:
    def test_an_appended_unflushed_record_dies_with_the_journal(
            self, tmp_path):
        path = str(tmp_path / "obj.journal")
        journal, _ = ReceiverJournal.open(path, 7, 64 * 1024, 1024)
        size = os.path.getsize(path)
        journal.record(0)
        journal.record(5)  # the run break appends [0, 1) unflushed
        assert journal.records_written == 1
        journal.simulate_crash()
        assert os.path.getsize(path) == size
        assert replay_journal(path).records == []

    def test_a_crashed_part_file_loses_its_unflushed_bytes(self, tmp_path):
        part = PartFile(str(tmp_path / "out.bin"), 64 * 1024, 1024, 0, 7)
        part.write_at(0, b"\x01" * 1024)
        part.crash()
        assert (tmp_path / "out.bin.part").read_bytes() == bytes(64 * 1024)

    def test_a_killed_receiver_claims_only_bytes_its_part_holds(
            self, tmp_path):
        """Data before log across a real process death: 16 packets
        stored and journaled (the 16th record flushes the run), then
        ``os._exit``.  Every packet the journal claims is in the
        ``.part``."""
        psize, out = 1024, tmp_path / "out.bin"
        script = textwrap.dedent("""
            import os, sys
            from repro.runtime.driver import PartFile
            psize = 1024
            part = PartFile(sys.argv[1], 64 * psize, psize, 0, 7)
            for seq in range(16):
                part.write_at(seq * psize, bytes([seq + 1]) * psize)
                part.journal.record(seq)
            os._exit(0)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run([sys.executable, "-c", script, str(out)], check=True,
                       env={**os.environ, "PYTHONPATH": src}, timeout=60)
        claimed = set(np.flatnonzero(
            replay_journal(str(out) + ".journal").bitmap.array).tolist())
        stored = (tmp_path / "out.bin.part").read_bytes()
        present = {seq for seq in range(64)
                   if stored[seq * psize:(seq + 1) * psize]
                   == bytes([seq + 1]) * psize}
        assert claimed == set(range(16))
        assert claimed <= present


@pytest.mark.guard
def test_a_served_object_is_read_a_window_at_a_time(tmp_path, monkeypatch):
    """A verified fetch from the daemon and a ``send_file``, each of an
    object of three windows and more, never read more than
    ``VERIFY_READ_BYTES`` of it at once: every read the daemon and the
    file sender make of their source (``os`` reads, and reads through
    an ``open`` of it) is spied on."""
    config = FobsConfig(packet_size=8192, ack_frequency=32)
    data = blob(3 * VERIFY_READ_BYTES + 4321)
    root = tmp_path / "root"
    root.mkdir()
    served, pushed = root / "obj.bin", tmp_path / "push.bin"
    served.write_bytes(data)
    pushed.write_bytes(data)
    reads = {str(served): [], str(pushed): []}

    def note(path, nbytes):
        if path in reads:
            reads[path].append(nbytes)

    def spy(real):
        def read(fd, *args):
            got = real(fd, *args)
            note(os.readlink(f"/proc/self/fd/{fd}"),
                 got if isinstance(got, int) else len(got))
            return got
        return read

    for name in ("read", "readv", "pread", "preadv"):
        monkeypatch.setattr(os, name, spy(getattr(os, name)))

    class SpyFile:
        def __init__(self, fh, path):
            self._fh, self._path = fh, path

        def read(self, *args):
            got = self._fh.read(*args)
            note(self._path, len(got))
            return got

        def readinto(self, buffer):
            got = self._fh.readinto(buffer)
            note(self._path, got)
            return got

        def __getattr__(self, name):
            return getattr(self._fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

    def spy_open(path, *args, **kwargs):
        return SpyFile(open(path, *args, **kwargs), os.path.abspath(path))

    for module in (daemon, files, driver):
        monkeypatch.setattr(module, "open", spy_open, raising=False)

    running = RunningServer(root, config=config)
    (fetched,) = running.run(fetch_endpoint(
        "obj.bin", "127.0.0.1", running.port, str(tmp_path / "got.bin"),
        config=config, timeout=60, verify=True))
    assert fetched.completed, fetched.failure_reason

    rx = receive_endpoint(str(tmp_path / "pushed.bin"), 0, bind="127.0.0.1",
                          timeout=60)
    receiver = threading.Thread(target=run_endpoints, args=([rx],))
    receiver.start()
    sent = send_file(str(pushed), "127.0.0.1", rx.socks[0].getsockname()[1],
                     config=config, timeout=60)
    receiver.join(timeout=60)
    assert sent.completed and rx.result.completed
    assert (tmp_path / "got.bin").read_bytes() == data
    assert (tmp_path / "pushed.bin").read_bytes() == data
    for path, sizes in reads.items():
        assert sum(sizes) >= 2 * len(data), path  # the scan, then the send
        assert max(sizes) <= VERIFY_READ_BYTES, path
