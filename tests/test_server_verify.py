"""Daemon-side verify + storage-chaos tests, and the CLI contracts.

The daemon has its own copies of the verify/demote/storage-fault paths
(shared-socket demux, many transfers in one endpoint), so the chaos
matrix over ``runtime.files`` does not cover it.  These tests prove:

* VERIFY negotiation works through the daemon for both directions;
* a faulty daemon disk (torn writes) self-repairs on a verified push;
* an injected EIO/ENOSPC fails *one transfer* with a typed event, not
  the daemon — it keeps serving;
* ``repro fetch`` emits the machine-readable ``VERIFY_FAILED`` line and
  a distinct exit code when integrity retries are exhausted;
* ``repro verify`` audits a file against a sidecar manifest.
"""

import functools

import numpy as np
import pytest

import _support
from repro.chaos import FaultyStore, disk_full_at, torn_writes
from repro.core.config import FobsConfig
from repro.core.manifest import ChunkManifest
from repro.runtime.files import send_endpoint
from repro.runtime.supervisor import RetryPolicy
from repro.server import fetch_endpoint
from repro.server.cli import main

pytestmark = pytest.mark.loopback

CONFIG = FobsConfig(ack_frequency=16, stall_timeout=0.3,
                    stall_abort_after=2.0, receiver_idle_timeout=2.0)
RunningServer = functools.partial(_support.RunningServer, config=CONFIG)


@pytest.fixture
def objects(tmp_path):
    root = tmp_path / "objects"
    root.mkdir()
    rng = np.random.default_rng(4)
    (root / "a.bin").write_bytes(
        rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes())
    return root


def push(src, port, attempts=3, verify=True):
    return send_endpoint(src.read_bytes(), "127.0.0.1", port, CONFIG,
                         timeout=30.0, max_attempts=attempts,
                         policy=RetryPolicy(max_attempts=attempts,
                                            backoff_base=0.05, jitter=0.0),
                         verify=verify)


def pushed_blob(root):
    pushed = sorted(p for p in root.iterdir() if p.name.startswith("push-"))
    assert len(pushed) == 1, f"expected one pushed object, got {pushed}"
    return pushed[0].read_bytes()


class TestDaemonVerify:
    def test_verified_fetch_round_trip(self, objects, tmp_path):
        running = RunningServer(objects)
        (result,) = running.run(fetch_endpoint(
            "a.bin", "127.0.0.1", running.port, str(tmp_path / "out.bin"),
            config=CONFIG, timeout=30, verify=True))
        assert result.completed
        assert ((tmp_path / "out.bin").read_bytes()
                == (objects / "a.bin").read_bytes())
        assert result.verify_seconds >= 0.0
        assert result.packets_demoted == 0

    def test_verified_push_round_trip(self, objects, tmp_path):
        src = tmp_path / "src.bin"
        blob = np.random.default_rng(8).integers(
            0, 256, 150_000, dtype=np.uint8).tobytes()
        src.write_bytes(blob)
        running = RunningServer(objects)
        (result,) = running.run(push(src, running.port))
        assert result.completed
        assert pushed_blob(objects) == blob

    def test_push_self_repairs_on_torn_daemon_disk(self, objects, tmp_path):
        """The daemon's disk tears writes; verify-on-complete demotes
        the damage and the sender's retries converge byte-identical."""
        src = tmp_path / "src.bin"
        blob = np.random.default_rng(9).integers(
            0, 256, 120_000, dtype=np.uint8).tobytes()
        src.write_bytes(blob)
        store = FaultyStore(torn_writes(0.10), seed=9)
        running = RunningServer(objects, opener=store.open)
        (result,) = running.run(push(src, running.port, attempts=8))
        assert result.completed, result.failure_reason
        assert pushed_blob(objects) == blob
        assert store.stats.torn_writes > 0  # chaos actually fired

    def test_injected_disk_error_fails_transfer_not_daemon(
        self, objects, tmp_path
    ):
        """EIO at a scheduled write op: the push attempt fails with a
        storage-fault reason, the retry succeeds (transient), and the
        daemon keeps serving fetches afterwards."""
        src = tmp_path / "src.bin"
        blob = np.random.default_rng(10).integers(
            0, 256, 100_000, dtype=np.uint8).tobytes()
        src.write_bytes(blob)
        store = FaultyStore(disk_full_at(3, "EIO"), seed=10)
        running = RunningServer(objects, opener=store.open)
        pushed = push(src, running.port, attempts=4)
        # Daemon alive and serving, once the push is through.
        result, after = running.run(pushed, _support.after(
            lambda: pushed.result is not None, fetch_endpoint(
                "a.bin", "127.0.0.1", running.port,
                str(tmp_path / "after.bin"), config=CONFIG, timeout=30)))
        assert result.completed, result.failure_reason
        assert result.attempts >= 2  # first attempt ate the EIO
        assert store.stats.errors_injected == 1
        assert after.completed
        assert pushed_blob(objects) == blob

    def test_legacy_noverify_push_still_lands(self, objects, tmp_path):
        src = tmp_path / "src.bin"
        blob = np.random.default_rng(11).integers(
            0, 256, 80_000, dtype=np.uint8).tobytes()
        src.write_bytes(blob)
        running = RunningServer(objects)
        (result,) = running.run(push(src, running.port, verify=False))
        assert result.completed
        assert pushed_blob(objects) == blob


class TestFetchCliVerifyFailed:
    def _fail_result(self, reason):
        from repro.runtime.files import FileTransferResult

        return FileTransferResult(
            path="out.bin", nbytes=0, duration=0.1, throughput_bps=0.0,
            crc_ok=False, completed=False, failure_reason=reason,
            attempts=3, packets_demoted=7)

    def test_verify_exhaustion_prints_machine_readable_line(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.server.cli.fetch_file",
            lambda *a, **k: self._fail_result(
                "verify failed: 7 corrupt chunk(s) after final attempt"))
        rc = main(["fetch", "a.bin", "--port", "1", "--output", "out.bin",
                   "--quiet"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "fetch VERIFY_FAILED" in out
        assert "name=a.bin" in out
        assert "packets_demoted=7" in out

    def test_crc_mismatch_also_counts_as_integrity_failure(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.server.cli.fetch_file",
            lambda *a, **k: self._fail_result(
                "CRC mismatch after reassembly; all packets demoted"))
        rc = main(["fetch", "a.bin", "--port", "1", "--output", "out.bin",
                   "--quiet"])
        assert rc == 3
        assert "fetch VERIFY_FAILED" in capsys.readouterr().out

    def test_ordinary_failure_keeps_plain_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "repro.server.cli.fetch_file",
            lambda *a, **k: self._fail_result("connection refused"))
        rc = main(["fetch", "a.bin", "--port", "1", "--output", "out.bin",
                   "--quiet"])
        assert rc == 1
        assert "VERIFY_FAILED" not in capsys.readouterr().out

    def test_no_verify_flag_reaches_fetch_file(self, monkeypatch):
        seen = {}

        def spy(*args, **kwargs):
            seen.update(kwargs)
            return self._fail_result("x")

        monkeypatch.setattr("repro.server.cli.fetch_file", spy)
        main(["fetch", "a.bin", "--port", "1", "--output", "o", "--quiet",
              "--no-verify"])
        assert seen["verify"] is False
        main(["fetch", "a.bin", "--port", "1", "--output", "o", "--quiet"])
        assert seen["verify"] is True


class TestVerifyCli:
    def make(self, tmp_path, nbytes=50_000):
        data = np.random.default_rng(13).integers(
            0, 256, nbytes, dtype=np.uint8).tobytes()
        obj = tmp_path / "obj.bin"
        obj.write_bytes(data)
        man = tmp_path / "obj.manifest"
        ChunkManifest.from_data(data, 1024).save(str(man))
        return obj, man

    def test_clean_file_audits_ok(self, tmp_path, capsys):
        obj, man = self.make(tmp_path)
        rc = main(["verify", str(obj), str(man)])
        assert rc == 0
        assert "verify ok" in capsys.readouterr().out

    def test_corrupt_file_exits_nonzero_with_counts(self, tmp_path, capsys):
        obj, man = self.make(tmp_path)
        blob = bytearray(obj.read_bytes())
        blob[2048] ^= 0x01
        blob[2049] ^= 0x01
        blob[40_000] ^= 0x80
        obj.write_bytes(bytes(blob))
        rc = main(["verify", str(obj), str(man)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "verify CORRUPT" in captured.out
        assert "chunks_corrupt=2" in captured.out
        assert "ranges=2" in captured.out
        assert "corrupt chunks: 2, 39" in captured.err

    def test_truncated_file_is_size_mismatch(self, tmp_path, capsys):
        obj, man = self.make(tmp_path)
        obj.write_bytes(obj.read_bytes()[:10_000])
        rc = main(["verify", str(obj), str(man)])
        assert rc == 1
        assert "size mismatch" in capsys.readouterr().out

    def test_corrupt_manifest_refused(self, tmp_path, capsys):
        obj, man = self.make(tmp_path)
        blob = bytearray(man.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        man.write_bytes(bytes(blob))
        rc = main(["verify", str(obj), str(man)])
        assert rc == 2
        assert "bad manifest" in capsys.readouterr().err
