"""Tests for the real-socket file-transfer session protocol and CLI."""

import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

from _support import DribbleSocket
from repro.core.config import FobsConfig
from repro.runtime.files import receive_file, send_file

pytestmark = pytest.mark.loopback


def make_file(tmp_path, nbytes, seed=0):
    data = np.random.default_rng(seed).integers(0, 256, nbytes,
                                                dtype=np.uint8).tobytes()
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path, data


def run_pair(tmp_path, nbytes, port, config=None, seed=0):
    src, data = make_file(tmp_path, nbytes, seed)
    out = tmp_path / "out.bin"
    ready = threading.Event()
    result = {}

    def recv():
        result["recv"] = receive_file(str(out), port, bind="127.0.0.1",
                                      ready=ready, timeout=60.0)

    thread = threading.Thread(target=recv, daemon=True)
    thread.start()
    assert ready.wait(10)
    result["send"] = send_file(str(src), "127.0.0.1", port,
                               config=config, timeout=60.0)
    thread.join(15)
    assert not thread.is_alive()
    return data, out, result


class TestFileTransfer:
    def test_roundtrip_byte_exact(self, tmp_path):
        data, out, result = run_pair(tmp_path, 300_000, port=39211)
        assert out.read_bytes() == data
        assert result["recv"].crc_ok
        assert result["send"].nbytes == 300_000

    def test_small_file(self, tmp_path):
        data, out, result = run_pair(tmp_path, 100, port=39212)
        assert out.read_bytes() == data

    def test_odd_size_with_custom_packet(self, tmp_path):
        config = FobsConfig(packet_size=4096, ack_frequency=8)
        data, out, result = run_pair(tmp_path, 123_457, port=39213,
                                     config=config)
        assert out.read_bytes() == data

    def test_completion_frame_split_across_reads(self, tmp_path, monkeypatch):
        """A control connection that yields 5 bytes a read (so the
        completion frame takes three polls) must not fail an attempt
        whose delivery the receiver blessed."""
        connect = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection",
            lambda *args, **kw: DribbleSocket(connect(*args, **kw)))
        data, out, result = run_pair(tmp_path, 60_000, port=39216)
        assert out.read_bytes() == data
        assert result["send"].nbytes == 60_000

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            send_file(str(empty), "127.0.0.1", 39214)

    def test_throughput_reported(self, tmp_path):
        _, _, result = run_pair(tmp_path, 200_000, port=39215)
        assert result["send"].throughput_bps > 0
        assert result["recv"].duration > 0


class TestResumableFileTransfer:
    def run_resumable(self, tmp_path, port, kill_plan=None, nbytes=300_000):
        from repro.runtime.supervisor import RetryPolicy

        src, data = make_file(tmp_path, nbytes, seed=7)
        out = tmp_path / "out.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.5)
        ready = threading.Event()
        result = {}

        def recv():
            result["recv"] = receive_file(str(out), port, bind="127.0.0.1",
                                          ready=ready, timeout=60.0,
                                          max_attempts=3, config=config)

        thread = threading.Thread(target=recv, daemon=True)
        thread.start()
        assert ready.wait(10)
        result["send"] = send_file(
            str(src), "127.0.0.1", port, config=config, timeout=60.0,
            max_attempts=3, kill_plan=kill_plan,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.05,
                               jitter=0.0))
        thread.join(30)
        assert not thread.is_alive()
        return data, out, result

    def test_clean_resumable_session(self, tmp_path):
        data, out, result = self.run_resumable(tmp_path, port=39217)
        assert out.read_bytes() == data
        assert result["send"].completed and result["send"].attempts == 1
        assert result["recv"].crc_ok and result["recv"].attempts == 1
        assert not (tmp_path / "out.bin.journal").exists()
        assert not (tmp_path / "out.bin.part").exists()

    def test_sender_crash_resumes_via_real_resume_handshake(self, tmp_path):
        """Kill the sender mid-blast; retry resumes from the journal."""
        from repro.simnet.faults import KillSwitch

        kill_plan = {0: KillSwitch(target="sender", after_packets=100)}
        data, out, result = self.run_resumable(tmp_path, port=39218,
                                               kill_plan=kill_plan)
        send, recv = result["send"], result["recv"]
        assert out.read_bytes() == data
        assert send.completed and send.attempts == 2
        assert recv.crc_ok and recv.attempts == 2
        # The RESUME bitmap crossed the TCP control channel: both ends
        # agree on how much the journal salvaged.
        assert send.resumed_packets > 0
        assert send.resumed_packets == recv.resumed_packets
        # Cleaned up after success.
        assert not (tmp_path / "out.bin.journal").exists()
        assert not (tmp_path / "out.bin.part").exists()

    def test_exhausted_attempts_reports_failure(self, tmp_path):
        """Every attempt killed: both sides return completed=False."""
        from repro.simnet.faults import KillSwitch

        kill_plan = {a: KillSwitch(target="sender", after_packets=50)
                     for a in range(3)}
        src, data = make_file(tmp_path, 200_000, seed=8)
        out = tmp_path / "dead.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.0)
        ready = threading.Event()
        result = {}

        def recv():
            result["recv"] = receive_file(str(out), 39219, bind="127.0.0.1",
                                          ready=ready, timeout=15.0,
                                          max_attempts=3, config=config)

        thread = threading.Thread(target=recv, daemon=True)
        thread.start()
        assert ready.wait(10)
        from repro.runtime.supervisor import RetryPolicy

        send = send_file(str(src), "127.0.0.1", 39219, config=config,
                         timeout=15.0, max_attempts=3, kill_plan=kill_plan,
                         policy=RetryPolicy(max_attempts=3, backoff_base=0.05,
                                            jitter=0.0))
        thread.join(30)
        assert not send.completed
        assert send.attempts == 3
        assert "killed by crash injection" in send.failure_reason
        assert not out.exists()
        # The journal survives a failed session for a later resume.
        assert (tmp_path / "dead.bin.journal").exists()


class TestCliProcesses:
    def test_two_process_transfer(self, tmp_path):
        """End-to-end: receiver and sender as separate OS processes."""
        import time

        src, data = make_file(tmp_path, 200_000, seed=3)
        out = tmp_path / "cli_out.bin"
        port = 39216
        recv_proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runtime.cli", "recv",
             "--port", str(port), "--output", str(out), "--bind", "127.0.0.1",
             "--timeout", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            # The sender retries while the receiver's listener comes up.
            deadline = time.monotonic() + 20
            send = None
            while time.monotonic() < deadline:
                send = subprocess.run(
                    [sys.executable, "-m", "repro.runtime.cli", "send",
                     str(src), "--host", "127.0.0.1", "--port", str(port),
                     "--timeout", "60"],
                    capture_output=True, text=True, timeout=90,
                )
                if send.returncode == 0 or "Connection refused" not in send.stderr:
                    break
                time.sleep(0.2)
            assert send is not None and send.returncode == 0, send.stderr
            assert "send ok" in send.stdout
            assert "throughput_mbps=" in send.stdout
            stdout, stderr = recv_proc.communicate(timeout=30)
            assert recv_proc.returncode == 0, stderr
            assert "crc=ok" in stdout
            assert out.read_bytes() == data
        finally:
            if recv_proc.poll() is None:
                recv_proc.kill()
