"""Tests for the real-socket file-transfer session protocol and CLI."""

import socket
import subprocess
import sys

import numpy as np
import pytest

from _support import free_port, raw_offer
from repro.core.config import FobsConfig
from repro.runtime import wire
from repro.runtime.files import receive_endpoint, send_endpoint, send_file
from repro.runtime.transfer import run_endpoints, run_loopback_transfer

pytestmark = pytest.mark.loopback


def make_file(tmp_path, nbytes, seed=0):
    data = np.random.default_rng(seed).integers(0, 256, nbytes,
                                                dtype=np.uint8).tobytes()
    path = tmp_path / "payload.bin"
    path.write_bytes(data)
    return path, data


def both_ends(out, data, receive=(), send=()):
    """Receiver and sender of ``data`` into ``out``, run to their end on
    this thread; their results as ``{"recv": ..., "send": ...}``."""
    rx = receive_endpoint(str(out), 0, bind="127.0.0.1", **dict(receive))
    tx = send_endpoint(data, "127.0.0.1", rx.socks[0].getsockname()[1],
                       **dict(send))
    run_endpoints([rx, tx])
    return {"recv": rx.result, "send": tx.result}


def run_pair(tmp_path, nbytes, config=None, seed=0):
    _, data = make_file(tmp_path, nbytes, seed)
    out = tmp_path / "out.bin"
    result = both_ends(out, data, dict(timeout=60.0),
                       dict(config=config, timeout=60.0))
    return data, out, result


class SocketOpened(Exception):
    """A socket was asked for."""


#: One packet per byte: an object of N bytes is N packets.
ONE_BYTE = FobsConfig(packet_size=1, ack_frequency=64)


def _send_file(tmp_path, npackets):
    big = tmp_path / "big"
    big.write_bytes(bytes(npackets))
    return send_file(str(big), "127.0.0.1", 9, config=ONE_BYTE,
                     verify=False)


def _decoded_offer(_tmp_path, npackets):
    decoder = wire.ControlDecoder()
    decoder.feed(raw_offer(npackets, 1))
    return decoder.next_frame()


#: Each way an object of N packets enters, and whether it opens a
#: socket once past the limit.
ONE_ACK_INPUTS = {
    "send_file": (_send_file, True),
    "run_loopback_transfer": (
        lambda _tmp_path, n: run_loopback_transfer(n, ONE_BYTE), True),
    "send_endpoint": (lambda _tmp_path, n: run_endpoints([send_endpoint(
        bytes(n), "127.0.0.1", 9, config=ONE_BYTE, verify=False)]), True),
    "offer2": (_decoded_offer, False),
}


class TestFileTransfer:
    def test_roundtrip_byte_exact(self, tmp_path):
        data, out, result = run_pair(tmp_path, 300_000)
        assert out.read_bytes() == data
        assert result["recv"].crc_ok
        assert result["send"].nbytes == 300_000

    def test_small_file(self, tmp_path):
        data, out, result = run_pair(tmp_path, 100)
        assert out.read_bytes() == data

    def test_odd_size_with_custom_packet(self, tmp_path):
        config = FobsConfig(packet_size=4096, ack_frequency=8)
        data, out, result = run_pair(tmp_path, 123_457, config=config)
        assert out.read_bytes() == data

    def test_completion_frame_split_across_reads(self, tmp_path, monkeypatch):
        """A control connection that yields 5 bytes a read (so the
        completion frame takes three polls) must not fail an attempt
        whose delivery the receiver blessed."""
        recv = socket.socket.recv
        monkeypatch.setattr(socket.socket, "recv",
                            lambda sock, nbytes: recv(sock, min(nbytes, 5)))
        data, out, result = run_pair(tmp_path, 60_000)
        assert out.read_bytes() == data
        assert result["send"].nbytes == 60_000

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        with pytest.raises(ValueError):
            send_file(str(empty), "127.0.0.1", free_port())

    @pytest.mark.parametrize("refuser", list(ONE_ACK_INPUTS))
    def test_an_object_one_ack_cannot_cover_is_refused_before_a_socket(
            self, refuser, tmp_path, monkeypatch):
        """Every ACK carries the whole bitmap in one datagram, beside
        its session extension: 523,832 packets.  Past that, like an
        empty file, the object is refused before any socket opens, not
        by the kernel at the first ACK; at the bound it gets as far as
        its first socket (an OFFER2: it decodes)."""
        def opened(*_args, **_kwargs):
            raise SocketOpened

        monkeypatch.setattr(socket, "socket", opened)
        make, opens = ONE_ACK_INPUTS[refuser]
        with pytest.raises(ValueError, match="an object of 523833 packets: "
                           "one ACK's bitmap covers at most 523832"):
            make(tmp_path, 523_833)
        if opens:
            with pytest.raises(SocketOpened):
                make(tmp_path, 523_832)
        else:
            assert make(tmp_path, 523_832).npackets == 523_832

    def test_throughput_reported(self, tmp_path):
        _, _, result = run_pair(tmp_path, 200_000)
        assert result["send"].throughput_bps > 0
        assert result["recv"].duration > 0


class TestResumableFileTransfer:
    def run_resumable(self, tmp_path, kill_plan=None, nbytes=300_000):
        from repro.runtime.supervisor import RetryPolicy

        _, data = make_file(tmp_path, nbytes, seed=7)
        out = tmp_path / "out.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.5)
        result = both_ends(
            out, data, dict(timeout=60.0, max_attempts=3, config=config),
            dict(config=config, timeout=60.0, max_attempts=3,
                 kill_plan=kill_plan,
                 policy=RetryPolicy(max_attempts=3, backoff_base=0.05,
                                    jitter=0.0)))
        return data, out, result

    def test_clean_resumable_session(self, tmp_path):
        data, out, result = self.run_resumable(tmp_path)
        assert out.read_bytes() == data
        assert result["send"].completed and result["send"].attempts == 1
        assert result["recv"].crc_ok and result["recv"].attempts == 1
        assert not (tmp_path / "out.bin.journal").exists()
        assert not (tmp_path / "out.bin.part").exists()

    def test_sender_crash_resumes_via_real_resume_handshake(self, tmp_path):
        """Kill the sender mid-blast; retry resumes from the journal."""
        from repro.simnet.faults import KillSwitch

        kill_plan = {0: KillSwitch(target="sender", after_packets=100)}
        data, out, result = self.run_resumable(tmp_path, kill_plan=kill_plan)
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
        from repro.runtime.supervisor import RetryPolicy

        _, data = make_file(tmp_path, 200_000, seed=8)
        out = tmp_path / "dead.bin"
        config = FobsConfig(ack_frequency=32, stall_timeout=0.1,
                            stall_abort_after=0.5, receiver_idle_timeout=1.0)
        send = both_ends(
            out, data, dict(timeout=15.0, max_attempts=3, config=config),
            dict(config=config, timeout=15.0, max_attempts=3,
                 kill_plan=kill_plan,
                 policy=RetryPolicy(max_attempts=3, backoff_base=0.05,
                                    jitter=0.0)))["send"]
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
        port = free_port()
        recv_proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "recv",
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
                    [sys.executable, "-m", "repro", "send",
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
