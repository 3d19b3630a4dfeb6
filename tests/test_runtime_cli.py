"""``repro send`` / ``recv`` / ``loopback``: flags, exit codes, resumable
file transfers.

The bugfix under test: a failed transfer must exit nonzero with the
failure diagnosis on stderr (previously a loopback/stats-only failure
was invisible to scripts), and the PR 1 hardening knobs plus the
resume flags must be accepted by every subcommand.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from _support import free_port
from repro.server.cli import build_parser, main
from repro.runtime.files import receive_endpoint
from repro.runtime.transfer import run_endpoints


class TestParser:
    @pytest.mark.parametrize("base", [
        ["send", "f.bin", "--port", "9"],
        ["recv", "--port", "9", "--output", "o.bin"],
        ["loopback"],
    ])
    def test_hardening_and_resume_flags_everywhere(self, base):
        args = build_parser().parse_args(base + [
            "--stall-timeout", "0.5", "--stall-abort-after", "2.0",
            "--no-checksum", "--resume", "--max-attempts", "4",
            "--journal-path", "x.journal",
        ])
        assert args.stall_timeout == 0.5
        assert args.stall_abort_after == 2.0
        assert args.no_checksum and args.resume
        assert args.max_attempts == 4
        assert args.journal_path == "x.journal"

    def test_defaults_leave_knobs_unset(self):
        args = build_parser().parse_args(["loopback"])
        assert args.stall_timeout is None
        assert args.stall_abort_after is None
        assert not args.no_checksum and not args.resume
        assert args.max_attempts == 1

    @pytest.mark.parametrize("base", [
        ["send", "f.bin", "--port", "9"],
        ["recv", "--port", "9", "--output", "o.bin"],
        ["loopback"],
    ])
    def test_quiet_flag_everywhere(self, base):
        assert build_parser().parse_args(base + ["--quiet"]).quiet
        assert not build_parser().parse_args(base).quiet

    def test_loopback_flags(self):
        args = build_parser().parse_args(
            ["loopback", "--nbytes", "5000", "--drop-rate", "0.1",
             "--blackhole-acks", "--seed", "3"])
        assert args.nbytes == 5000
        assert args.drop_rate == 0.1
        assert args.blackhole_acks and args.seed == 3


class TestLoopbackExitCodes:
    def test_success_exits_zero(self, capsys):
        rc = main(["loopback", "--nbytes", "100000", "--timeout", "30"])
        assert rc == 0
        assert "loopback ok" in capsys.readouterr().out

    def test_dead_ack_path_exits_nonzero_with_reason(self, capsys):
        """The bugfix: protocol-level aborts are script-visible."""
        rc = main(["loopback", "--nbytes", "100000", "--blackhole-acks",
                   "--stall-timeout", "0.1", "--stall-abort-after", "0.5",
                   "--timeout", "30"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "failure_reason=" in err
        assert "timed_out=" in err
        assert "stalled" in err

    def test_survivable_loss_still_succeeds(self, capsys):
        rc = main(["loopback", "--nbytes", "100000", "--drop-rate", "0.05",
                   "--timeout", "30"])
        assert rc == 0


class TestOutputDiscipline:
    """stdout carries exactly one machine-readable line; progress is
    stderr-only and silenced by --quiet."""

    def test_quiet_keeps_stdout_result_line_only(self, capsys):
        rc = main(["loopback", "--nbytes", "50000", "--timeout", "30",
                   "--quiet"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.out.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("loopback ok ")
        assert "nbytes=50000" in lines[0]
        assert captured.err == ""

    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        rc = main(["loopback", "--nbytes", "50000", "--timeout", "30"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "completed in" in captured.err
        assert "completed in" not in captured.out

    def test_quiet_never_silences_failures(self, capsys):
        rc = main(["loopback", "--nbytes", "100000", "--blackhole-acks",
                   "--stall-timeout", "0.1", "--stall-abort-after", "0.5",
                   "--timeout", "30", "--quiet"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert captured.out == ""


class TestSendRecvExitCodes:
    def test_send_to_nobody_exits_nonzero(self, tmp_path, capsys):
        src = tmp_path / "f.bin"
        src.write_bytes(b"x" * 1000)
        rc = main(["send", str(src), "--host", "127.0.0.1",
                   "--port", str(free_port()), "--timeout", "2"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_recv_without_sender_exits_nonzero(self, tmp_path, capsys):
        rc = main(["recv", "--port", str(free_port()), "--bind", "127.0.0.1",
                   "--output", str(tmp_path / "o.bin"), "--timeout", "1"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().err

    def test_resumable_round_trip_via_cli(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        blob = rng.integers(0, 256, size=200_000, dtype=np.uint8).tobytes()
        src = tmp_path / "src.bin"
        src.write_bytes(blob)
        out = tmp_path / "out.bin"
        # The other end is the blocking CLI, so the receiver keeps a
        # thread; its port listens before the thread starts.
        rx = receive_endpoint(str(out), 0, bind="127.0.0.1", timeout=30,
                              max_attempts=3)
        thread = threading.Thread(target=run_endpoints, args=([rx],),
                                  daemon=True)
        thread.start()
        rc = main(["send", str(src), "--host", "127.0.0.1",
                   "--port", str(rx.socks[0].getsockname()[1]),
                   "--timeout", "30", "--resume", "--max-attempts", "3"])
        thread.join(timeout=30)
        assert rc == 0
        assert out.read_bytes() == blob
        assert rx.result.crc_ok
        captured = capsys.readouterr()
        assert "send ok" in captured.out
        assert "attempts=" in captured.out
