"""Smoke tests: every example script runs to completion.

Each example is executed as a subprocess with a reduced workload where
it accepts one; the assertion is on exit status and a signature line of
output, keeping the examples from rotting.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

pytestmark = pytest.mark.slow


def run_example(name, *args, timeout=300):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "maximum" in out
        assert "%" in out

    def test_grid_data_transfer(self):
        out = run_example("grid_data_transfer.py", "--nbytes", "4000000",
                          "--seeds", "2")
        assert "FOBS" in out
        assert "ratio" in out

    def test_packet_size_tuning(self):
        out = run_example("packet_size_tuning.py")
        assert "32K" in out

    def test_real_sockets_loopback(self):
        out = run_example("real_sockets_loopback.py")
        assert "checksum ok: True" in out

    def test_congestion_fallback(self):
        out = run_example("congestion_fallback.py")
        assert "greedy" in out
        assert "tcp_switch" in out
