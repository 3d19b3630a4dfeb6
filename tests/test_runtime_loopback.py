"""Real-socket loopback tests for the sans-IO FOBS core."""

import socket

import pytest

from _support import DribbleSocket
from repro.core.config import FobsConfig
from repro.runtime import run_loopback_transfer

pytestmark = pytest.mark.loopback


class TestLoopback:
    def test_clean_transfer_checksums(self):
        res = run_loopback_transfer(500_000)
        assert res.checksum_ok
        assert res.nbytes == 500_000
        assert res.throughput_bps > 0

    def test_lossy_transfer_recovers(self):
        res = run_loopback_transfer(300_000, drop_rate=0.05, seed=1)
        assert res.checksum_ok
        assert res.packets_retransmitted > 0

    def test_heavy_loss_recovers(self):
        res = run_loopback_transfer(100_000, drop_rate=0.3, seed=2)
        assert res.checksum_ok

    def test_odd_object_size(self):
        res = run_loopback_transfer(100_001)
        assert res.checksum_ok

    def test_custom_packet_size(self):
        cfg = FobsConfig(packet_size=4096, ack_frequency=8)
        res = run_loopback_transfer(200_000, config=cfg)
        assert res.checksum_ok

    def test_explicit_data(self):
        data = bytes(range(256)) * 100
        res = run_loopback_transfer(len(data), data=data)
        assert res.checksum_ok

    def test_data_length_validated(self):
        with pytest.raises(ValueError):
            run_loopback_transfer(100, data=b"short")

    def test_waste_reported(self):
        res = run_loopback_transfer(200_000, drop_rate=0.1, seed=3)
        assert res.wasted_fraction > 0.03

    def test_completion_frame_split_across_reads(self, monkeypatch):
        """The 12-byte completion frame arriving as 5 + 5 + 2 bytes still
        completes the transfer (one ``recv`` used to be decoded as is)."""
        accept = socket.socket.accept

        def dribbling_accept(listener):
            conn, addr = accept(listener)
            return DribbleSocket(conn), addr

        monkeypatch.setattr(socket.socket, "accept", dribbling_accept)
        res = run_loopback_transfer(50_000)
        assert res.completed and res.checksum_ok


BLAST = dict(batch_size=16, ack_frequency=64)


@pytest.mark.parametrize("nbytes, config", [
    (1_000_000, None),
    (8 << 20, FobsConfig(packet_size=1024, **BLAST)),
    (16 << 20, FobsConfig(packet_size=32768, **BLAST)),
], ids=["default-1MB", "1KiB-8MB", "32KiB-16MB"])
def test_clean_path_sends_each_packet_once(nbytes, config):
    """No injected fault, so nothing is lost and nothing is re-sent.

    Sender and receiver take turns on one thread, so at most one batch
    is ever in flight and the receive buffer cannot overflow.  The only
    extra packets are the ones by which the last batch of the pass
    wraps past the end of the object: none where ``batch_size`` divides
    ``npackets``.
    """
    geometry = config if config is not None else FobsConfig()
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    if granted < 2 * geometry.batch_size * geometry.packet_size:
        pytest.skip(f"net.core.rmem_max grants {granted} bytes: "
                    f"one batch overflows the receive buffer")
    npackets = geometry.npackets(nbytes)
    wrap = -npackets % geometry.batch_size
    for _ in range(5):
        res = run_loopback_transfer(nbytes, config=config)
        assert res.checksum_ok
        assert res.packets_sent - npackets == wrap
        assert res.duplicates_received <= wrap
