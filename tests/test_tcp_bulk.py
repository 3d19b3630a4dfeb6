"""Tests for the bulk TCP transfer harness."""

import dataclasses
import hashlib
import json

import pytest

import repro
from repro.psockets import run_striped_transfer
from repro.tcp import TcpOptions, run_bulk_transfer

from _support import tiny_path


class TestBulkTransfer:
    def test_completes_and_reports(self):
        net = tiny_path()
        res = run_bulk_transfer(net, 500_000)
        assert res.completed
        assert res.nbytes == 500_000
        assert 0 < res.percent_of_bottleneck <= 100
        assert res.lwe_negotiated

    def test_throughput_consistent_with_duration(self):
        net = tiny_path()
        res = run_bulk_transfer(net, 500_000)
        assert res.throughput_bps == pytest.approx(500_000 * 8 / res.duration)

    def test_no_lwe_flag_reported(self):
        net = tiny_path()
        opts = TcpOptions(window_scaling=False)
        res = run_bulk_transfer(net, 200_000, sender_options=opts,
                                receiver_options=opts)
        assert not res.lwe_negotiated

    def test_time_limit_reports_incomplete(self):
        net = tiny_path(bandwidth_bps=1e5)
        res = run_bulk_transfer(net, 1_000_000, time_limit=1.0)
        assert not res.completed

    def test_invalid_nbytes_rejected(self):
        with pytest.raises(ValueError):
            run_bulk_transfer(tiny_path(), 0)

    def test_lossy_path_completes_with_retransmissions(self):
        net = tiny_path(loss_rate=0.02, seed=1)
        res = run_bulk_transfer(net, 500_000)
        assert res.completed
        assert res.sender_stats.retransmitted_segments > 0

    def test_str_rendering(self):
        res = run_bulk_transfer(tiny_path(), 100_000)
        out = str(res)
        assert "Mb/s" in out and "%" in out


#: TCP option sets of the outcome pin: Table 1's rows and SACK beside.
TCP_OPTIONS = {
    "plain": dict(window_scaling=False),
    "lwe": dict(window_scaling=True),
    "lwe_sack": dict(window_scaling=True, sack=True),
}


def tcp_outcome_digest(path: str, options: str) -> str:
    """SHA-256 of one 10 MB, seed-0 bulk transfer's whole outcome."""
    opts = TcpOptions(**TCP_OPTIONS[options])
    res = run_bulk_transfer(getattr(repro, path)(seed=0), 10_000_000,
                            sender_options=opts, receiver_options=opts)
    blob = json.dumps([repr(res.duration), res.completed, res.lwe_negotiated,
                       dataclasses.asdict(res.sender_stats)], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def striped_outcome_digest() -> str:
    """SHA-256 of a 4-socket, 10 MB, seed-0 striped transfer (Table 2)."""
    res = run_striped_transfer(repro.contended_path(seed=0), 10_000_000, 4)
    blob = json.dumps([repr(res.duration), res.completed,
                       [dataclasses.asdict(s) for s in res.per_stream]],
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: Written by the commit before Table 1's harness stopped by request and
#: its timers kept one live heap entry each: TCP is bit-identical across
#: that change, on both engines, and across any later one that claims
#: to be.
TCP_DIGESTS = {
    ("short_haul", "plain"): "a4c9a865f629a65eeb530e230f961edf86f31e4d7a7f8a6c6e1519db1e9d939f",
    ("short_haul", "lwe"): "de4cd904daea8abef0ec15fd7b6d1f637081d0fc6fee2a389e374a9f35da9dce",
    ("short_haul", "lwe_sack"): "75dc1b6106ca02c50f871e981b40f11a4234e3d6ec9c6fcff2fe1f7f0da10744",
    ("long_haul", "plain"): "85c1a307acdb47db2bfc27a15afd30c4f0774134a347383372a5c3d12d573475",
    ("long_haul", "lwe"): "55c1fd9b93d08ed1fe5463c8d24083ec9a205743adff3822d119fc35e058bc6e",
    ("long_haul", "lwe_sack"): "dcecf07150156e1d6dc18a115b90608bf0abdfc9d2618067db8bda0aef4941d8",
    ("contended_path", "plain"): "dc5c134f89fe197932812e23075a97ab46cf133cec0d5592aeb27235517e1e1e",
    ("contended_path", "lwe"): "a199230736fb1d7ae30fbe100d8c8389526ef624910eee3ee74c82afd332f212",
    ("contended_path", "lwe_sack"): "d0a76dd256d2834017035802ab8c48cc2140b8089152c5e7024765cfcb096c47",
    ("gigabit_path", "plain"): "fd1170e258f1192a47fff2e191c417865888b1d498ed785dda77c97e669443a4",
    ("gigabit_path", "lwe"): "a9db3f6444158307f13000814eca3f86cb67bc095f6fad6a45dbf68ce46bd5cc",
    ("gigabit_path", "lwe_sack"): "82f72b4a729f315d0d65d9dacd1e4f7e3fd44ceb89331379230951ba65e1471a",
}
STRIPED_DIGEST = (
    "300481f14ef837d4f36f2559825c92c2fe920d2611813f7a0da3bcb83e724cf5")


@pytest.mark.parametrize("path,options", sorted(TCP_DIGESTS))
def test_tcp_outcomes_are_pinned(path, options):
    assert tcp_outcome_digest(path, options) == TCP_DIGESTS[path, options]


def test_striped_outcome_is_pinned():
    assert striped_outcome_digest() == STRIPED_DIGEST
