"""Integration-level tests for the TCP connection state machine."""

import pytest

from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.packet import Address
from repro.tcp.bulk import run_bulk_transfer
from repro.tcp.connection import TcpConnection, TcpListener, _Timer
from repro.tcp.options import TcpOptions

from _support import tiny_path


def make_pair(net, sender_opts=None, receiver_opts=None, port=5001, nbytes=None):
    """Listener on b, client on a; optionally auto-write nbytes."""
    delivered = []

    def on_conn(conn):
        conn.on_deliver = delivered.append

    listener = TcpListener(net.sim, net.b, port, options=receiver_opts,
                           on_connection=on_conn)
    client = TcpConnection(net.sim, net.a, net.a.allocate_port(),
                           peer=Address(net.b.name, port), options=sender_opts)
    if nbytes:
        client.on_established = lambda: client.app_write(nbytes)
    return client, listener, delivered


class TestHandshake:
    def test_connection_establishes(self):
        net = tiny_path()
        client, listener, _ = make_pair(net)
        client.connect()
        net.sim.run(until=1.0)
        assert client.state == "established"
        server = next(iter(listener.connections.values()))
        assert server.state in ("established", "syn_rcvd")

    def test_handshake_rtt_sampled(self):
        net = tiny_path(delay=5e-3)  # RTT 20 ms
        client, _, _ = make_pair(net)
        client.connect()
        net.sim.run(until=1.0)
        assert client.rtt.samples == 1
        assert client.rtt.srtt == pytest.approx(0.02, rel=0.1)

    def test_option_negotiation_both_enabled(self):
        net = tiny_path()
        opts = TcpOptions(window_scaling=True, sack=True)
        client, listener, _ = make_pair(net, opts, opts)
        client.connect()
        net.sim.run(until=1.0)
        assert client.eff_window_scaling
        assert client.eff_sack
        server = next(iter(listener.connections.values()))
        assert server.eff_window_scaling

    def test_option_negotiation_one_side_disables(self):
        net = tiny_path()
        client, _, _ = make_pair(
            net,
            TcpOptions(window_scaling=True, sack=True),
            TcpOptions(window_scaling=False, sack=False),
        )
        client.connect()
        net.sim.run(until=1.0)
        assert not client.eff_window_scaling
        assert not client.eff_sack

    def test_connect_twice_rejected(self):
        net = tiny_path()
        client, _, _ = make_pair(net)
        client.connect()
        with pytest.raises(RuntimeError):
            client.connect()

    def test_stray_non_syn_ignored_by_listener(self):
        net = tiny_path()
        listener = TcpListener(net.sim, net.b, 5001)
        from repro.simnet.packet import tcp_frame
        from repro.tcp.segments import Segment
        frame = tcp_frame(Address("a", 9), Address("b", 5001), Segment(ack=5), 0)
        net.b.receive(frame)
        assert not listener.connections


class TestDataTransfer:
    def test_small_transfer_delivers_all_bytes(self):
        net = tiny_path()
        client, _, delivered = make_pair(net, nbytes=100_000)
        client.connect()
        net.sim.run(until=10.0, stop_when=lambda: sum(delivered) >= 100_000)
        assert sum(delivered) == 100_000
        assert client.all_acked or client.flight_size >= 0

    def test_transfer_faster_than_stop_and_wait(self):
        """Pipelining: a 1 MB transfer at RTT 4 ms should take far less
        than the ~2.9 s a one-segment-per-RTT protocol would need."""
        net = tiny_path()
        client, _, delivered = make_pair(net, nbytes=1_000_000)
        client.connect()
        net.sim.run(until=10.0, stop_when=lambda: sum(delivered) >= 1_000_000)
        assert sum(delivered) == 1_000_000
        assert net.sim.now < 1.0

    def test_sender_respects_unscaled_window(self):
        """Without LWE, flight size never exceeds 64 KiB."""
        net = tiny_path(delay=20e-3)
        opts = TcpOptions(window_scaling=False)
        client, _, delivered = make_pair(net, opts, opts, nbytes=500_000)
        client.connect()
        max_flight = 0
        while net.sim.step():
            max_flight = max(max_flight, client.flight_size)
            if sum(delivered) >= 500_000 or net.sim.now > 20:
                break
        assert sum(delivered) == 500_000
        assert max_flight <= 65535

    def test_no_lwe_throughput_is_window_limited(self):
        """64 KiB / 80 ms RTT ~ 6.5 Mb/s even on a 100 Mb/s link."""
        net = tiny_path(delay=20e-3)  # RTT 80 ms
        opts = TcpOptions(window_scaling=False)
        client, _, delivered = make_pair(net, opts, opts, nbytes=2_000_000)
        client.connect()
        net.sim.run(until=60.0, stop_when=lambda: sum(delivered) >= 2_000_000)
        throughput = 2_000_000 * 8 / net.sim.now
        assert throughput < 9e6

    def test_lwe_throughput_beats_unscaled_on_fat_pipe(self):
        results = {}
        for scaling in (False, True):
            net = tiny_path(delay=20e-3, queue_bytes=1 << 20)
            opts = TcpOptions(window_scaling=scaling, recv_buffer=1 << 21)
            client, _, delivered = make_pair(net, opts, opts, nbytes=4_000_000)
            client.connect()
            net.sim.run(until=60.0, stop_when=lambda d=delivered: sum(d) >= 4_000_000)
            results[scaling] = 4_000_000 * 8 / net.sim.now
        assert results[True] > 2.5 * results[False]


class TestLossRecovery:
    def test_recovers_from_random_loss(self):
        net = tiny_path(loss_rate=0.01)
        client, _, delivered = make_pair(net, nbytes=500_000)
        client.connect()
        net.sim.run(until=60.0, stop_when=lambda: sum(delivered) >= 500_000)
        assert sum(delivered) == 500_000
        assert client.stats.retransmitted_segments > 0

    def test_fast_retransmit_used_for_isolated_loss(self):
        net = tiny_path(loss_rate=0.005)
        client, _, delivered = make_pair(net, nbytes=1_000_000)
        client.connect()
        net.sim.run(until=60.0, stop_when=lambda: sum(delivered) >= 1_000_000)
        assert sum(delivered) == 1_000_000
        assert client.stats.fast_retransmits > 0

    def test_sack_retransmissions_track_actual_losses(self):
        """With SACK, retransmitted volume stays near the lost volume
        (no go-back-N style resending of delivered data)."""
        for seed in (1, 5, 9):
            net = tiny_path(loss_rate=0.02, seed=seed)
            opts = TcpOptions(sack=True)
            client, _, delivered = make_pair(net, opts, opts, nbytes=1_000_000)
            client.connect()
            net.sim.run(until=120.0, stop_when=lambda d=delivered: sum(d) >= 1_000_000)
            assert sum(delivered) == 1_000_000
            # 2% loss -> lost volume ~20 KB; allow generous headroom but
            # far below the ~600 KB a broken hole-scan would resend.
            assert client.stats.retransmitted_bytes < 120_000

    def test_sack_no_worse_timeouts_than_reno(self):
        """Across seeds, SACK recovery needs at most as many timeouts."""
        totals = {False: 0, True: 0}
        for sack in (False, True):
            for seed in (1, 5, 9):
                net = tiny_path(loss_rate=0.03, seed=seed)
                opts = TcpOptions(sack=sack)
                client, _, delivered = make_pair(net, opts, opts, nbytes=500_000)
                client.connect()
                net.sim.run(until=120.0,
                            stop_when=lambda d=delivered: sum(d) >= 500_000)
                assert sum(delivered) == 500_000
                totals[sack] += client.stats.timeouts
        assert totals[True] <= totals[False]

    def test_timeout_recovery_on_heavy_loss(self):
        net = tiny_path(loss_rate=0.2, seed=2)
        client, _, delivered = make_pair(net, nbytes=50_000)
        client.connect()
        net.sim.run(until=300.0, stop_when=lambda: sum(delivered) >= 50_000)
        assert sum(delivered) == 50_000
        assert client.stats.timeouts > 0

    def test_syn_retransmitted_on_loss(self):
        net = tiny_path(loss_rate=1.0, seed=0)
        client, _, _ = make_pair(net)
        client.connect()
        net.sim.run(until=3.5)
        assert client.stats.segments_sent >= 2  # original + >=1 retry


class TestDelayedAck:
    def test_delayed_ack_halves_ack_count(self):
        counts = {}
        for delayed in (False, True):
            net = tiny_path()
            opts = TcpOptions(delayed_ack=delayed)
            client, listener, delivered = make_pair(net, opts, opts, nbytes=200_000)
            client.connect()
            net.sim.run(until=10.0, stop_when=lambda d=delivered: sum(d) >= 200_000)
            server = next(iter(listener.connections.values()))
            counts[delayed] = server.stats.acks_sent
        assert counts[True] < counts[False]

    def test_delack_timer_flushes_odd_segment(self):
        """A lone segment is still acked within the delack timeout."""
        net = tiny_path()
        client, listener, delivered = make_pair(net, nbytes=1000)  # single segment
        client.connect()
        net.sim.run(until=5.0)
        assert sum(delivered) == 1000
        assert client.all_acked


class TestOneLiveEntryTimer:
    """A re-armed timer moves its deadline instead of pushing a handle."""

    def make(self):
        sim = Simulator()
        fired = []
        return sim, fired, _Timer(sim, lambda: fired.append(sim.now))

    def test_a_later_deadline_keeps_the_one_entry(self):
        sim, fired, timer = self.make()
        for deadline in (1.0, 1.5, 2.0):
            timer.arm(deadline)
        assert sim.pending == 1
        sim.run()
        assert fired == [2.0]
        # The entry fired at 1.0, found the deadline moved on and
        # re-scheduled itself for it once.
        assert sim.processed == 2

    def test_an_earlier_deadline_replaces_the_entry(self):
        sim, fired, timer = self.make()
        timer.arm(2.0)
        timer.arm(1.0)
        sim.run()
        assert fired == [1.0]
        assert sim.processed == 1

    def test_a_disarmed_entry_fires_as_a_no_op(self):
        sim, fired, timer = self.make()
        timer.arm(1.0)
        timer.disarm()
        sim.run()
        assert fired == [] and sim.processed == 1
        timer.arm(3.0)
        sim.run()
        assert fired == [3.0]

    def test_cancel_drops_the_entry(self):
        sim, fired, timer = self.make()
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == [] and sim.processed == 0

    def test_a_transfer_leaves_one_entry_per_timer(self):
        """Cancel-and-push per advancing ACK and per odd segment left
        over a thousand dead entries in the heap of a 2 MB transfer."""
        net = tiny_path(delay=0.01)
        assert run_bulk_transfer(net, 2_000_000).completed
        handles = [e for e in net.sim._heap if isinstance(e[2], EventHandle)]
        assert len(handles) <= 4  # RTO and delayed ACK, two connections


class TestStats:
    def test_wire_bytes_include_headers(self):
        net = tiny_path()
        client, _, delivered = make_pair(net, nbytes=14600)  # 10 segments
        client.connect()
        net.sim.run(until=5.0)
        assert client.stats.wire_bytes_sent >= 14600 + 11 * 40

    def test_close_releases_port(self):
        net = tiny_path()
        client, listener, _ = make_pair(net)
        client.connect()
        net.sim.run(until=1.0)
        port = client.local.port
        client.close()
        # Port can be rebound
        TcpConnection(net.sim, net.a, port, peer=Address("b", 5001))
