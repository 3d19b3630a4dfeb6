"""Real-socket daemon tests: concurrent fetches, queueing, push, drain."""

import gc
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from _support import free_port, raw_offer
from repro.core.config import FobsConfig
from repro.runtime import wire
from repro.runtime.files import receive_endpoint, receive_file, send_file
from repro.runtime.transfer import SEND_BATCH, drain, run_endpoints, udp_offload
from repro.server import ObjectServer, fetch_file

pytestmark = pytest.mark.loopback

CONFIG = FobsConfig(ack_frequency=16)


class RunningServer:
    """Start an ObjectServer on a thread; drain and join on exit."""

    def __init__(self, root, **kwargs):
        kwargs.setdefault("config", CONFIG)
        kwargs.setdefault("bind", "127.0.0.1")
        self.server = ObjectServer(str(root), port=0, **kwargs)
        self.snapshot = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.snapshot = self.server.serve_forever(self._ready)

    def __enter__(self):
        self._ready = threading.Event()
        self._thread.start()
        assert self._ready.wait(5), "server failed to start"
        return self

    def __exit__(self, *exc):
        self.server.request_drain()
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            self.server.stop()
            self._thread.join(timeout=5)

    @property
    def port(self):
        return self.server.port


@pytest.fixture
def objects(tmp_path):
    root = tmp_path / "objects"
    root.mkdir()
    rng = np.random.default_rng(4)
    for name, size in (("a.bin", 300_000), ("b.bin", 200_000),
                       ("c.bin", 150_000)):
        blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        (root / name).write_bytes(blob)
    return root


def fetch_many(names, port, outdir):
    results = {}

    def one(name):
        results[name] = fetch_file(
            name, "127.0.0.1", port, str(outdir / name), config=CONFIG,
            timeout=30)

    threads = [threading.Thread(target=one, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=40)
    return results


class TestConcurrentFetch:
    def test_two_simultaneous_fetches_byte_correct(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with RunningServer(objects) as running:
            results = fetch_many(["a.bin", "b.bin"], running.port, out)
        for name, result in results.items():
            assert result.completed and result.crc_ok, result.failure_reason
            assert (out / name).read_bytes() == (objects / name).read_bytes()
        assert running.snapshot.completed == 2
        assert running.snapshot.failed == 0

    def test_queue_then_run_under_max_active_one(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with RunningServer(objects, max_active=1, queue_depth=4) as running:
            results = fetch_many(["a.bin", "b.bin", "c.bin"],
                                 running.port, out)
        assert all(r.completed for r in results.values())
        assert running.snapshot.completed == 3
        counters = running.server.admission.counters
        assert counters.queued >= 2  # two of three had to wait

    def test_default_config_fetch_starts_at_the_real_socket_batch(
            self, objects, tmp_path, monkeypatch):
        """A daemon nobody configured sends bursts of SEND_BATCH, not the
        DES's two: one codec pass and one syscall per sixteen datagrams."""
        bursts = []
        build_send = ObjectServer._send_for

        def recording_send_for(server, entry):
            send = build_send(server, entry)

            def recording(views):
                bursts.append(len(views))
                return send(views)
            return recording

        monkeypatch.setattr(ObjectServer, "_send_for", recording_send_for)
        with RunningServer(objects, config=None) as running:
            assert running.server.config.batch_size == SEND_BATCH == 16
            result = fetch_file("a.bin", "127.0.0.1", running.port,
                                str(tmp_path / "a.bin"), timeout=30)
        assert result.completed and result.crc_ok, result.failure_reason
        blob = (objects / "a.bin").read_bytes()
        assert len(blob) >= 64 * running.server.config.packet_size
        assert (tmp_path / "a.bin").read_bytes() == blob
        # The entry's first step handed its send one 16-view burst.
        assert bursts[0] == SEND_BATCH

    def test_a_finished_fetch_frees_its_object_without_the_cycle_collector(
            self, objects, tmp_path, monkeypatch):
        """The entry and its control connection point at each other; the
        daemon must part them when the transfer ends, or every served
        object's bytes stay resident until some later gen-2 collection."""
        senders = []
        build_send = ObjectServer._send_for

        def tracking_send_for(server, entry):
            senders.append(weakref.ref(entry.sender))
            return build_send(server, entry)

        monkeypatch.setattr(ObjectServer, "_send_for", tracking_send_for)
        gc.collect()
        gc.disable()
        try:
            with RunningServer(objects) as running:
                result = fetch_file("b.bin", "127.0.0.1", running.port,
                                    str(tmp_path / "b.bin"), config=CONFIG,
                                    timeout=30)
            assert result.completed, result.failure_reason
            assert len(senders) == 1 and senders[0]() is None
        finally:
            gc.enable()

    def test_not_found_rejected_cleanly(self, objects, tmp_path):
        with RunningServer(objects) as running:
            result = fetch_file("missing.bin", "127.0.0.1", running.port,
                                str(tmp_path / "m.bin"), config=CONFIG,
                                timeout=10)
        assert not result.completed
        assert "no such object" in result.failure_reason
        assert not os.path.exists(tmp_path / "m.bin")

    def test_queue_overflow_rejected_with_reason(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with RunningServer(objects, max_active=1,
                           queue_depth=0) as running:
            # Occupy the only slot with a paced (slow) fetch...
            slow = {}

            def fetch_slow():
                slow["r"] = fetch_file(
                    "a.bin", "127.0.0.1", running.port, str(out / "a.bin"),
                    config=CONFIG, timeout=30, rate_cap_bps=int(2e6))

            thread = threading.Thread(target=fetch_slow)
            thread.start()
            deadline = 50
            while running.server.admission.active == () and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            # ...then a second request must be rejected "full".
            rejected = fetch_file(
                "b.bin", "127.0.0.1", running.port, str(out / "b.bin"),
                config=CONFIG, timeout=10)
            thread.join(timeout=40)
        assert slow["r"].completed
        assert not rejected.completed
        assert "full" in rejected.failure_reason


class TestPushCompat:
    def test_vanilla_v1_push_lands_in_root(self, objects, tmp_path):
        src = tmp_path / "push_src.bin"
        blob = os.urandom(120_000)
        src.write_bytes(blob)
        with RunningServer(objects) as running:
            result = send_file(str(src), "127.0.0.1", running.port,
                               config=CONFIG, timeout=30)
        assert result.completed
        pushed = [p for p in os.listdir(objects)
                  if p.startswith("push-") and p.endswith(".bin")]
        assert len(pushed) == 1
        assert (objects / pushed[0]).read_bytes() == blob

    def test_resumable_v2_push_shares_udp_socket(self, objects, tmp_path):
        src = tmp_path / "push_src.bin"
        blob = os.urandom(150_000)
        src.write_bytes(blob)
        with RunningServer(objects) as running:
            result = send_file(str(src), "127.0.0.1", running.port,
                               config=CONFIG, timeout=30, resume=True,
                               max_attempts=2)
        assert result.completed and result.attempts == 1
        pushed = [p for p in os.listdir(objects)
                  if p.startswith("push-") and p.endswith(".bin")]
        assert (objects / pushed[0]).read_bytes() == blob
        # Wire bytes (headers included), so at least the payload size.
        assert running.snapshot.bytes_received >= len(blob)


class TestDrainAndStats:
    def test_drain_finishes_actives_rejects_newcomers(self, objects,
                                                      tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with RunningServer(objects) as running:
            active = {}

            def fetch_active():
                active["r"] = fetch_file(
                    "a.bin", "127.0.0.1", running.port, str(out / "a.bin"),
                    config=CONFIG, timeout=30, rate_cap_bps=int(4e6))

            thread = threading.Thread(target=fetch_active)
            thread.start()
            deadline = 50
            while not running.server.admission.active and deadline:
                threading.Event().wait(0.05)
                deadline -= 1
            running.server.request_drain()
            threading.Event().wait(0.2)
            late = fetch_file("b.bin", "127.0.0.1", running.port,
                              str(out / "b.bin"), config=CONFIG, timeout=10)
            thread.join(timeout=40)
        assert active["r"].completed  # the active transfer finished
        assert not late.completed     # the late request was turned away
        assert running.snapshot.completed == 1

    def test_stats_snapshot_renders(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        with RunningServer(objects, rate_budget_bps=200e6) as running:
            fetch_many(["a.bin"], running.port, out)
            # The client returns on its own completion signal; give the
            # server's loop a moment to record the finished transfer.
            for _ in range(100):
                snap = running.server.stats()
                if snap.completed:
                    break
                threading.Event().wait(0.05)
        assert snap.completed == 1
        line = snap.render()
        assert "done=1" in line and "budget=" in line
        assert "up=" in line
        final = running.snapshot
        assert final.bytes_sent >= 300_000  # wire bytes, headers included
        assert final.draining

    def test_serve_process_announces_and_drains_on_sigterm(self, objects,
                                                           tmp_path):
        """The contract scripts rely on: ``python -m repro serve`` names
        its port on stderr, and SIGTERM drains it to exit 0 with one
        ``serve done`` line on stdout."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(objects),
             "--port", "0", "--bind", "127.0.0.1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # Bounds the blocking readline below: a killed daemon closes
        # stderr, and the kill shows as a nonzero exit.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            announced = None
            while announced is None:
                line = proc.stderr.readline()
                assert line, "serve exited before announcing its port"
                announced = re.search(r"on tcp (\d+)", line)
            result = fetch_file("a.bin", "127.0.0.1",
                                int(announced.group(1)),
                                str(tmp_path / "a.bin"), config=CONFIG,
                                timeout=30)
            assert result.completed, result.failure_reason
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, err
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "serve done completed=1 "), out
        sent = int(re.search(r"bytes_sent=(\d+)", lines[0]).group(1))
        assert sent >= (objects / "a.bin").stat().st_size


# ----------------------------------------------------------------------
# Frames that used to end the process (each reproduced at PR 19:
# ``serve_forever`` left with the exception, every transfer with it)
# ----------------------------------------------------------------------

def resume_of_the_wrong_geometry(ctrl) -> bytes:
    """FETCH ``a.bin``, then answer the offer with a RESUME for the right
    session whose header says ``npackets=8``, padded to the length a
    293-packet object's RESUME has."""
    ctrl.sendall(wire.encode_fetch(wire.FetchRequest(
        "a.bin", flags=wire.FETCH_FLAG_CHECKSUM | wire.FETCH_FLAG_RESUME,
        client_nonce=7)))
    offer = wire.read_frame(ctrl, wire.ControlDecoder())
    assert offer.npackets == 293
    resume = wire.encode_resume(offer.transfer_id, offer.epoch, 40002,
                                np.zeros(8, dtype=bool))
    return resume + bytes(28 + 37 - len(resume))


BAD_FRAMES = {
    "resume-wrong-geometry": (resume_of_the_wrong_geometry,
                              "RESUME for 8 packets, 293 offered"),
    "offer-packet-size-0": (lambda _ctrl: raw_offer(300_000, 0),
                            "is no object"),
    "offer-filesize-0": (lambda _ctrl: raw_offer(0, 1024), "is no object"),
    "garbage": (lambda _ctrl: np.random.default_rng(64).bytes(64),
                "unknown control-frame magic"),
}


def closed_by_peer(ctrl, within=5.0) -> bool:
    """Does the peer close ``ctrl`` (EOF or reset) within the time?"""
    ctrl.settimeout(within)
    try:
        while ctrl.recv(65536):
            pass
    except socket.timeout:
        return False
    except ConnectionError:
        pass
    return True


@pytest.mark.parametrize("bad", list(BAD_FRAMES))
class TestMalformedControlFrames:
    def test_daemon_survives_and_a_concurrent_fetch_completes(
            self, bad, objects, tmp_path):
        make_frames, why = BAD_FRAMES[bad]
        out = tmp_path / "b.bin"
        fetched = {}

        def fetch():
            fetched["b"] = fetch_file(
                "b.bin", "127.0.0.1", running.port, str(out), config=CONFIG,
                timeout=30, rate_cap_bps=int(4e6))  # ~0.4 s in flight

        with RunningServer(objects) as running:
            client = threading.Thread(target=fetch)
            client.start()
            for _ in range(100):
                if running.server.admission.active:
                    break
                threading.Event().wait(0.02)
            with socket.create_connection(("127.0.0.1", running.port),
                                          timeout=5) as ctrl:
                ctrl.sendall(make_frames(ctrl))
                assert closed_by_peer(ctrl)
            assert running._thread.is_alive()
            failed = [h for h in running.server.history if not h[3]]
            assert len(failed) == 1 and why in failed[0][4], failed
            assert running.server.stats().failed == 1
            client.join(timeout=40)
            assert running._thread.is_alive()
        assert fetched["b"].completed, fetched["b"].failure_reason
        assert fetched["b"].attempts == 1
        assert out.read_bytes() == (objects / "b.bin").read_bytes()
        assert running.snapshot.completed == 1

    def test_receive_file_listens_on_for_the_next_sender(self, bad, tmp_path):
        make_frames, why = BAD_FRAMES[bad]
        if bad == "resume-wrong-geometry":  # no offer to answer here
            make_frames = lambda _ctrl: wire.encode_resume(  # noqa: E731
                7, 0, 40002, np.zeros(8, dtype=bool))
            why = "RESUME for 8 packets, None offered"
        src = tmp_path / "src.bin"
        src.write_bytes(os.urandom(90_000))
        out = tmp_path / "out.bin"
        # The bad peer is a blocking socket, so the receiver keeps a
        # thread; its port listens before the thread starts.
        rx = receive_endpoint(str(out), 0, bind="127.0.0.1", timeout=30,
                              max_attempts=2)
        port = rx.socks[0].getsockname()[1]
        listener = threading.Thread(target=run_endpoints, args=([rx],),
                                    daemon=True)
        listener.start()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=5) as ctrl:
            ctrl.sendall(make_frames(ctrl))
            assert closed_by_peer(ctrl)
        assert listener.is_alive()
        sent = send_file(str(src), "127.0.0.1", port, config=CONFIG,
                         timeout=30)
        listener.join(timeout=30)
        assert not listener.is_alive()
        assert sent.completed
        assert rx.result.completed and rx.result.attempts == 2
        assert out.read_bytes() == src.read_bytes()


def test_receive_file_fails_the_attempt_of_a_peer_that_never_offers(
        tmp_path):
    """A peer connects and sends nothing: past the deadline that is one
    failed attempt, returned as ``completed=False`` like any other, not
    the offer read's ``TimeoutError`` out of ``receive_file``."""
    port = free_port()
    peers = []

    def connect_and_say_nothing():
        deadline = time.monotonic() + 5
        while not peers and time.monotonic() < deadline:
            try:
                peers.append(socket.create_connection(("127.0.0.1", port)))
            except ConnectionRefusedError:
                time.sleep(0.01)  # not listening yet

    silent = threading.Thread(target=connect_and_say_nothing, daemon=True)
    silent.start()
    try:
        result = receive_file(str(tmp_path / "out.bin"), port,
                              bind="127.0.0.1", max_attempts=3, timeout=1.0)
    finally:
        silent.join(timeout=10)
        for peer in peers:
            peer.close()
    assert not silent.is_alive()
    assert peers, "the silent peer never connected"
    assert not result.completed
    assert result.attempts == 1
    assert result.failure_reason.startswith("bad offer")
    assert not (tmp_path / "out.bin").exists()


class TestHandshakeBounds:
    """Every state before the transfer runs has a deadline and a size
    bound (at PR 19 only ``request`` and ``await_resume`` had the first,
    and a VERIFY header could declare 4 GiB for ``conn.buf`` to hold)."""

    def test_a_client_silent_after_its_offer_is_closed(self, objects):
        with RunningServer(objects, handshake_timeout=0.3) as running:
            with socket.create_connection(("127.0.0.1", running.port),
                                          timeout=5) as ctrl:
                # OFFER2|VERIFY, and then nothing: state await_verify.
                ctrl.sendall(raw_offer(5000, 1024, flags=7))
                assert closed_by_peer(ctrl, within=3.0)
            assert running._thread.is_alive()
            assert running.server.stats().active == 0

    def test_a_verify_header_declaring_a_gibibyte_is_refused_unbuffered(
            self, objects, monkeypatch):
        fed = []
        feed = wire.ControlDecoder.feed
        monkeypatch.setattr(
            wire.ControlDecoder, "feed",
            lambda self, data: (fed.append(len(data)), feed(self, data))[1])
        with RunningServer(objects) as running:
            with socket.create_connection(("127.0.0.1", running.port),
                                          timeout=5) as ctrl:
                ctrl.sendall(raw_offer(5000, 1024, flags=7)
                             + struct.pack("!II", 0xF0B5E51F, 1 << 30))
                # Refused on those 8 bytes: no body is waited for, and
                # whatever more the client pushes goes nowhere.
                assert closed_by_peer(ctrl)
                with pytest.raises(OSError):
                    for _ in range(64):
                        ctrl.sendall(bytes(1 << 20))
            failed = [h for h in running.server.history if not h[3]]
            assert len(failed) == 1
            assert "VERIFY of 1073741824 bytes" in failed[0][4]
        assert sum(fed) < 64 * 1024


class TestFairness:
    """The loop serves its sockets and its senders in turns."""

    def test_a_budgeted_drain_stops_and_the_next_call_continues(self):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as rx, \
                socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as tx:
            rx.bind(("127.0.0.1", 0))
            rx.setblocking(False)
            for i in range(10):
                tx.sendto(bytes([i]) * (i + 1), rx.getsockname())
            seen, rxbuf = [], bytearray(65535)

            def handle(views, _now):
                seen.extend(bytes(view) for view in views)

            drain(rx, handle, 0.0, rxbuf, 4)
            assert seen == [bytes([i]) * (i + 1) for i in range(4)]
            drain(rx, handle, 0.0, rxbuf, 4)
            assert seen == [bytes([i]) * (i + 1) for i in range(8)]
            drain(rx, handle, 0.0, rxbuf, 4)     # two left, then EAGAIN
            drain(rx, handle, 0.0, rxbuf)        # unbounded: nothing more
            assert seen == [bytes([i]) * (i + 1) for i in range(10)]

    @pytest.mark.skipif(not udp_offload(), reason="needs UDP_SEGMENT/GRO: "
                        "without trains one process cannot flood itself")
    def test_a_push_flood_does_not_hold_a_fetch_back(self, tmp_path):
        """One 4 MB push blasting the shared socket beside one 4 MB
        fetch: the fetch's client holds a quarter of its packets before
        the push completes.  (A drain "until the kernel has no more"
        never returned while the push ran, the pump was not reached and
        the fetch got its first packet after the push's last.)"""
        config = FobsConfig(packet_size=1024, ack_frequency=64,
                            batch_size=SEND_BATCH, checksum=True)
        root = tmp_path / "root"
        root.mkdir()
        rng = np.random.default_rng(9)
        nbytes = 4 << 20
        (root / "obj.bin").write_bytes(
            rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())
        src = tmp_path / "push.bin"
        src.write_bytes(rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes())
        results = {}

        def fetch():
            results["fetch"] = fetch_file(
                "obj.bin", "127.0.0.1", running.port,
                str(tmp_path / "got.bin"), config=config, timeout=60)

        def push():
            results["push"] = send_file(
                str(src), "127.0.0.1", running.port, config=config,
                timeout=60, resume=True)

        quarter_at = push_done_at = None
        with RunningServer(root, config=config) as running:
            threads = [threading.Thread(target=fetch),
                       threading.Thread(target=push)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            while (any(t.is_alive() for t in threads)
                   and time.monotonic() < deadline):
                now = time.monotonic()
                if push_done_at is None and any(
                        h[1] == "recv" for h in running.server.history):
                    push_done_at = now
                if quarter_at is None and any(
                        t.direction == "send"
                        and t.packets_done >= t.npackets // 4
                        for t in running.server.stats().transfers):
                    quarter_at = now
                time.sleep(0.0005)
            for thread in threads:
                thread.join(timeout=5)
        assert results["fetch"].completed and results["push"].completed
        assert (tmp_path / "got.bin").read_bytes() == (
            root / "obj.bin").read_bytes()
        assert quarter_at is not None
        assert push_done_at is None or quarter_at < push_done_at
