"""Real-socket daemon tests: concurrent fetches, queueing, push, drain."""

import functools
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

import _support
from _support import after, free_port, raw_offer
from repro.core.config import FobsConfig
from repro.runtime import transfer, wire
from repro.runtime.files import (
    receive_endpoint,
    receive_file,
    receive_offer,
    send_endpoint,
    send_file,
)
from repro.runtime.driver import ObjectFile
from repro.runtime.transfer import SEND_BATCH, drain, run_endpoints, udp_offload
from repro.server import ObjectServer, fetch_endpoint, fetch_file
from repro.server.registry import RECEIVING

pytestmark = pytest.mark.loopback

CONFIG = FobsConfig(ack_frequency=16)
RunningServer = functools.partial(_support.RunningServer, config=CONFIG)


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


def fetch_many(names, running, outdir):
    """Every fetch beside the daemon, in one loop."""
    return dict(zip(names, running.run(*[
        fetch_endpoint(name, "127.0.0.1", running.port, str(outdir / name),
                       config=CONFIG, timeout=30) for name in names])))


class TestConcurrentFetch:
    def test_two_simultaneous_fetches_byte_correct(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        running = RunningServer(objects)
        results = fetch_many(["a.bin", "b.bin"], running, out)
        for name, result in results.items():
            assert result.completed and result.crc_ok, result.failure_reason
            assert (out / name).read_bytes() == (objects / name).read_bytes()
        assert running.snapshot.completed == 2
        assert running.snapshot.failed == 0

    def test_queue_then_run_under_max_active_one(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        running = RunningServer(objects, max_active=1, queue_depth=4)
        results = fetch_many(["a.bin", "b.bin", "c.bin"], running, out)
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
        running = RunningServer(objects, config=None)
        assert running.server.config.batch_size == SEND_BATCH == 16
        (result,) = running.run(fetch_endpoint(
            "a.bin", "127.0.0.1", running.port, str(tmp_path / "a.bin"),
            timeout=30))
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
            running = RunningServer(objects)
            (result,) = running.run(fetch_endpoint(
                "b.bin", "127.0.0.1", running.port, str(tmp_path / "b.bin"),
                config=CONFIG, timeout=30))
            assert result.completed, result.failure_reason
            assert len(senders) == 1 and senders[0]() is None
        finally:
            gc.enable()

    @pytest.fixture
    def object_crcs(self, monkeypatch):
        """Lengths of the windows the daemon's object scans CRC, in call
        order (each window is folded into the CRC once, as it is read)."""
        lengths = []
        windows = ObjectFile._windows

        def spy(source, window):
            for data in windows(source, window):
                lengths.append(len(data))
                yield data

        monkeypatch.setattr(ObjectFile, "_windows", spy)
        return lengths

    def test_an_admitted_fetch_crcs_its_object_once(self, objects, tmp_path,
                                                    object_crcs):
        running = RunningServer(objects)
        (result,) = running.run(fetch_endpoint(
            "b.bin", "127.0.0.1", running.port, str(tmp_path / "b.bin"),
            config=CONFIG, timeout=30))
        assert result.completed and result.crc_ok, result.failure_reason
        # The transfer id and the OFFER share one pass.
        assert object_crcs == [200_000]

    def test_a_queued_fetch_offers_the_crc_of_the_bytes_it_sends(
            self, objects, tmp_path, object_crcs, monkeypatch):
        """The object changes while its fetch waits for a slot: the OFFER
        announces the CRC of the bytes read once admitted."""
        new = os.urandom(180_000)
        await_slot = ObjectServer._await_slot

        def rewrite_then_wait(server, *args, **kwargs):
            (objects / "b.bin").write_bytes(new)
            return (yield from await_slot(server, *args, **kwargs))

        monkeypatch.setattr(ObjectServer, "_await_slot", rewrite_then_wait)
        running = RunningServer(objects, max_active=1, queue_depth=4)
        slow = fetch_endpoint(
            "c.bin", "127.0.0.1", running.port, str(tmp_path / "c.bin"),
            config=CONFIG, timeout=30, rate_cap_bps=int(4e6))
        # No digest manifest: the client audits what it received against
        # the OFFER's CRC.
        late = fetch_endpoint(
            "b.bin", "127.0.0.1", running.port, str(tmp_path / "b.bin"),
            config=CONFIG, timeout=30, verify=False)
        running.run(slow, after(lambda: running.server.admission.active,
                                late))
        assert slow.result.completed and slow.result.crc_ok
        assert late.result.completed and late.result.crc_ok, \
            late.result.failure_reason
        assert (tmp_path / "b.bin").read_bytes() == new
        assert running.server.admission.counters.queued == 1
        # c.bin once; b.bin at its request, then its new bytes.
        assert object_crcs == [150_000, 200_000, 180_000]

    def test_not_found_rejected_cleanly(self, objects, tmp_path):
        running = RunningServer(objects)
        (result,) = running.run(fetch_endpoint(
            "missing.bin", "127.0.0.1", running.port, str(tmp_path / "m.bin"),
            config=CONFIG, timeout=10))
        assert not result.completed
        assert "no such object" in result.failure_reason
        assert not os.path.exists(tmp_path / "m.bin")

    def test_queue_overflow_rejected_with_reason(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        running = RunningServer(objects, max_active=1, queue_depth=0)
        # Occupy the only slot with a paced (slow) fetch...
        slow = fetch_endpoint(
            "a.bin", "127.0.0.1", running.port, str(out / "a.bin"),
            config=CONFIG, timeout=30, rate_cap_bps=int(2e6))
        # ...then a second request must be rejected "full".
        late = fetch_endpoint(
            "b.bin", "127.0.0.1", running.port, str(out / "b.bin"),
            config=CONFIG, timeout=10)
        _, rejected = running.run(
            slow, after(lambda: running.server.admission.active, late))
        assert slow.result.completed
        assert not rejected.completed
        assert "full" in rejected.failure_reason


class TestPushCompat:
    def test_a_default_push_lands_in_root(self, objects):
        """A push with default arguments (one attempt, a derived transfer
        id) is a session too: OFFER2, stamped datagrams."""
        blob = os.urandom(120_000)
        running = RunningServer(objects)
        (result,) = running.run(send_endpoint(
            blob, "127.0.0.1", running.port, config=CONFIG, timeout=30))
        assert result.completed
        pushed = [p for p in os.listdir(objects)
                  if p.startswith("push-") and p.endswith(".bin")]
        assert len(pushed) == 1
        assert (objects / pushed[0]).read_bytes() == blob

    def test_resumable_v2_push_shares_udp_socket(self, objects):
        blob = os.urandom(150_000)
        running = RunningServer(objects)
        (result,) = running.run(send_endpoint(
            blob, "127.0.0.1", running.port, config=CONFIG, timeout=30,
            max_attempts=2))
        assert result.completed and result.attempts == 1
        pushed = [p for p in os.listdir(objects)
                  if p.startswith("push-") and p.endswith(".bin")]
        assert (objects / pushed[0]).read_bytes() == blob
        # Wire bytes (headers included), so at least the payload size.
        assert running.snapshot.bytes_received >= len(blob)


class TestOneLoop:
    """The daemon is an endpoint: it and its clients share one loop."""

    def test_a_fetch_and_a_push_beside_the_daemon_on_one_thread(
            self, objects, tmp_path):
        threads = set(threading.enumerate())
        started = []  # threads that were not there before, mid-run
        running = RunningServer(objects)
        blob = os.urandom(100_000)
        fetched, pushed = running.run(
            after(lambda: started.append(
                      set(threading.enumerate()) - threads) or True,
                  fetch_endpoint("a.bin", "127.0.0.1", running.port,
                                 str(tmp_path / "a.bin"), config=CONFIG,
                                 timeout=30)),
            send_endpoint(blob, "127.0.0.1", running.port, config=CONFIG,
                          timeout=30))
        assert fetched.completed and pushed.completed
        assert started == [set()]
        assert set(threading.enumerate()) <= threads
        assert (tmp_path / "a.bin").read_bytes() == (
            objects / "a.bin").read_bytes()
        pushed_as = [p for p in os.listdir(objects) if p.startswith("push-")]
        assert (objects / pushed_as[0]).read_bytes() == blob
        assert running.snapshot.completed == 2

    def test_an_offer_outgrowing_the_socket_buffers_reaches_a_late_reader(
            self, tmp_path):
        """About 32 KB of OFFER+VERIFY (8 MB at 1 KiB packets) onto
        4 KiB socket buffers, to a client that reads 0.3 s late: the
        frames go out across turns and the verified fetch completes (a
        ``sendall`` on the non-blocking socket gave up at once and
        recorded ``client vanished before offer``)."""
        config = FobsConfig(packet_size=1024, ack_frequency=64,
                            batch_size=SEND_BATCH)
        root = tmp_path / "root"
        root.mkdir()
        blob = np.random.default_rng(5).integers(
            0, 256, 8 << 20, dtype=np.uint8).tobytes()
        (root / "big.bin").write_bytes(blob)
        running = RunningServer(root, config=config)
        # An accepted connection inherits the listener's buffer size.
        running.server._listener.setsockopt(socket.SOL_SOCKET,
                                            socket.SO_SNDBUF, 4096)
        ctrl = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        ctrl.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        ctrl.connect(("127.0.0.1", running.port))  # the backlog takes it
        ctrl.setblocking(False)
        out = tmp_path / "big.bin"
        late = transfer.Endpoint()

        def turns():
            deadline = time.monotonic() + 30
            with ctrl:
                yield from transfer.writing(late, ctrl, wire.encode_fetch(
                    wire.FetchRequest("big.bin", flags=(
                        wire.FETCH_FLAG_CHECKSUM | wire.FETCH_FLAG_RESUME
                        | wire.FETCH_FLAG_VERIFY), client_nonce=5)),
                    deadline)
                late.reads = late.writes = ()
                until = time.monotonic() + 0.3
                while time.monotonic() < until:
                    yield 0.01
                decoder = wire.ControlDecoder()
                offer = wire.expect((yield from transfer.reading(
                    late, ctrl, decoder, deadline)), wire.Offer)
                return (yield from receive_offer(
                    late, ctrl, decoder, ("127.0.0.1", running.port), offer,
                    str(out), deadline, config=config))

        late.turns = turns()
        (result,) = running.run(late)
        assert result.completed, result.failure_reason
        assert out.read_bytes() == blob
        assert running.server.history == [
            ("big.bin", "send", "127.0.0.1", True, None)]

    def test_a_fetch_one_ack_cannot_cover_is_refused_before_admission(
            self, tmp_path):
        """523,832 packets of one byte are the most one ACK's bitmap
        covers: one more and the FETCH is refused, its reason on record,
        before it takes a slot (at 64 MB in 64 B packets the fetch used
        to fail after its handshake, on the kernel's EMSGSIZE)."""
        root = tmp_path / "root"
        root.mkdir()
        (root / "fits.bin").write_bytes(bytes(523_832))
        (root / "too-big.bin").write_bytes(bytes(523_833))
        running = RunningServer(
            root, config=FobsConfig(packet_size=1, ack_frequency=64))

        def ask(name):
            """The server's first reply to a FETCH for ``name``."""
            end = transfer.Endpoint()

            def turns():
                deadline = time.monotonic() + 30
                ctrl = yield from transfer.connecting(
                    end, ("127.0.0.1", running.port), deadline)
                with ctrl:
                    yield from transfer.writing(end, ctrl, wire.encode_fetch(
                        wire.FetchRequest(name, client_nonce=3)), deadline)
                    try:
                        return (yield from transfer.reading(
                            end, ctrl, wire.ControlDecoder(), deadline))
                    except wire.ControlClosed as exc:
                        return exc

            end.turns = turns()
            return end

        fits, too_big = running.run(ask("fits.bin"), ask("too-big.bin"))
        assert isinstance(fits, wire.Offer) and fits.npackets == 523_832
        assert isinstance(too_big, wire.ControlClosed)
        assert ("too-big.bin", "send", "127.0.0.1", False,
                "an object of 523833 packets: one ACK's bitmap covers at "
                "most 523832") in running.server.history
        assert running.server.admission.counters.admitted == 1


class TestDrainAndStats:
    def test_drain_finishes_actives_rejects_newcomers(self, objects,
                                                      tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        running = RunningServer(objects)
        drained_at = []

        def active_then_drain():
            if running.server.admission.active and not drained_at:
                running.server.request_drain()
                drained_at.append(time.monotonic())
            return drained_at and time.monotonic() > drained_at[0] + 0.2

        active, late = running.run(
            fetch_endpoint("a.bin", "127.0.0.1", running.port,
                           str(out / "a.bin"), config=CONFIG, timeout=30,
                           rate_cap_bps=int(4e6)),
            after(active_then_drain, fetch_endpoint(
                "b.bin", "127.0.0.1", running.port, str(out / "b.bin"),
                config=CONFIG, timeout=10)))
        assert active.completed  # the active transfer finished
        assert not late.completed     # the late request was turned away
        assert running.snapshot.completed == 1

    def test_stats_snapshot_renders(self, objects, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        running = RunningServer(objects, rate_budget_bps=200e6)
        fetch_many(["a.bin"], running, out)
        snap = running.server.stats()
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
    "fetch-no-resume-flag": (
        lambda _ctrl: struct.pack("!IIIQIH", wire.FETCH_MAGIC,
                                  wire.FETCH_FLAG_CHECKSUM, 0, 3, 0, 5)
        + b"a.bin",
        "FETCH without FETCH_FLAG_RESUME refused"),
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

        # Where the fetch stands the moment the daemon finishes the
        # push, read on the daemon's own thread.
        quarter_at_push_done = []
        running = RunningServer(root, config=config)
        finish = running.server._finish

        def noting_finish(entry, ok, reason=None):
            if entry.kind == RECEIVING and not quarter_at_push_done:
                server = running.server
                quarter_at_push_done.append(
                    any(h[1] == "send" for h in server.history) or any(
                        t.direction == "send"
                        and t.packets_done >= t.npackets // 4
                        for t in server.stats().transfers))
            finish(entry, ok, reason)

        running.server._finish = noting_finish
        with running:
            threads = [threading.Thread(target=fetch),
                       threading.Thread(target=push)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert results["fetch"].completed and results["push"].completed
        assert (tmp_path / "got.bin").read_bytes() == (
            root / "obj.bin").read_bytes()
        assert quarter_at_push_done == [True]
