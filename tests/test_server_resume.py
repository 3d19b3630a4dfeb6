"""Server crash + restart: journaled clients resume, no bitmap bleed.

The ISSUE's real-socket acceptance criterion: N clients fetch from one
server; the server is killed mid-flight (deterministic KillSwitch on
its shared send pump), then restarted on the same port; every client
completes byte-correct through the RESUME handshake, at least one of
them salvaging journaled packets instead of restarting at byte zero —
and no packet of one transfer ever lands in another's object.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.config import FobsConfig
from repro.runtime.supervisor import RetryPolicy
from repro.server import ObjectServer, fetch_file
from repro.simnet import KillSwitch
from repro.telemetry import EV_TRANSFER_END, EventBus

pytestmark = pytest.mark.loopback

CONFIG = FobsConfig(ack_frequency=16)


def start_server(root, port=0, kill=None):
    server = ObjectServer(str(root), port=port, bind="127.0.0.1",
                          config=CONFIG, max_active=4, kill=kill)
    ready = threading.Event()
    holder = {}

    def run():
        holder["snapshot"] = server.serve_forever(ready)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(5), "server failed to start"
    return server, thread, holder


class AttemptEnds:
    """Telemetry sink keeping why each client attempt ended."""

    def __init__(self):
        self.reasons = []

    def accept(self, event):
        if event.kind == EV_TRANSFER_END:
            self.reasons.append(event.fields["failure_reason"])


class TestKillAndRestart:
    def test_clients_resume_after_server_restart(self, tmp_path):
        began = time.monotonic()
        root = tmp_path / "objects"
        root.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(21)
        blobs = {}
        for name in ("x.bin", "y.bin"):
            blobs[name] = rng.integers(
                0, 256, size=400_000, dtype=np.uint8).tobytes()
            (root / name).write_bytes(blobs[name])

        # Die after 250 shared-pump DATA packets — mid-flight for both.
        kill = KillSwitch(target="sender", after_packets=250)
        server1, thread1, _ = start_server(root, kill=kill)
        port = server1.port

        results = {}
        ends = {name: AttemptEnds() for name in blobs}

        def fetch(name):
            results[name] = fetch_file(
                name, "127.0.0.1", port, str(out / name), config=CONFIG,
                timeout=30, telemetry=EventBus([ends[name]]),
                policy=RetryPolicy(max_attempts=8, backoff_base=0.3,
                                   seed=hash(name) & 0xFFFF))

        clients = [threading.Thread(target=fetch, args=(n,))
                   for n in blobs]
        for c in clients:
            c.start()

        # The kill fires from inside the send pump; the daemon must die
        # abruptly (journals lose unflushed state, sockets just close).
        thread1.join(timeout=30)
        assert not thread1.is_alive()
        assert kill.fired
        assert server1.crashed

        # Restart on the same TCP port while clients are backing off.
        server2, thread2, _ = start_server(root, port=port)
        for c in clients:
            c.join(timeout=60)
        server2.request_drain()
        thread2.join(timeout=30)

        for name, blob in blobs.items():
            result = results[name]
            assert result.completed, (name, result.failure_reason)
            assert result.attempts >= 2  # the crash cost everyone a retry
            assert ends[name].reasons[-1] == ""
            # No cross-transfer bitmap bleed: every byte is this
            # object's, in place, nothing from the other session.
            assert (out / name).read_bytes() == blob
        assert any(r.resumed_packets > 0 for r in results.values()), \
            "no client salvaged journaled packets on resume"
        # The kernel closed the dead daemon's control connections at
        # once and a client mid-transfer took that for what it was — not
        # ``receiver_idle_timeout`` (10 s here) of UDP silence later,
        # which made this test 30 s.  (The other client may have lost
        # its connection before any offer: no transfer, no end event.)
        reasons = [r for end in ends.values() for r in end.reasons]
        assert any(r.startswith("control connection lost") for r in reasons)
        assert not any("liveness" in r for r in reasons), reasons
        assert time.monotonic() - began < 10

    def test_fresh_fetch_unaffected_by_unrelated_journals(self, tmp_path):
        """A second, different fetch to the same output dir must not
        pick up the journal of a finished transfer."""
        root = tmp_path / "objects"
        root.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(22)
        first = rng.integers(0, 256, size=200_000, dtype=np.uint8).tobytes()
        second = rng.integers(0, 256, size=250_000, dtype=np.uint8).tobytes()
        (root / "one.bin").write_bytes(first)
        (root / "two.bin").write_bytes(second)

        server, thread, _ = start_server(root)
        try:
            r1 = fetch_file("one.bin", "127.0.0.1", server.port,
                            str(out / "o.bin"), config=CONFIG, timeout=30)
            r2 = fetch_file("two.bin", "127.0.0.1", server.port,
                            str(out / "o.bin"), config=CONFIG, timeout=30)
        finally:
            server.request_drain()
            thread.join(timeout=30)
        assert r1.completed and r2.completed
        assert r1.resumed_packets == 0 and r2.resumed_packets == 0
        assert (out / "o.bin").read_bytes() == second
