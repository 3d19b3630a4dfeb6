"""Start-up and stop: a command loads what it runs, and a drain asked
for ends an idle daemon's wait at once.

Package exports load on first use (``repro._lazy``), so the real-socket
commands never import the simulator, TCP, the dataset or the analysis
harness; the daemon's loop reads a socket pair that ``request_drain``
and ``stop`` write to, so neither waits out a poll timeout.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest

from _support import RunningServer
from repro.runtime import transfer
from repro.server.daemon import ObjectServer

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_after(code: str) -> list:
    """The ``repro`` modules, and ``numpy`` if it was imported, that a
    fresh interpreter holds after ``code``."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m in ("repro", "numpy")
                                or m.startswith("repro."))))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.guard
def test_the_real_socket_commands_load_no_simulator():
    """The daemon, the fetch client, the file session and the CLI's
    parser import none of the DES, TCP, PSockets, the dataset, the
    analysis harness, the fleet, tuning or chaos: of ``repro.simnet``
    at most the fault plans and the frame constants.  Nor NumPy."""
    loaded = loaded_after("""
        import repro.server.cli, repro.server.daemon, repro.server.client
        import repro.runtime.files
        repro.server.cli.build_parser()
    """)
    forbidden = ("repro.core.session", "repro.simnet._evloop", "repro.tcp",
                 "repro.psockets", "repro.analysis", "repro.dataset",
                 "repro.loadtest", "repro.tuning", "repro.chaos", "numpy")
    assert [m for m in loaded if m.startswith(forbidden)] == []
    assert {m for m in loaded if m.startswith("repro.simnet.")} <= {
        "repro.simnet.faults", "repro.simnet.packet"}


@pytest.mark.guard
def test_a_verified_fetch_and_a_resumable_push_run_without_numpy():
    """With ``import numpy`` made to fail, an in-process daemon serves a
    verified fetch and a resumable push to completion: the real-socket
    stack keeps its bitmap, ACKs and RESUMEs as bytes, and makes the
    random generators it never draws from only on demand."""
    script = textwrap.dedent("""
        import os, sys, tempfile
        sys.modules["numpy"] = None
        from repro.core.config import FobsConfig
        from repro.runtime.files import send_endpoint
        from repro.runtime.transfer import run_endpoints
        from repro.server import ObjectServer, fetch_endpoint

        root, out = tempfile.mkdtemp(), tempfile.mkdtemp()
        fetched, pushed = os.urandom(300_000), os.urandom(200_000)
        with open(os.path.join(root, "a.bin"), "wb") as fh:
            fh.write(fetched)
        config = FobsConfig(ack_frequency=16)
        server = ObjectServer(root, bind="127.0.0.1", config=config)
        daemon = server.endpoint()
        clients = [
            fetch_endpoint("a.bin", "127.0.0.1", server.port,
                           os.path.join(out, "a.bin"), config=config,
                           timeout=30, verify=True),
            send_endpoint(pushed, "127.0.0.1", server.port, config=config,
                          timeout=30, verify=True)]
        pending = len(clients)

        def then_drain(turns):
            global pending
            try:
                return (yield from turns)
            finally:
                pending -= 1
                if not pending:
                    server.request_drain()

        for end in clients:
            end.turns = then_drain(end.turns)
        run_endpoints([*clients, daemon])
        fetch, push = (end.result for end in clients)
        assert fetch.completed and push.completed, (fetch, push)
        with open(os.path.join(out, "a.bin"), "rb") as fh:
            assert fh.read() == fetched
        (name,) = [p for p in os.listdir(root) if p.startswith("push-")]
        with open(os.path.join(root, name), "rb") as fh:
            assert fh.read() == pushed
        assert server.stats().completed == 2
        print("ok")
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok"]


class TestLazyExports:
    def test_importing_the_package_loads_no_subpackage(self):
        assert loaded_after("import repro") == ["repro", "repro._lazy"]

    def test_a_name_loads_its_defining_module(self):
        loaded = loaded_after("""
            import repro
            assert repro.FobsConfig.__module__ == "repro.core.config"
            assert "FobsConfig" in vars(repro)  # cached after first use
        """)
        assert loaded == ["repro", "repro._lazy", "repro.core",
                          "repro.core.config"]

    def test_subpackages_and_modules_load_as_attributes(self):
        import repro

        assert repro.simnet.faults.KillSwitch is repro.simnet.KillSwitch
        from repro.core import session

        assert session.FobsTransfer is repro.FobsTransfer

    def test_an_unknown_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            repro.nope
        with pytest.raises(ImportError):
            from repro.core import nope  # noqa: F401
        assert not hasattr(repro.core, "__wrapped__")

    @pytest.mark.parametrize("package", [
        "repro", "repro.core", "repro.runtime", "repro.server",
        "repro.simnet", "repro.telemetry"])
    def test_dir_lists_every_export(self, package):
        mod = importlib.import_module(package)
        assert set(mod.__all__) <= set(dir(mod))


class TestDrainWakesTheLoop:
    @pytest.mark.parametrize("how", ["request_drain", "stop"])
    def test_an_idle_daemon_leaves_its_wait_at_once(self, tmp_path,
                                                    monkeypatch, how):
        """With every wait stretched to 30 s, only the wake-up can end
        the daemon's poll in time."""
        monkeypatch.setattr(transfer, "MAX_WAIT", 30.0)
        monkeypatch.setattr(ObjectServer, "_pump", lambda self, now: 30.0)
        running = RunningServer(tmp_path).start()
        time.sleep(0.2)  # in its poll by now
        t0 = time.monotonic()
        getattr(running.server, how)()
        running._thread.join(timeout=10)
        assert not running._thread.is_alive()
        assert time.monotonic() - t0 < 5.0

    def test_a_wake_after_the_loop_has_ended_is_harmless(self, tmp_path):
        server = ObjectServer(str(tmp_path), bind="127.0.0.1")
        server.request_drain()  # before the loop: the flag alone
        server.serve_forever()
        server.request_drain()
        server.stop()
