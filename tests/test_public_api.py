"""Public-API stability tests: the names README/docs promise exist."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_quickstart_surface(self):
        import repro

        for name in ("FobsConfig", "run_fobs_transfer", "short_haul",
                     "long_haul", "gigabit_path", "contended_path",
                     "TcpOptions", "run_bulk_transfer",
                     "run_striped_transfer", "probe_optimal_sockets"):
            assert name in repro.__all__

    def test_observation_surface(self):
        """Tracer/Monitor are promoted to the top level (PR 3)."""
        import repro

        assert "Tracer" in repro.__all__
        assert "Monitor" in repro.__all__
        assert repro.Tracer is not None and repro.Monitor is not None

    def test_server_surface(self):
        import repro

        for name in ("ObjectServer", "serve_root", "fetch_file",
                     "run_sim_server", "SimTransferSpec"):
            assert name in repro.__all__
            assert getattr(repro, name, None) is not None, name

    def test_telemetry_surface(self):
        """Event bus + sinks + schema constants are top-level (PR 5)."""
        import repro

        for name in ("Event", "EventBus", "TelemetryChannel",
                     "RingBufferSink", "JsonlSink", "SnapshotSink",
                     "MetricsRegistry", "read_events",
                     "EVENT_KINDS", "EVENT_SCHEMA_VERSION"):
            assert name in repro.__all__
            assert getattr(repro, name, None) is not None, name

    def test_event_kind_constants(self):
        """Every EV_* schema constant is exported and enumerated."""
        import repro

        kinds = [n for n in repro.__all__ if n.startswith("EV_")]
        assert len(kinds) == len(repro.EVENT_KINDS)
        for name in kinds:
            value = getattr(repro, name)
            assert isinstance(value, str)
            assert value in repro.EVENT_KINDS, name

    def test_dataset_surface(self):
        """Dataset-transfer API is promoted to the top level (PR 7)."""
        import repro

        for name in ("DatasetManifest", "FileEntry", "DatasetJournal",
                     "DatasetSyncResult", "PackingConfig",
                     "SchedulerConfig", "TransferPlan", "scan_tree",
                     "plan_objects", "schedule", "sync_tree"):
            assert name in repro.__all__
            assert getattr(repro, name, None) is not None, name

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
        assert repro.__version__ == "2.0.0"


@pytest.mark.parametrize("module", [
    "repro.core", "repro.simnet", "repro.tcp", "repro.psockets",
    "repro.runtime", "repro.analysis", "repro.server", "repro.telemetry",
    "repro.dataset",
])
class TestSubpackages:
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__")
        for name in mod.__all__:
            assert getattr(mod, name, None) is not None, f"{module}.{name}"

    def test_module_docstring(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40


ROOT = pathlib.Path(__file__).resolve().parent.parent
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def doc_imports() -> list:
    """Every ``repro`` import statement of a fenced ``python`` block in
    README.md and docs/*.md, as ``(file:line, statement)``."""
    found = []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = doc.read_text()
        for block in FENCED_PYTHON.finditer(text):
            first = text.count("\n", 0, block.start(1))
            for node in ast.walk(ast.parse(block.group(1), str(doc))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "repro" for m in modules):
                    found.append((f"{doc.name}:{first + node.lineno}",
                                  ast.unparse(node)))
    return found


class TestDocExamples:
    def test_every_repro_import_in_the_docs_resolves(self):
        """A name an example imports and the package no longer has
        fails here, not in a reader's session."""
        imports = doc_imports()
        assert imports
        failed = []
        for where, statement in imports:
            try:
                exec(statement, {})
            except ImportError as exc:
                failed.append(f"{where}: {statement}: {exc}")
        assert failed == []


class TestConsoleScripts:
    def test_entry_points_registered(self):
        import tomllib

        with open("pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        assert meta["project"]["scripts"] == {"repro": "repro.server.cli:main"}

    def test_cli_mains_importable(self):
        from repro.server.cli import main

        assert callable(main)

    def test_import_and_list_need_no_undeclared_package(self):
        """``pyproject.toml`` declares numpy alone, so ``import repro``
        and ``repro list`` run where networkx cannot be imported."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = ("import sys; sys.modules['networkx'] = None; import repro; "
                "from repro.server.cli import main; sys.exit(main(['list']))")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert "figure1" in proc.stdout

    @pytest.mark.parametrize("script, argv, advertised", [
        ("repro.server.cli", [], ("stats", "timeline")),
        ("repro.server.cli", ["serve"],
         ("--telemetry-out", "--autotune", "--rate-mode")),
        ("repro.server.cli", ["fetch"],
         ("--telemetry-out", "--autotune", "--rate-mode",
          "--stats-interval")),
        ("repro.server.cli", ["send"], ("--telemetry-out",)),
    ], ids=["repro", "repro-serve", "repro-fetch", "repro-send"])
    def test_help_advertises_telemetry_and_autotune(self, script, argv,
                                                    advertised, capsys):
        """What operators' scripts rely on: the telemetry subcommands
        and the recording / autotune flags, where the docs say."""
        main = importlib.import_module(script).main
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        assert [name for name in advertised if name not in text] == []

    @pytest.mark.parametrize("argv, reason", [
        (["sweep", "fobs", "--path", "medium", "--param", "ack_frequency",
          "--values", "8"], "invalid choice: 'medium'"),
        (["sweep", "fobs", "--param", "bogus", "--values", "8"],
         "sweep FAILED: unknown parameter 'bogus'"),
        (["sweep", "fobs", "--param", "ack_frequency", "--values", "x"],
         "sweep FAILED: bad ack_frequency value 'x'"),
        (["run", "figure1", "--nbytes", "0"],
         "run FAILED: --nbytes must be positive"),
        (["loopback", "--packet-size", "0"], "loopback FAILED: packet_size"),
    ], ids=["path", "param", "values", "nbytes", "packet-size"])
    def test_a_bad_value_is_a_usage_error(self, argv, reason, capsys):
        """Exit 2 and one line naming the bad value, before any work
        starts; never an exception out of ``main``."""
        from repro.server.cli import main

        try:
            code = main(argv)
        except SystemExit as exited:  # argparse's own usage errors
            code = exited.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert reason in captured.err.splitlines()[-1]
