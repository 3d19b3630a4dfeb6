"""Public-API stability tests: the names README/docs promise exist."""

import importlib

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
                     "run_striped_transfer", "probe_optimal_sockets",
                     "run_rudp_transfer", "run_sabul_transfer"):
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
        assert repro.__version__ == "1.2.0"


@pytest.mark.parametrize("module", [
    "repro.core", "repro.simnet", "repro.tcp", "repro.psockets",
    "repro.rudp", "repro.sabul", "repro.runtime", "repro.analysis",
    "repro.server", "repro.telemetry", "repro.dataset",
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


class TestConsoleScripts:
    def test_entry_points_registered(self):
        import tomllib

        with open("pyproject.toml", "rb") as fh:
            meta = tomllib.load(fh)
        scripts = meta["project"]["scripts"]
        assert scripts["fobs-repro"] == "repro.analysis.cli:main"
        assert scripts["fobs-xfer"] == "repro.runtime.cli:main"
        assert scripts["repro"] == "repro.server.cli:main"

    def test_cli_mains_importable(self):
        from repro.analysis.cli import main as repro_main
        from repro.runtime.cli import main as xfer_main
        from repro.server.cli import main as server_main

        assert callable(repro_main) and callable(xfer_main)
        assert callable(server_main)

    @pytest.mark.parametrize("script, argv, advertised", [
        ("repro.server.cli", [], ("stats", "timeline")),
        ("repro.server.cli", ["serve"],
         ("--telemetry-out", "--autotune", "--rate-mode")),
        ("repro.server.cli", ["fetch"],
         ("--telemetry-out", "--autotune", "--rate-mode",
          "--stats-interval")),
        ("repro.runtime.cli", ["send"], ("--telemetry-out",)),
    ], ids=["repro", "repro-serve", "repro-fetch", "fobs-xfer-send"])
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
