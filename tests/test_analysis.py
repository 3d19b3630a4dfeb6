"""Tests for metrics, report rendering and experiment runners."""

import pytest

from repro.analysis.metrics import mean, percent_of_bandwidth, stddev, wasted_resources
from repro.analysis.report import render_series, render_table
from repro.analysis import experiments


class TestMetrics:
    def test_percent_of_bandwidth(self):
        assert percent_of_bandwidth(50e6, 100e6) == 50.0

    def test_percent_validation(self):
        with pytest.raises(ValueError):
            percent_of_bandwidth(1.0, 0.0)
        with pytest.raises(ValueError):
            percent_of_bandwidth(-1.0, 1.0)

    def test_wasted_resources_matches_paper_definition(self):
        # "total sent minus required, divided by required"
        assert wasted_resources(103, 100) == pytest.approx(0.03)

    def test_wasted_validation(self):
        with pytest.raises(ValueError):
            wasted_resources(99, 100)
        with pytest.raises(ValueError):
            wasted_resources(1, 0)

    def test_mean_and_stddev(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert stddev([2.0, 4.0]) == pytest.approx(1.4142, rel=1e-3)
        assert stddev([5.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])
        with pytest.raises(ValueError):
            stddev([])


class TestReport:
    def test_table_alignment(self):
        out = render_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].index("|") == lines[2].index("|")

    def test_table_title(self):
        out = render_table(("x",), [(1,)], title="T")
        assert out.startswith("T\n")

    def test_series_bars_scale(self):
        out = render_series("S", "f", "pct", [(1, 50.0), (2, 100.0)], width=10,
                            ymax=100.0)
        lines = out.splitlines()
        assert lines[-1].count("#") == 10
        assert lines[-2].count("#") == 5

    def test_series_empty(self):
        assert "no data" in render_series("S", "x", "y", [])


class TestExperimentRunners:
    """Tiny-size smoke runs of every registered experiment."""

    def test_figure1_structure(self):
        res = experiments.figure1(nbytes=300_000, frequencies=(8, 64))
        assert res.name == "Figure 1"
        assert len(res.rows) == 2
        assert len(res.series) == 2
        assert "90%" in res.notes
        assert "%%" not in res.render()

    def test_figure2_structure(self):
        res = experiments.figure2(nbytes=300_000, frequencies=(8, 64))
        assert len(res.rows) == 2
        assert "waste" in res.headers[1]

    def test_figure3_structure(self):
        res = experiments.figure3(nbytes=300_000, packet_sizes=(1024, 8192))
        assert [row[0] for row in res.rows] == ["1K", "8K"]
        assert "%%" not in res.render()

    def test_table1_structure(self):
        res = experiments.table1(nbytes=2_000_000, seeds=(0,))
        assert len(res.rows) == 3
        assert res.rows[0][2] == "86%"  # paper reference column
        assert "%%" not in res.render()

    def test_table2_structure(self):
        res = experiments.table2(nbytes=2_000_000, probe_bytes=500_000,
                                 candidates=(1, 4))
        assert len(res.rows) == 3
        assert "PSockets" in res.headers[1]

    def test_ablation_batch(self):
        res = experiments.ablation_batch_size(nbytes=300_000, batch_sizes=(1, 2))
        assert len(res.rows) == 3  # 2 fixed + adaptive

    def test_sweep_rejects_unknown_haul(self):
        with pytest.raises(ValueError):
            experiments.ack_frequency_sweep("medium")

    def test_render_includes_table_and_series(self):
        res = experiments.figure1(nbytes=300_000, frequencies=(64,))
        out = res.render()
        assert "Figure 1" in out
        assert "#" in out  # series bars

    def test_registry_complete(self):
        assert set(experiments.EXPERIMENTS) == {
            "figure1", "figure2", "figure3", "table1", "table2",
            "ablation_batch", "ablation_selection", "ablation_congestion",
            "ablation_autotune", "satellite", "fairness",
        }


class TestCli:
    def test_list(self, capsys):
        from repro.server.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "table2" in out

    def test_run_small_experiment(self, capsys):
        from repro.server.cli import main
        assert main(["run", "figure1", "--nbytes", "200000", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_run_rejects_unknown(self):
        from repro.server.cli import main
        with pytest.raises(SystemExit):
            main(["run", "bogus"])


    def test_run_with_csv_export(self, capsys, tmp_path):
        from repro.server.cli import main
        out_csv = tmp_path / "rows.csv"
        assert main(["run", "figure3", "--nbytes", "200000", "--quick",
                     "--csv", str(out_csv)]) == 0
        content = out_csv.read_text().splitlines()
        assert content[0].startswith("packet size")
        assert len(content) >= 3
