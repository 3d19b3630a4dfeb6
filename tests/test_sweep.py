"""Tests for the generic parameter-sweep framework."""

import pytest

from repro.analysis.sweep import (
    FOBS_PARAMS,
    PATHS,
    TCP_PARAMS,
    parse_values,
    sweep_fobs,
    sweep_tcp,
)


class TestSweepFobs:
    def test_sweep_runs_each_value(self):
        res = sweep_fobs("short_haul", "ack_frequency", (8, 64),
                         nbytes=500_000)
        assert [p.value for p in res.points] == [8, 64]
        assert all(p.percent_of_bottleneck > 0 for p in res.points)

    def test_small_frequency_penalty_visible(self):
        res = sweep_fobs("short_haul", "ack_frequency", (1, 64),
                         nbytes=2_000_000)
        low, high = res.points
        assert high.percent_of_bottleneck > 2 * low.percent_of_bottleneck

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            sweep_fobs("mars_link", "ack_frequency", (1,))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_fobs("short_haul", "warp_factor", (1,))

    def test_render_contains_table_and_series(self):
        res = sweep_fobs("short_haul", "batch_size", (2,), nbytes=300_000)
        out = res.render()
        assert "batch_size" in out
        assert "#" in out


class TestSweepTcp:
    def test_window_scaling_sweep(self):
        res = sweep_tcp("long_haul", "window_scaling", (True, False),
                        nbytes=2_000_000)
        scaled, unscaled = res.points
        assert scaled.percent_of_bottleneck > unscaled.percent_of_bottleneck

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_tcp("long_haul", "ack_frequency", (1,))


class TestParseValues:
    def test_int_params(self):
        assert parse_values("fobs", "ack_frequency", "1, 8,64") == [1, 8, 64]

    def test_bool_params(self):
        assert parse_values("tcp", "window_scaling", "true,0,yes") == [
            True, False, True]

    def test_str_params(self):
        assert parse_values("fobs", "scheduler", "circular,random") == [
            "circular", "random"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_values("fobs", "bogus", "1")

    def test_registries_consistent(self):
        assert "ack_frequency" in FOBS_PARAMS
        assert "window_scaling" in TCP_PARAMS
        assert set(PATHS) == {"short_haul", "long_haul", "gigabit",
                              "contended", "satellite"}


class TestCliSweep:
    def test_cli_sweep_fobs(self, capsys):
        from repro.server.cli import main
        assert main(["sweep", "fobs", "--param", "ack_frequency",
                     "--values", "8,64", "--nbytes", "300000"]) == 0
        out = capsys.readouterr().out
        assert "ack_frequency" in out
