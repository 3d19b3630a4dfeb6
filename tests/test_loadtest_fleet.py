"""End-to-end tests for the load-test fleet harness.

Covers the population sampler, the star fleet topology, the scenario
runner (including the determinism contract and the resume storm), the
SLO computation from synthetic event streams, and the ``repro
loadtest`` CLI surface.  Scenario runs here use shrunken fleets — the
full-size scenarios live in ``benchmarks/test_loadtest.py``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.loadtest import (
    CLIENT_CLASSES,
    DEFAULT_POPULATION,
    Population,
    SCENARIOS,
    build_fleet_network,
    compute_slo_report,
    render_slo_report,
    run_scenario,
)
from repro.server.cli import main as repro_main
from repro.telemetry import (
    EV_ADMISSION,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    Event,
)


class TestPopulation:
    def test_sampling_is_seed_deterministic(self):
        a = DEFAULT_POPULATION.sample(50, np.random.default_rng(4))
        b = DEFAULT_POPULATION.sample(50, np.random.default_rng(4))
        assert [(c.klass.name, c.object_bytes) for c in a] == \
               [(c.klass.name, c.object_bytes) for c in b]

    def test_mix_weights_respected(self):
        pop = Population.of(short_haul=9.0, satellite=1.0)
        clients = pop.sample(2000, np.random.default_rng(0))
        share = sum(1 for c in clients
                    if c.klass.name == "short_haul") / len(clients)
        assert share == pytest.approx(0.9, abs=0.03)

    def test_object_sizes_clamped(self):
        klass = CLIENT_CLASSES["short_haul"]
        rng = np.random.default_rng(1)
        sizes = [klass.sample_object_bytes(rng) for _ in range(500)]
        assert all(klass.min_bytes <= s <= klass.max_bytes for s in sizes)


class TestFleetNetwork:
    def test_star_topology_and_round_robin(self):
        clients = DEFAULT_POPULATION.sample(24, np.random.default_rng(2))
        fleet = build_fleet_network(clients, seed=3, hosts_per_class=2)
        assert "server" in fleet.net.hosts
        for name in {c.klass.name for c in clients}:
            assert len(fleet.class_hosts[name]) == 2
        # Clients of one class spread round-robin over its edge hosts.
        sat = [c for c in clients if c.klass.name == "satellite"]
        if len(sat) >= 2:
            dsts = {fleet.dst_for(c) for c in sat}
            assert len(dsts) >= 2


class TestScenarios:
    def test_vocabulary_complete(self):
        assert {"smoke", "steady", "diurnal", "overload", "flash-crowd",
                "resume-storm"} <= set(SCENARIOS)
        for spec in SCENARIOS.values():
            assert spec.description

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("no-such-thing")

    def test_smoke_report_accounting(self):
        res = run_scenario("smoke", seed=1, clients=12)
        r = res.report
        assert r["offered"] == 12
        assert r["clients"] == 12
        adm = r["admission"]
        assert adm["admitted"] + adm["rejected"] == 12
        assert r["transfers"]["completed"] <= adm["admitted"]
        assert r["transfers"]["completed"] + r["transfers"]["failed"] \
            + r["transfers"]["timed_out"] == adm["admitted"]
        assert r["goodput"]["bytes_delivered"] > 0
        assert r["telemetry_truncated"] is False
        assert r["slo_schema"] == 1
        # Every class that completed work appears in the rollup.
        for stats in r["goodput"]["per_class"].values():
            assert stats["offered"] >= stats["completed"]

    def test_flash_crowd_byte_identical_reports(self):
        a = run_scenario("flash-crowd", seed=7, clients=40).render()
        b = run_scenario("flash-crowd", seed=7, clients=40).render()
        assert a == b
        json.loads(a)  # canonical rendering is valid JSON

    def test_failed_wins_over_completed_at_the_source(self):
        """Seed 104: one receiver holds 59/59 packets when its liveness
        timer fails the transfer (the sender never learned).  That
        transfer is failed, not also completed, in every view of it."""
        res = run_scenario("flash-crowd", seed=104,
                           clients=SCENARIOS["flash-crowd"].clients // 2)
        ran = [s for s in res.result.stats if s is not None]
        assert not any(s.completed and s.failed for s in ran)
        [lost] = [s for s in ran if s.failed]
        assert "59/59 packets received" in lost.failure_reason
        assert not lost.ok and lost.throughput_bps > 0
        ends = [e.fields for e in res.events if e.kind == EV_TRANSFER_END]
        assert sum(bool(f["completed"]) for f in ends) == len(ran) - 1
        assert res.report["transfers"]["completed"] == len(ran) - 1
        assert res.report["transfers"]["failed"] == 1

    def test_resume_storm_recovers(self):
        res = run_scenario("resume-storm", seed=2, clients=60)
        r = res.report
        storm = r["resume_storm"]
        assert storm is not None
        assert storm["killed_at"] == pytest.approx(10.0)
        assert storm["restarted_at"] == pytest.approx(12.0)
        assert storm["storm_size"] >= 1
        assert r["admission"]["requeues"] >= 1
        # Recovery: the storm resolved and every client finished.
        assert "recovered_at" in storm
        assert storm["recovery_s"] > 0.0
        assert r["transfers"]["completed"] == r["offered"]
        assert r["transfers"]["failed"] == 0


class TestSloFromSyntheticEvents:
    def _ev(self, time, kind, tid, **fields):
        return Event(time=time, kind=kind, transfer_id=tid, src="test",
                     fields=fields)

    def test_admission_and_wait_accounting(self):
        events = [
            self._ev(0.0, EV_ADMISSION, 1, action="admit", klass="a"),
            self._ev(0.0, EV_ADMISSION, 2, action="queue", klass="a"),
            self._ev(0.0, EV_ADMISSION, 3, action="reject", klass="b"),
            self._ev(2.0, EV_ADMISSION, 2, action="admit", klass="a"),
            self._ev(0.0, EV_TRANSFER_START, 1, nbytes=1000),
            self._ev(1.0, EV_TRANSFER_END, 1, completed=True, failed=False,
                     timed_out=False, duration=1.0, throughput_bps=8000.0,
                     wasted_fraction=0.0),
            self._ev(2.0, EV_TRANSFER_START, 2, nbytes=1000),
            self._ev(3.0, EV_TRANSFER_END, 2, completed=True, failed=False,
                     timed_out=False, duration=1.0, throughput_bps=8000.0,
                     wasted_fraction=0.0),
        ]
        r = compute_slo_report(events, scenario="synthetic", seed=0)
        assert r["offered"] == 3
        assert r["admission"]["admitted"] == 2
        assert r["admission"]["queued"] == 1
        assert r["admission"]["rejected"] == 1
        assert r["admission"]["reject_rate"] == pytest.approx(1 / 3)
        # Only transfer 2 waited (2 s); the histogram answer is within
        # one geometric bin of exact.
        assert r["queue_wait_s"]["share_queued"] == pytest.approx(1 / 3)
        assert r["queue_wait_s"]["p50"] == pytest.approx(2.0, rel=0.2)
        assert r["transfers"]["completed"] == 2
        assert r["goodput"]["bytes_delivered"] == 2000
        # Goodput is client-perceived: transfer 2's 2 s queue wait
        # counts, so jain([8000, 8000/3]) = 0.8 exactly.
        assert r["fairness"]["jain_transfers"] == pytest.approx(0.8)
        assert r["resume_storm"] is None

    def test_crashed_attempt_not_counted_completed(self):
        events = [
            self._ev(0.0, EV_TRANSFER_START, 1, nbytes=1000),
            # Bytes all landed but the handshake died: the source reports
            # that as failed, never as both (see TestScenarios).
            self._ev(1.0, EV_TRANSFER_END, 1, completed=False, failed=True,
                     timed_out=False, duration=1.0, throughput_bps=0.0),
        ]
        r = compute_slo_report(events)
        assert r["transfers"]["completed"] == 0
        assert r["transfers"]["failed"] == 1
        assert r["fairness"]["jain_transfers"] is None

    def test_empty_stream(self):
        r = compute_slo_report([])
        assert r["offered"] == 0
        assert r["admission"]["reject_rate"] == 0.0
        assert r["fairness"]["jain_transfers"] is None
        json.loads(render_slo_report(r))

    def test_render_rounds_and_sorts(self):
        r = compute_slo_report([], scenario="x", seed=1)
        text = render_slo_report(r)
        assert text == render_slo_report(json.loads(text))
        assert "1e-" not in text.split("seed")[0]  # rounded floats


class TestCli:
    def test_list_scenarios(self, capsys):
        assert repro_main(["loadtest", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_missing_scenario_is_usage_error(self, capsys):
        assert repro_main(["loadtest"]) == 2
        assert "scenario name required" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert repro_main(["loadtest", "bogus", "--quiet"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_smoke_emits_schema_valid_json(self, capsys):
        assert repro_main(["loadtest", "smoke", "--seed", "1",
                           "--clients", "8", "--quiet"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"] == "smoke"
        assert report["seed"] == 1
        assert report["offered"] == 8
        for key in ("admission", "queue_wait_s", "transfers", "goodput",
                    "fairness", "sim", "slo_schema"):
            assert key in report

    def test_telemetry_out_records_jsonl(self, tmp_path, capsys):
        log = tmp_path / "fleet.jsonl"
        assert repro_main(["loadtest", "smoke", "--seed", "1",
                           "--clients", "6", "--quiet",
                           "--telemetry-out", str(log)]) == 0
        capsys.readouterr()
        lines = log.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line).get("kind") for line in lines
                 if "kind" in json.loads(line)}
        assert "admission" in kinds
