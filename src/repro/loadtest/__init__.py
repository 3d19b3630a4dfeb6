"""repro.loadtest — population-scale fleet scenarios and SLO reports.

The server package turned the paper's point-to-point engine into a
service; this package asks whether the *service* holds up: hundreds to
thousands of simulated clients, drawn from heterogeneous populations
(short-haul, long-haul, satellite, lossy last-mile), arriving by
pluggable stochastic processes (Poisson, diurnal sinusoid, flash-crowd
step), against the DES server backend with its real admission
controller and max-min allocator — including overload past admission
capacity and a mid-run daemon kill that triggers a resume storm.

Everything is derived from one seed and the DES clock, so a scenario's
JSON SLO report is byte-identical across runs: the scenario-diversity
engine for every scaling claim this repo makes.

Layers:

* :mod:`repro.loadtest.arrivals` — seeded arrival-time generators;
* :mod:`repro.loadtest.population` — client classes and population
  sampling (access link shape, loss, object-size distributions);
* :mod:`repro.loadtest.fleet` — the star topology builder and
  :class:`FleetServer`, a :class:`~repro.server.sim.SimObjectServer`
  that survives a daemon kill/restart and services the resume storm;
* :mod:`repro.loadtest.scenarios` — the named scenario vocabulary
  (``steady``, ``overload``, ``flash-crowd``, ``resume-storm``,
  ``smoke``) and :func:`run_scenario`;
* :mod:`repro.loadtest.slo` — the SLO report computed from recorded
  :mod:`repro.telemetry` events (queue-wait p50/p99, per-class
  goodput, Jain fairness, reject/requeue rates, recovery time).

CLI: ``repro loadtest <scenario> --seed N`` prints the JSON report on
stdout.  ``docs/LOADTEST.md`` documents the scenario vocabulary.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".arrivals": [
        "ArrivalProcess", "DiurnalProcess", "FlashCrowdProcess",
        "PoissonProcess", "generate_arrivals", "sample_arrival_times"],
    ".fleet": ["FleetServer", "build_fleet_network"],
    ".population": [
        "CLIENT_CLASSES", "DEFAULT_POPULATION", "ClientClass", "ClientSpec",
        "Population"],
    ".scenarios": [
        "SCENARIOS", "ScenarioResult", "ScenarioSpec", "run_scenario"],
    ".slo": ["compute_slo_report", "render_slo_report"],
})
