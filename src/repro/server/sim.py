"""DES backend of the multi-transfer server.

Runs N FOBS transfers through one simulated server host sharing one
bottleneck path, with the *same* admission controller and max-min
bandwidth allocator the real daemon uses.  Because the simulator is
deterministic, this is where the concurrency policies are tested:
admit/queue/reject sequencing, queue promotion on completion, and the
fairness of the bandwidth split (Jain's index over per-transfer
throughputs).

Each concurrent transfer gets its own port triple on the shared
:class:`~repro.simnet.topology.Network` (the DES analogue of the real
daemon's per-transfer session demux on one socket), and the allocator
re-feeds each sender's live ``pacing_rate_bps`` on every admission and
completion — mid-transfer, exactly as the daemon does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.tuning import TuningConfig

from repro.core.config import FobsConfig
from repro.core.session import FobsTransfer, TransferStats
from repro.server import admission as _adm
from repro.server.admission import AdmissionController, AdmissionCounters
from repro.server.allocator import BandwidthAllocator
from repro.simnet.topology import Network
from repro.telemetry import EV_ADMISSION, Event, EventBus

#: Per-transfer port triples start here, spaced by this stride, so N
#: concurrent sessions never collide on the shared simulated host.
PORT_BASE = 7101
PORT_STRIDE = 4


@dataclass(frozen=True)
class SimTransferSpec:
    """One client request in the simulated workload."""

    nbytes: int
    #: Simulation time at which the request arrives at the server.
    arrival: float = 0.0
    #: Client identity (for per-client admission caps).
    client: str = "client-0"
    #: Optional per-request rate cap (the FETCH message's rate field).
    rate_cap_bps: Optional[float] = None
    #: Destination host name on the shared network (``None`` = the
    #: topology's ``b`` endpoint).  The load-test fleet points each
    #: request at its client-class edge host.
    dst: Optional[str] = None
    #: Client-class label (``"satellite"``, ``"lossy_lastmile"``, ...)
    #: carried into admission telemetry for per-class SLO reporting.
    klass: str = ""


@dataclass(frozen=True)
class AdmissionEvent:
    """Timeline entry: one admission-control state change."""

    time: float
    index: int
    event: str  # "admitted" | "queued" | "rejected" | "finished"
    detail: str = ""


@dataclass
class SimServerResult:
    """Outcome of a :class:`SimObjectServer` run."""

    #: Per-spec transfer stats; ``None`` if the request never ran
    #: (rejected, or still queued when the clock expired).
    stats: list[Optional[TransferStats]]
    events: list[AdmissionEvent] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)
    #: Indices that spent time in the wait queue before running.
    queued_ever: list[int] = field(default_factory=list)
    counters: AdmissionCounters = field(default_factory=AdmissionCounters)
    peak_active: int = 0
    #: Admission wait per started request: seconds between arrival and
    #: the slot grant (0.0 for immediately admitted requests).
    wait_times: dict[int, float] = field(default_factory=dict)

    @property
    def completed(self) -> list[TransferStats]:
        return [s for s in self.stats if s is not None and s.ok]

    @property
    def all_ok(self) -> bool:
        """Every non-rejected request ran to byte-complete success."""
        ran = [s for i, s in enumerate(self.stats) if i not in self.rejected]
        return all(s is not None and s.ok for s in ran)

    def jain_fairness(self) -> float:
        """Jain's index over completed transfers' throughputs."""
        from repro.analysis.metrics import jain_index

        return jain_index([s.throughput_bps for s in self.completed])


class SimObjectServer:
    """N concurrent FOBS transfers through one admission-controlled host."""

    def __init__(
        self,
        net: Network,
        specs: list[SimTransferSpec],
        config: Optional[FobsConfig] = None,
        max_active: int = 4,
        queue_depth: int = 8,
        per_client_max: Optional[int] = None,
        rate_budget_bps: Optional[float] = None,
        check_interval: float = 0.005,
        telemetry: Optional[EventBus] = None,
        tuning: Optional["TuningConfig"] = None,
    ):
        if not specs:
            raise ValueError("specs must be non-empty")
        self.net = net
        self.sim = net.sim
        self.specs = list(specs)
        self.config = config if config is not None else FobsConfig()
        self.admission = AdmissionController(
            max_active=max_active,
            queue_depth=queue_depth,
            per_client_max=per_client_max,
        )
        self.allocator = BandwidthAllocator(rate_budget_bps)
        self.check_interval = check_interval
        self.telemetry = telemetry
        self.tuning = tuning
        self._active: dict[int, FobsTransfer] = {}
        self._result = SimServerResult(stats=[None] * len(self.specs))
        self._resolved = 0
        self._poll_scheduled = False
        self._arrived_at: dict[int, float] = {}

    # ------------------------------------------------------------------
    def _event(self, index: int, event: str, detail: str = "") -> None:
        self._result.events.append(
            AdmissionEvent(self.sim.now, index, event, detail))

    def _emit_admission(self, index: int, action: str, **fields) -> None:
        """Publish one EV_ADMISSION telemetry event (no-op when off)."""
        if self.telemetry is None or not self.telemetry.enabled:
            return
        spec = self.specs[index]
        payload: dict = {"action": action, "client": spec.client,
                         "name": index}
        if spec.klass:
            payload["klass"] = spec.klass
        payload.update(fields)
        self.telemetry.publish(Event(
            time=self.sim.now, kind=EV_ADMISSION, transfer_id=index + 1,
            src="server", fields=payload))

    def _config_for(self, index: int) -> FobsConfig:
        base = PORT_BASE + PORT_STRIDE * index
        return replace(self.config, data_port=base, ack_port=base + 1,
                       ctrl_port=base + 2)

    # -- fleet-harness hooks (see repro.loadtest.fleet) ----------------
    def _epoch_of(self, index: int) -> int:
        """Attempt epoch for the next build of ``index`` (0 = first)."""
        del index
        return 0

    def _resume_of(self, index: int):
        """Resume bitmap for the next build of ``index`` (None = fresh)."""
        del index
        return None

    def _build_transfer(self, index: int) -> FobsTransfer:
        """Construct the transfer for one admitted request."""
        spec = self.specs[index]
        dst = self.net.hosts[spec.dst] if spec.dst is not None else None
        return FobsTransfer(
            self.net, spec.nbytes, self._config_for(index),
            epoch=self._epoch_of(index),
            resume_bitmap=self._resume_of(index),
            telemetry=self.telemetry, transfer_id=index + 1, dst=dst,
            tuning=self.tuning)

    def _start(self, index: int) -> None:
        spec = self.specs[index]
        arrived = self._arrived_at.get(index, self.sim.now)
        self._result.wait_times[index] = self.sim.now - arrived
        transfer = self._build_transfer(index)
        self._active[index] = transfer
        transfer.start()
        # Tuned transfers take the max-min share as a ceiling for the
        # controller's search; untuned transfers pace at it directly.
        self.allocator.register(
            index, transfer.set_rate_ceiling,
            demand_bps=spec.rate_cap_bps)
        self._result.peak_active = max(self._result.peak_active,
                                       len(self._active))
        self._schedule_poll()

    def _arrive(self, index: int) -> None:
        spec = self.specs[index]
        self._arrived_at.setdefault(index, self.sim.now)
        decision = self.admission.request(index, client=spec.client)
        if decision.action == _adm.ADMIT:
            self._event(index, "admitted")
            self._emit_admission(index, "admit")
            self._start(index)
            self.allocator.reallocate()
        elif decision.action == _adm.QUEUE:
            self._event(index, "queued", f"position={decision.position}")
            self._emit_admission(index, "queue", position=decision.position)
            self._result.queued_ever.append(index)
        else:
            self._event(index, "rejected", decision.reason or "")
            self._emit_admission(index, "reject", reason=decision.reason)
            self._result.rejected.append(index)
            self._resolved += 1
            self._stop_if_all_done()

    def _finish(self, index: int) -> None:
        transfer = self._active.pop(index)
        stats = transfer.collect_stats()
        self._result.stats[index] = stats
        self._resolved += 1
        self._event(index, "finished", "ok" if stats.ok else "failed")
        if transfer.telemetry.enabled:
            transfer._emit_transfer_end(stats)
        self.allocator.unregister(index)
        for promoted in self.admission.release(index):
            self._event(promoted, "admitted", "from queue")
            self._emit_admission(promoted, "admit", from_queue=True)
            self._start(promoted)
        self.allocator.reallocate()

    def _poll(self) -> None:
        self._poll_scheduled = False
        finished = [i for i, t in self._active.items()
                    if t.sender.complete or t.failed]
        for index in finished:
            self._finish(index)
        self._stop_if_all_done()
        self._schedule_poll()

    def _schedule_poll(self) -> None:
        if self._active and not self._poll_scheduled:
            self._poll_scheduled = True
            self.sim.schedule(self.check_interval, self._poll)

    def _all_done(self) -> bool:
        return self._resolved >= len(self.specs)

    def _stop_if_all_done(self) -> None:
        """Called at the end of the two events that resolve requests
        (an arrival rejected, a poll that finishes transfers), so the
        run ends after the one that resolves the last."""
        if self._all_done():
            self.sim.stop()

    # ------------------------------------------------------------------
    def run(self, time_limit: float = 600.0) -> SimServerResult:
        for index, spec in enumerate(self.specs):
            self.sim.schedule(spec.arrival, self._arrive, index)
        # Each transfer requests a stop when it finishes, too: run on
        # until the server's own condition holds.
        while (self.sim.run(until=time_limit, stop_on_request=True)
               and not self._all_done()):
            pass
        # Anything still active (or queued) when the clock expired is a
        # timeout, reported per-transfer rather than silently dropped.
        for index, transfer in list(self._active.items()):
            transfer.timed_out = True
            stats = transfer.collect_stats()
            self._result.stats[index] = stats
            if transfer.telemetry.enabled:
                transfer._emit_transfer_end(stats)
        self._active.clear()
        self._result.counters = self.admission.counters
        return self._result


def run_sim_server(
    net: Network,
    specs: list[SimTransferSpec],
    config: Optional[FobsConfig] = None,
    max_active: int = 4,
    queue_depth: int = 8,
    per_client_max: Optional[int] = None,
    rate_budget_bps: Optional[float] = None,
    time_limit: float = 600.0,
    telemetry: Optional[EventBus] = None,
    tuning: Optional["TuningConfig"] = None,
) -> SimServerResult:
    """Convenience wrapper: build, run and summarize one server workload."""
    server = SimObjectServer(
        net, specs, config=config, max_active=max_active,
        queue_depth=queue_depth, per_client_max=per_client_max,
        rate_budget_bps=rate_budget_bps, telemetry=telemetry, tuning=tuning)
    return server.run(time_limit=time_limit)
