"""The fleet substrate: star topology + a kill/restart-capable server.

:func:`build_fleet_network` wires one server host through a shared
bottleneck (its access uplink) to a hub router, then hangs a small set
of *edge hosts per client class* off the hub — each with the class's
access bandwidth/delay and last-mile fault schedule.  Hundreds of
clients of one class share its edge hosts round-robin; their transfers
still contend for real queue space on the shared uplink and their
class's access links, which is what per-class goodput and fairness
numbers measure.

:class:`FleetServer` extends the DES server backend
(:class:`~repro.server.sim.SimObjectServer`) with the failure mode
FT-LADS motivates: a **daemon kill** at a scheduled time.  Active
transfers see their sender die (the existing crash-injection path) and
fail by receiver liveness timeout; queued and newly arriving clients
find the daemon down.  After ``restart_delay`` the daemon comes back
with a fresh admission controller, and every interrupted client
retries within a jittered window — the **resume storm** — with crashed
transfers resuming from their receiver bitmaps at a bumped epoch, via
the PR-2 RESUME machinery.  Recovery time (restart → last storm
member resolved) is surfaced through telemetry for the SLO report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.core.config import FobsConfig
from repro.server.admission import AdmissionController, AdmissionCounters
from repro.server.sim import PORT_BASE, PORT_STRIDE, SimObjectServer, SimTransferSpec
from repro.simnet.faults import install_faults
from repro.simnet.node import EndpointProfile
from repro.simnet.topology import MBPS, HopSpec, Network, PathSpec, build_path
from repro.telemetry import EV_SNAPSHOT, Event, EventBus

from repro.loadtest.population import ClientSpec

#: OC-12, the paper's gigabit-era uplink — the shared fleet bottleneck.
DEFAULT_SERVER_BW = 622 * MBPS

#: A service host, not a 2002 desktop: cheap per-packet send/recv so
#: the endpoint CPU model doesn't cap the daemon below its uplink.
SERVER_PROFILE = EndpointProfile(
    send_packet_cost=2e-6,
    send_byte_cost=1e-9,
    recv_packet_cost=2e-6,
    recv_byte_cost=1e-9,
    ack_build_cost=20e-6,
    ack_byte_cost=1e-9,
)

#: Client edge host: commodity receiver (ack build cost amortized by
#: the scenario ack frequency).
CLIENT_PROFILE = EndpointProfile(
    send_packet_cost=5e-6,
    send_byte_cost=0.0,
    recv_packet_cost=8e-6,
    recv_byte_cost=2e-9,
    ack_build_cost=100e-6,
    ack_byte_cost=8e-9,
)


@dataclass
class FleetNetwork:
    """A built fleet topology plus its class → edge-host mapping."""

    net: Network
    class_hosts: dict[str, list[str]]

    def dst_for(self, client: ClientSpec) -> str:
        hosts = self.class_hosts[client.klass.name]
        return hosts[client.index % len(hosts)]


def build_fleet_network(
    clients: Sequence[ClientSpec],
    seed: int = 0,
    server_bw_bps: float = DEFAULT_SERVER_BW,
    hosts_per_class: int = 4,
    server_queue_bytes: int = 1 << 20,
) -> FleetNetwork:
    """Server ─ hub ─ per-class edge hosts, faults installed per class.

    The chain is ``server — r1 — edge`` (``edge`` is an unused anchor
    endpoint); every client class present in ``clients`` contributes
    ``hosts_per_class`` edge hosts hanging off ``r1`` with the class's
    access shape, and its fault schedule is installed on the
    data-direction access links (``r1 -> host``).
    """
    if not clients:
        raise ValueError("clients must be non-empty")
    if hosts_per_class < 1:
        raise ValueError("hosts_per_class must be >= 1")
    spec = PathSpec(
        name="fleet",
        a_name="server",
        b_name="edge",
        hops=(
            HopSpec(server_bw_bps, 5e-4, queue_bytes=server_queue_bytes),
            HopSpec(None, 1e-4),
        ),
        a_profile=SERVER_PROFILE,
        b_profile=CLIENT_PROFILE,
        bottleneck_bps=server_bw_bps,
    )
    net = build_path(spec, seed=seed)
    classes = {c.klass.name: c.klass for c in clients}
    class_hosts: dict[str, list[str]] = {}
    for name in sorted(classes):
        klass = classes[name]
        hosts: list[str] = []
        for j in range(hosts_per_class):
            host = f"{name}-h{j}"
            net.attach_host(
                host, 1,
                bandwidth_bps=klass.access_bw_bps,
                delay=klass.access_delay,
                queue_bytes=klass.queue_bytes,
                profile=CLIENT_PROFILE,
            )
            if klass.faults is not None:
                install_faults(net, klass.faults,
                               links=[f"r1->{host}"],
                               label=f"lastmile:{host}")
            hosts.append(host)
        class_hosts[name] = hosts
    return FleetNetwork(net=net, class_hosts=class_hosts)


def fleet_transfer_specs(
    fleet: FleetNetwork,
    clients: Sequence[ClientSpec],
    arrivals: Sequence[float],
) -> list[SimTransferSpec]:
    """Zip sampled clients with arrival times into server specs."""
    if len(clients) != len(arrivals):
        raise ValueError("clients and arrivals must have equal length")
    return [
        SimTransferSpec(
            nbytes=c.object_bytes,
            arrival=float(t),
            client=c.name,
            rate_cap_bps=c.klass.rate_cap_bps,
            dst=fleet.dst_for(c),
            klass=c.klass.name,
        )
        for c, t in zip(clients, arrivals)
    ]


class FleetServer(SimObjectServer):
    """DES server that survives a mid-run daemon kill.

    ``kill_at`` (sim seconds) schedules the crash; ``restart_delay``
    later the daemon returns with a fresh admission controller.  Every
    interrupted request — crashed actives, dropped queue members,
    arrivals during the outage — retries within ``retry_window``
    seconds of the restart (jitter drawn from the topology's seeded RNG
    stream), crashed ones resuming at a bumped epoch from their
    receiver bitmap.
    """

    def __init__(
        self,
        net: Network,
        specs: list[SimTransferSpec],
        kill_at: Optional[float] = None,
        restart_delay: float = 2.0,
        retry_window: float = 0.5,
        **kwargs,
    ):
        super().__init__(net, specs, **kwargs)
        if kill_at is not None and kill_at <= 0:
            raise ValueError("kill_at must be positive when set")
        if restart_delay <= 0:
            raise ValueError("restart_delay must be positive")
        self.kill_at = kill_at
        self.restart_delay = restart_delay
        self.retry_window = retry_window
        self._down = False
        self._retry_rng = net.rng.stream("loadtest:retry")
        self._epochs: dict[int, int] = {}
        self._resume_bitmaps: dict[int, bytes] = {}
        self._attempts: dict[int, int] = {}
        self._retired_counters: list[AdmissionCounters] = []
        self._storm_pending: set[int] = set()
        self._recovered_emitted = False
        self.killed_at: Optional[float] = None
        self.restarted_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        self.storm_size = 0
        self.requeues = 0

    # -- hooks consumed by SimObjectServer -----------------------------
    def _epoch_of(self, index: int) -> int:
        return self._epochs.get(index, 0)

    def _resume_of(self, index: int):
        return self._resume_bitmaps.get(index)

    def _config_for(self, index: int) -> FobsConfig:
        # Each (index, epoch) pair gets a virgin port triple: the
        # crashed attempt's sockets stay bound on the client host, so a
        # resumed attempt must not collide with them.
        slot = index + len(self.specs) * self._epochs.get(index, 0)
        base = PORT_BASE + PORT_STRIDE * slot
        if base + PORT_STRIDE > 49152:
            raise ValueError("fleet too large for the fixed port region")
        return replace(self.config, data_port=base, ack_port=base + 1,
                       ctrl_port=base + 2)

    # -- daemon lifecycle ----------------------------------------------
    def _emit_daemon(self, state: str, **fields) -> None:
        if self.telemetry is None or not self.telemetry.enabled:
            return
        self.telemetry.publish(Event(
            time=self.sim.now, kind=EV_SNAPSHOT, src="server",
            fields={"daemon": state, **fields}))

    def _retry_at(self) -> float:
        restart = (self.killed_at or 0.0) + self.restart_delay
        jitter = float(self._retry_rng.random()) * self.retry_window
        return max(restart, self.sim.now) + jitter

    def _kill_daemon(self) -> None:
        if self._down or self.killed_at is not None:
            return
        self._down = True
        self.killed_at = self.sim.now
        self._event(-1, "daemon_killed")
        self._emit_daemon("down", active=len(self._active),
                          queued=len(self.admission.waiting))
        # No promotions out of a dead daemon's queue.
        self.admission.draining = True
        for index in list(self.admission.waiting):
            self.admission.cancel(index)
            self._schedule_retry(index, "queue dropped by crash")
        for transfer in list(self._active.values()):
            transfer._crash("sender")
        # Crashed actives are storm members from the moment of the
        # kill, even though their retry is only scheduled once the
        # client's liveness timeout diagnoses the dead sender.
        self._storm_pending.update(self._active.keys())
        self.sim.schedule(self.restart_delay, self._restart_daemon)

    def _restart_daemon(self) -> None:
        self._down = False
        self.restarted_at = self.sim.now
        self._retired_counters.append(self.admission.counters)
        self.admission = AdmissionController(
            max_active=self.admission.max_active,
            queue_depth=self.admission.queue_depth,
            per_client_max=self.admission.per_client_max,
        )
        self._event(-1, "daemon_restarted")
        self._emit_daemon("up", storm=len(self._storm_pending))
        self.storm_size = len(self._storm_pending)
        self._check_recovered()

    def _schedule_retry(self, index: int, why: str) -> None:
        self._storm_pending.add(index)
        self.requeues += 1
        self._event(index, "requeued", why)
        self._emit_admission(index, "requeue", why=why)
        self.sim.schedule_at(self._retry_at(), self._retry_arrive, index)

    def _retry_arrive(self, index: int) -> None:
        if self._down:  # restart still pending (shouldn't happen)
            self.sim.schedule(self.retry_window, self._retry_arrive, index)
            return
        self._attempts[index] = self._attempts.get(index, 1) + 1
        self._arrive(index)
        if self._result.rejected and self._result.rejected[-1] == index:
            # Rejected on retry: final — the client gives up.
            self._storm_resolved(index)

    def _storm_resolved(self, index: int) -> None:
        self._storm_pending.discard(index)
        self._check_recovered()

    def _check_recovered(self) -> None:
        if (self.restarted_at is not None and not self._storm_pending
                and not self._recovered_emitted):
            self._recovered_emitted = True
            self.recovered_at = self.sim.now
            self._event(-1, "daemon_recovered")
            self._emit_daemon(
                "recovered",
                recovery_s=self.sim.now - self.restarted_at)

    # -- SimObjectServer overrides -------------------------------------
    def _arrive(self, index: int) -> None:
        if self._down:
            # Connection refused: the client backs off and retries
            # shortly after the daemon returns.
            self._arrived_at.setdefault(index, self.sim.now)
            self._schedule_retry(index, "daemon down")
            return
        super()._arrive(index)

    def _finish(self, index: int) -> None:
        transfer = self._active.get(index)
        was_crashed = transfer is not None and transfer.crashed == "sender"
        bitmap = (transfer.receiver.bitmap.snapshot()
                  if was_crashed else None)
        super()._finish(index)
        stats = self._result.stats[index]
        if was_crashed and stats is not None and not stats.ok:
            # The interrupted client re-requests after the restart,
            # resuming from whatever its receiver already holds.
            self._resolved -= 1
            self._epochs[index] = self._epochs.get(index, 0) + 1
            self._resume_bitmaps[index] = bitmap
            self._schedule_retry(index, "resume after crash")
        else:
            self._storm_resolved(index)

    def run(self, time_limit: float = 600.0):
        if self.kill_at is not None:
            self.sim.schedule_at(self.kill_at, self._kill_daemon)
        result = super().run(time_limit=time_limit)
        # Admission counters span every daemon incarnation.
        total = AdmissionCounters()
        for c in (*self._retired_counters, result.counters):
            total.admitted += c.admitted
            total.queued += c.queued
            total.rejected_full += c.rejected_full
            total.rejected_draining += c.rejected_draining
            total.rejected_client_cap += c.rejected_client_cap
        result.counters = total
        return result


def run_fleet(
    fleet: FleetNetwork,
    clients: Sequence[ClientSpec],
    arrivals: Sequence[float],
    config: Optional[FobsConfig] = None,
    time_limit: float = 600.0,
    telemetry: Optional[EventBus] = None,
    **server_kwargs,
):
    """Build specs, run a :class:`FleetServer`, return (server, result)."""
    specs = fleet_transfer_specs(fleet, clients, arrivals)
    server = FleetServer(fleet.net, specs, config=config,
                         telemetry=telemetry, **server_kwargs)
    return server, server.run(time_limit=time_limit)
