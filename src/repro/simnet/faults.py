"""Deterministic, seeded fault injection for the simulated network.

The calibrated topology presets model *benign* networks: Bernoulli
residual loss and light cross traffic.  Evaluating robustness — the
FT-LADS observation that object-based transfer systems need explicit
fault-tolerance machinery, and the Lossy-BSP point that protocols must
be judged under *structured* loss — needs adversarial conditions that
are still byte-reproducible from a seed.

This module provides them as **values**:

* :class:`FaultSchedule` — an immutable, declarative description of the
  faults to apply to a link: blackhole windows, periodic link flaps,
  Gilbert–Elliott burst loss, extra Bernoulli loss, duplication,
  corruption and adversarial reordering, optionally restricted to one
  transport protocol or destination-port set.  A schedule round-trips
  through :meth:`FaultSchedule.to_dict` / :meth:`FaultSchedule.from_dict`
  so tests, benchmarks and the CLI can all replay the same scenario.
* :class:`FaultInjector` — the per-link runtime: consumes frames at
  link ingress, draws every random decision from one named RNG stream,
  and keeps :class:`FaultStats` counters for diagnostics.
* :func:`install_faults` — attaches injectors to the links of a built
  :class:`~repro.simnet.topology.Network` without modifying the
  topology presets; links gained a ``faults`` hook for exactly this.

Determinism: an injector's RNG is ``net.rng.stream("fault:<label>:<link>")``,
so the same ``(seed, schedule, label)`` triple reproduces the identical
fault pattern — and therefore the identical packet trace — on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.simnet.packet import Frame, clone_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.topology import Network


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss model (good/bad channel states).

    State transitions are evaluated once per frame; ``loss_good`` and
    ``loss_bad`` are the per-frame drop probabilities within each state.
    The classic parameterization for correlated (bursty) loss, as
    opposed to the i.i.d. Bernoulli loss the presets use.
    """

    #: P(good -> bad) per frame.
    p_good_bad: float
    #: P(bad -> good) per frame.
    p_bad_good: float
    loss_good: float = 0.0
    loss_bad: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class LinkFlap:
    """Periodic link outage: down for ``down_time`` every ``period``.

    The link is dead during ``[start + k*period, start + k*period +
    down_time)`` for every integer ``k >= 0``.
    """

    period: float
    down_time: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")
        if not 0.0 < self.down_time < self.period:
            raise ValueError("down_time must be in (0, period)")
        if self.start < 0:
            raise ValueError("start must be non-negative")

    def down_at(self, now: float) -> bool:
        if now < self.start:
            return False
        return (now - self.start) % self.period < self.down_time


@dataclass(frozen=True)
class FaultSchedule:
    """Declarative, replayable description of one link's faults.

    All fields compose: a schedule may blackhole a window, add burst
    loss outside it and duplicate 1 % of survivors.  ``match_proto`` /
    ``match_ports`` narrow the faults to matching frames (everything
    else passes untouched) — ``match_proto="udp"`` on a reverse-path
    link is how an ACK-channel-only fault is expressed without touching
    the TCP control connection.
    """

    #: Absolute ``(start, end)`` sim-time windows in which every
    #: matching frame is dropped.
    blackholes: tuple[tuple[float, float], ...] = ()
    #: Periodic outage generator (composes with ``blackholes``).
    flap: Optional[LinkFlap] = None
    #: Correlated burst loss.
    burst: Optional[GilbertElliott] = None
    #: Extra i.i.d. loss on top of whatever the link already models.
    loss_rate: float = 0.0
    #: Probability a surviving frame is delivered twice.
    duplicate_rate: float = 0.0
    #: Probability a surviving frame is delivered with flipped payload
    #: bits (``Frame.corrupted``); checksumming receivers reject it.
    corrupt_rate: float = 0.0
    #: Probability a surviving frame is held back by an extra delay
    #: drawn uniformly from ``[0, reorder_delay]`` — adversarial
    #: reordering past later frames.
    reorder_rate: float = 0.0
    reorder_delay: float = 0.0
    #: Restrict faults to this transport ("udp"/"tcp"); None = all.
    match_proto: Optional[str] = None
    #: Restrict faults to these destination ports; empty = all.
    match_ports: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "corrupt_rate", "reorder_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        if self.reorder_delay < 0:
            raise ValueError("reorder_delay must be non-negative")
        if self.reorder_rate > 0 and self.reorder_delay == 0:
            raise ValueError("reorder_rate > 0 requires reorder_delay > 0")
        for window in self.blackholes:
            if len(window) != 2 or not window[0] < window[1]:
                raise ValueError(f"blackhole window must be (start, end), got {window!r}")
        if self.match_proto is not None and self.match_proto not in ("udp", "tcp"):
            raise ValueError("match_proto must be 'udp', 'tcp' or None")

    # ------------------------------------------------------------------
    def matches(self, frame: Frame) -> bool:
        """Does this schedule apply to ``frame`` at all?"""
        if self.match_proto is not None and frame.proto != self.match_proto:
            return False
        if self.match_ports and frame.dst.port not in self.match_ports:
            return False
        return True

    def blackholed_at(self, now: float) -> bool:
        """Is the link dead (for matching frames) at time ``now``?"""
        for start, end in self.blackholes:
            if start <= now < end:
                return True
        return self.flap is not None and self.flap.down_at(now)

    # ------------------------------------------------------------------
    # Value semantics: a scenario serializes to a plain dict so tests,
    # benchmarks and the CLI replay the identical fault pattern.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v == f.default:
                continue
            if f.name == "blackholes":
                v = [list(w) for w in v]
            elif f.name == "match_ports":
                v = list(v)
            elif f.name in ("flap", "burst") and v is not None:
                v = {k.name: getattr(v, k.name) for k in fields(v)}
            out[f.name] = v
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        kwargs = dict(data)
        if "blackholes" in kwargs:
            kwargs["blackholes"] = tuple(tuple(w) for w in kwargs["blackholes"])
        if "match_ports" in kwargs:
            kwargs["match_ports"] = tuple(kwargs["match_ports"])
        if kwargs.get("flap") is not None:
            kwargs["flap"] = LinkFlap(**kwargs["flap"])
        if kwargs.get("burst") is not None:
            kwargs["burst"] = GilbertElliott(**kwargs["burst"])
        return cls(**kwargs)


@dataclass
class KillSwitch:
    """Crash injection: kill one endpoint at a packet count mid-flight.

    A process-death fault, not a link fault: the transfer driver (the
    DES session layer; on real sockets the sender's ``FaultySend`` or,
    for a receiver, a part-file opener) consumes it, counting data
    packets processed by the targeted endpoint — packets *sent* for the
    sender, data packets *processed* (on real sockets, new packets
    stored) for the receiver — and simulates an abrupt process death
    when the count reaches ``after_packets``: sockets close, unflushed
    journal state is lost, no goodbye is sent.
    The surviving endpoint sees only silence and must diagnose it via
    the stall/liveness machinery; the retry supervisor then resumes
    from the journal.

    A switch fires at most once, so a retried transfer's later attempts
    run to completion unless given a fresh switch.  :meth:`seeded`
    derives the kill point deterministically from a seed, for
    reproducible "kill somewhere mid-flight" scenarios.
    """

    #: Which endpoint dies: "sender" or "receiver".
    target: str
    #: Packet count at which the crash fires.
    after_packets: int
    #: When the switch fired (None = not yet).
    fired_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.target not in ("sender", "receiver"):
            raise ValueError("target must be 'sender' or 'receiver'")
        if self.after_packets < 1:
            raise ValueError("after_packets must be >= 1")

    @classmethod
    def seeded(
        cls,
        target: str,
        npackets: int,
        seed: int,
        lo: float = 0.25,
        hi: float = 0.75,
    ) -> "KillSwitch":
        """Kill point drawn deterministically in ``[lo, hi]`` of the object."""
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError("need 0 <= lo <= hi <= 1")
        if npackets < 1:
            raise ValueError("npackets must be >= 1")
        rng = np.random.default_rng(seed)
        low = max(1, int(lo * npackets))
        high = max(low, int(hi * npackets))
        return cls(target=target,
                   after_packets=int(rng.integers(low, high + 1)))

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def should_fire(self, packets_processed: int) -> bool:
        """Has the targeted endpoint processed enough packets to die?"""
        return not self.fired and packets_processed >= self.after_packets

    def fire(self, now: float) -> None:
        self.fired_at = now


@dataclass
class FaultStats:
    """What one injector did to the frames it saw."""

    frames_seen: int = 0
    passed: int = 0
    dropped_blackhole: int = 0
    dropped_burst: int = 0
    dropped_random: int = 0
    duplicated: int = 0
    corrupted: int = 0
    reordered: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_blackhole + self.dropped_burst + self.dropped_random


class FaultInjector:
    """Runtime fault engine for one link, driven by one RNG stream.

    Attached to a link's ``faults`` list; the link calls
    :meth:`intercept` at ingress for every offered frame and admits
    whatever comes back (possibly nothing, possibly copies, possibly
    with an extra admission delay that reorders the frame past later
    traffic).
    """

    def __init__(self, schedule: FaultSchedule, rng: np.random.Generator):
        self.schedule = schedule
        self._rng = rng
        #: Gilbert–Elliott channel state (True = bad).
        self._bad_state = False
        self.stats = FaultStats()

    def intercept(self, frame: Frame, now: float) -> list[tuple[Frame, float]]:
        """Apply the schedule to ``frame``; returns ``(frame, delay)`` pairs.

        An empty list means the frame was dropped.  ``delay`` is extra
        time before the link admits the frame (reordering); 0 for the
        common path.
        """
        sched = self.schedule
        self.stats.frames_seen += 1
        if not sched.matches(frame):
            self.stats.passed += 1
            return [(frame, 0.0)]

        if sched.blackholed_at(now):
            self.stats.dropped_blackhole += 1
            return []

        if sched.burst is not None:
            ge = sched.burst
            rnd = self._rng.random()
            if self._bad_state:
                if rnd < ge.p_bad_good:
                    self._bad_state = False
            elif rnd < ge.p_good_bad:
                self._bad_state = True
            loss = ge.loss_bad if self._bad_state else ge.loss_good
            if loss and self._rng.random() < loss:
                self.stats.dropped_burst += 1
                return []

        if sched.loss_rate and self._rng.random() < sched.loss_rate:
            self.stats.dropped_random += 1
            return []

        emissions = [frame]
        if sched.duplicate_rate and self._rng.random() < sched.duplicate_rate:
            emissions.append(clone_frame(frame))
            self.stats.duplicated += 1

        out: list[tuple[Frame, float]] = []
        for f in emissions:
            if sched.corrupt_rate and self._rng.random() < sched.corrupt_rate:
                f.corrupted = True
                self.stats.corrupted += 1
            delay = 0.0
            if sched.reorder_rate and self._rng.random() < sched.reorder_rate:
                delay = self._rng.random() * sched.reorder_delay
                self.stats.reordered += 1
            out.append((f, delay))
        self.stats.passed += 1
        return out


# ----------------------------------------------------------------------
# Attachment helpers
# ----------------------------------------------------------------------

def chain_link_names(net: "Network", direction: str = "forward") -> list[str]:
    """Names of the links along the measurement chain A - ... - B.

    ``direction`` is "forward" (A→B: the FOBS data path), "reverse"
    (B→A: the acknowledgement/control path) or "both".
    """
    if direction not in ("forward", "reverse", "both"):
        raise ValueError("direction must be 'forward', 'reverse' or 'both'")
    chain = net.chain
    names: list[str] = []
    if direction in ("forward", "both"):
        names += [f"{chain[i].name}->{chain[i + 1].name}" for i in range(len(chain) - 1)]
    if direction in ("reverse", "both"):
        names += [f"{chain[i + 1].name}->{chain[i].name}" for i in range(len(chain) - 1)]
    return names


def install_faults(
    net: "Network",
    schedule: FaultSchedule,
    links: Optional[Iterable[str]] = None,
    direction: str = "forward",
    label: str = "fault",
) -> list[FaultInjector]:
    """Attach ``schedule`` to links of a built network; returns injectors.

    ``links`` selects link names explicitly; otherwise every chain link
    in ``direction`` gets an injector.  Each injector draws from its own
    named RNG stream (``fault:<label>:<link>``), so installation order
    does not perturb any other stochastic component and the fault
    pattern replays byte-identically for a given topology seed.

    Injectors stack: installing a second schedule on a link composes
    with (runs after) the first.
    """
    names = list(links) if links is not None else chain_link_names(net, direction)
    installed: list[FaultInjector] = []
    for name in names:
        try:
            link = net.links[name]
        except KeyError:
            raise KeyError(
                f"no link named {name!r}; known links: {sorted(net.links)}"
            ) from None
        injector = FaultInjector(schedule, net.rng.stream(f"fault:{label}:{name}"))
        link.faults.append(injector)
        installed.append(injector)
    return installed


def fault_stats_total(injectors: Iterable[FaultInjector]) -> FaultStats:
    """Sum the counters of several injectors into one :class:`FaultStats`."""
    total = FaultStats()
    for inj in injectors:
        for f in fields(FaultStats):
            setattr(total, f.name, getattr(total, f.name) + getattr(inj.stats, f.name))
    return total


# ----------------------------------------------------------------------
# Canned scenarios (used by tests and the adversarial benches)
# ----------------------------------------------------------------------

def blackhole_window(start: float, end: float) -> FaultSchedule:
    """Total outage of the link during ``[start, end)``."""
    return FaultSchedule(blackholes=((start, end),))


def ack_channel_blackhole(start: float = 0.0, end: float = 1e9) -> FaultSchedule:
    """Kill only UDP traffic (the acknowledgement channel) on a link.

    Install on reverse-direction links: FOBS ACKs die while the TCP
    control connection — and TCP cross traffic — keeps flowing.
    """
    return FaultSchedule(blackholes=((start, end),), match_proto="udp")


def burst_loss(
    mean_burst_frames: float = 20.0,
    mean_gap_frames: float = 2000.0,
    loss_in_burst: float = 1.0,
) -> FaultSchedule:
    """Gilbert–Elliott schedule from mean burst/gap lengths in frames."""
    if mean_burst_frames < 1 or mean_gap_frames < 1:
        raise ValueError("mean burst/gap lengths must be >= 1 frame")
    return FaultSchedule(
        burst=GilbertElliott(
            p_good_bad=1.0 / mean_gap_frames,
            p_bad_good=1.0 / mean_burst_frames,
            loss_bad=loss_in_burst,
        )
    )


__all__ = [
    "FaultSchedule",
    "FaultInjector",
    "FaultStats",
    "GilbertElliott",
    "KillSwitch",
    "LinkFlap",
    "install_faults",
    "chain_link_names",
    "fault_stats_total",
    "blackhole_window",
    "ack_channel_blackhole",
    "burst_loss",
]
