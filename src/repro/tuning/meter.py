"""Glue between a live transfer and the sans-io controller.

:class:`EpochMeter` turns monotonically growing counters into
per-epoch :class:`~repro.tuning.controller.EpochSignals` deltas.
:class:`TransferTuner` owns one meter + one controller per sender,
applies decisions through backend-supplied callbacks, publishes the
``tune_epoch`` / ``tune_decision`` telemetry events that make every
decision replayable, and keeps the live waste/stall/knob gauges up to
date (satellite: these were previously only derivable post-hoc).

All three backends share this class and build theirs with
:func:`make_tuner`, which derives the apply callbacks from the
endpoints a side owns; they differ only in where they call
:meth:`on_ack` / :meth:`maybe_probe` from.  The hot-path contract
matches the rest of the codebase: backends guard every call site with
``if tuner is not None`` so the untuned path pays one attribute load.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.core.rate import FixedBatchPolicy
from repro.telemetry.bus import NULL_CHANNEL
from repro.telemetry.events import EV_TUNE_DECISION, EV_TUNE_EPOCH
from repro.tuning.controller import Decision, EpochSignals, TuningConfig, TuningController

__all__ = ["EpochMeter", "TransferTuner", "make_tuner"]

#: Drop an RTT probe that has not been answered in this long — its
#: sample would measure a retransmit round, not the path.
PROBE_TIMEOUT = 2.0


class EpochMeter:
    """Snapshot counters, emit deltas once per ``interval`` seconds."""

    __slots__ = ("interval", "_t", "_acked", "_sent", "_retrans", "_stalls")

    def __init__(self, interval: float):
        self.interval = interval
        self._t: Optional[float] = None
        self._acked = 0
        self._sent = 0
        self._retrans = 0
        self._stalls = 0

    def poll(
        self,
        now: float,
        *,
        acked: int,
        sent: int,
        retrans: int,
        stalls: int = 0,
        rtt: Optional[float] = None,
        ceiling: Optional[float] = None,
    ) -> Optional[EpochSignals]:
        """Return one epoch of deltas, or None until the epoch elapses."""
        if self._t is None:
            self._t = now
            self._acked, self._sent, self._retrans, self._stalls = acked, sent, retrans, stalls
            return None
        duration = now - self._t
        if duration < self.interval:
            return None
        signals = EpochSignals(
            duration=duration,
            acked_delta=acked - self._acked,
            sent_delta=sent - self._sent,
            retrans_delta=retrans - self._retrans,
            stall_events=stalls - self._stalls,
            rtt_sample=rtt,
            rate_ceiling_bps=ceiling,
        )
        self._t = now
        self._acked, self._sent, self._retrans, self._stalls = acked, sent, retrans, stalls
        return signals


class TransferTuner:
    """Per-transfer tuning driver shared by DES, loopback and daemon."""

    __slots__ = (
        "controller",
        "meter",
        "telemetry",
        "_set_rate",
        "_set_ack_frequency",
        "_set_batch_size",
        "_ceiling",
        "_probe_seq",
        "_probe_t",
        "_rtt",
        "_g_rate",
        "_g_f",
        "_g_b",
        "_g_waste",
        "_g_stalls",
        "last_decision",
        "last_waste",
        "last_stalls",
    )

    def __init__(
        self,
        config: TuningConfig,
        *,
        set_rate: Callable[[float], None],
        set_ack_frequency: Optional[Callable[[int], None]] = None,
        set_batch_size: Optional[Callable[[int], None]] = None,
        telemetry=NULL_CHANNEL,
        metrics=None,
        rate_bps: Optional[float] = None,
        ack_frequency: int = 32,
        batch_size: int = 8,
        label: str = "",
    ):
        self.controller = TuningController(
            config,
            rate_bps=rate_bps,
            ack_frequency=ack_frequency,
            batch_size=batch_size,
        )
        self.meter = EpochMeter(config.epoch_interval)
        self.telemetry = telemetry
        self._set_rate = set_rate
        self._set_ack_frequency = set_ack_frequency
        self._set_batch_size = set_batch_size
        self._ceiling: Optional[float] = None
        self._probe_seq: Optional[int] = None
        self._probe_t = 0.0
        self._rtt: Optional[float] = None
        self.last_decision: Optional[Decision] = None
        self.last_waste = 0.0
        self.last_stalls = 0
        if metrics is not None:
            labels = {"transfer": label} if label else {}
            self._g_rate = metrics.gauge("tune_rate_bps", **labels)
            self._g_f = metrics.gauge("tune_ack_frequency", **labels)
            self._g_b = metrics.gauge("tune_batch_size", **labels)
            self._g_waste = metrics.gauge("waste_ratio", **labels)
            self._g_stalls = metrics.gauge("stall_events", **labels)
        else:
            self._g_rate = self._g_f = self._g_b = None
            self._g_waste = self._g_stalls = None
        if telemetry.enabled:
            # The init decision carries the full config + starting
            # knobs so a replay can rebuild the controller from the
            # JSONL stream alone (see repro.tuning.replay).
            c = config
            telemetry.emit(
                EV_TUNE_DECISION,
                action="init",
                mode=c.mode,
                interval=c.epoch_interval,
                min_rate=c.min_rate_bps,
                max_rate=c.max_rate_bps,
                min_f=c.min_ack_frequency,
                max_f=c.max_ack_frequency,
                min_b=c.min_batch,
                max_b=c.max_batch,
                rate_step=c.rate_step,
                backoff=c.backoff,
                loss_high=c.loss_high,
                loss_low=c.loss_low,
                hysteresis=c.hysteresis,
                hp=c.hold_patience,
                sc=c.streak_cap,
                vegas_alpha=c.vegas_alpha,
                vegas_beta=c.vegas_beta,
                fi=c.feedback_interval,
                psize=c.packet_size,
                rate=self.controller.rate_bps,
                f=self.controller.ack_frequency,
                b=self.controller.batch_size,
            )

    # ------------------------------------------------------------------
    @property
    def rate_bps(self) -> Optional[float]:
        return self.controller.rate_bps

    @property
    def ack_frequency(self) -> int:
        return self.controller.ack_frequency

    @property
    def batch_size(self) -> int:
        return self.controller.batch_size

    def set_ceiling(self, bps: Optional[float]) -> None:
        """Allocator share update.  Caps the applied rate immediately;
        the controller sees the ceiling in its next epoch's signals."""
        self._ceiling = bps
        rate = self.controller.rate_bps
        if bps is not None and rate is not None and rate > bps:
            self.controller.rate_bps = self.controller._clamp_rate(rate, bps)
            self._set_rate(self.controller.rate_bps)

    # ------------------------------------------------------------------
    def maybe_probe(self, seq: int, now: float) -> None:
        """Arm one outstanding RTT probe on a just-sent packet."""
        if self._probe_seq is None:
            self._probe_seq = seq
            self._probe_t = now

    def check_probe(self, acked_array, now: float) -> None:
        seq = self._probe_seq
        if seq is None:
            return
        if acked_array[seq]:
            self._rtt = now - self._probe_t
            self._probe_seq = None
        elif now - self._probe_t > PROBE_TIMEOUT:
            self._probe_seq = None

    # ------------------------------------------------------------------
    def on_ack(self, sender, now: float) -> Optional[Decision]:
        """Sender-side poll: call after ``sender.on_ack``."""
        self.check_probe(sender.acked.array, now)
        stats = sender.stats
        return self.poll(
            now,
            acked=sender.acked.count,
            sent=stats.packets_sent,
            retrans=stats.retransmissions,
            stalls=stats.stall_events,
        )

    def poll(
        self, now: float, *, acked: int, sent: int, retrans: int, stalls: int = 0
    ) -> Optional[Decision]:
        """Generic poll from raw counters (receiver-side uses this)."""
        signals = self.meter.poll(
            now,
            acked=acked,
            sent=sent,
            retrans=retrans,
            stalls=stalls,
            rtt=self._rtt,
            ceiling=self._ceiling,
        )
        if signals is None:
            return None
        self._rtt = None
        decision = self.controller.on_epoch(signals)
        self._apply(decision)
        self._publish(signals, decision)
        return decision

    # ------------------------------------------------------------------
    def _apply(self, decision: Decision) -> None:
        if decision.rate_bps is not None:
            self._set_rate(decision.rate_bps)
        if self._set_ack_frequency is not None:
            self._set_ack_frequency(decision.ack_frequency)
        if self._set_batch_size is not None:
            self._set_batch_size(decision.batch_size)

    def _publish(self, signals: EpochSignals, decision: Decision) -> None:
        self.last_decision = decision
        self.last_waste = signals.waste
        self.last_stalls += signals.stall_events
        if self._g_rate is not None:
            self._g_rate.set(decision.rate_bps or 0.0)
            self._g_f.set(decision.ack_frequency)
            self._g_b.set(decision.batch_size)
            self._g_waste.set(signals.waste)
            self._g_stalls.set(self.last_stalls)
        t = self.telemetry
        if t.enabled:
            t.emit(
                EV_TUNE_EPOCH,
                n=decision.n,
                # dur/rtt/ceiling are emitted unrounded: replay rebuilds
                # EpochSignals from this event and must be bit-exact.
                dur=signals.duration,
                acked=signals.acked_delta,
                sent=signals.sent_delta,
                retrans=signals.retrans_delta,
                stalls=signals.stall_events,
                rtt=signals.rtt_sample,
                ceiling=signals.rate_ceiling_bps,
                waste=round(signals.waste, 6),
                rate=decision.rate_bps,
                f=decision.ack_frequency,
                b=decision.batch_size,
                action=decision.action,
            )
            if decision.changed:
                t.emit(
                    EV_TUNE_DECISION,
                    n=decision.n,
                    action=decision.action,
                    rate=decision.rate_bps,
                    f=decision.ack_frequency,
                    b=decision.batch_size,
                )


def make_tuner(
    config: TuningConfig,
    *,
    sender=None,
    receiver=None,
    telemetry=None,
    transfer_id: int = 0,
    label: str = "",
    clock=time.monotonic,
) -> TransferTuner:
    """Wire a tuner to the endpoints this side of a transfer owns.

    A :class:`~repro.core.sender.FobsSender` contributes the pacing
    rate and, under the fixed batch policy, the batch size; a
    :class:`~repro.core.receiver.FobsReceiver` contributes the ACK
    frequency F.  A receiver-only tuner still runs the controller —
    its rate tracks measured delivery goodput, which drives the F
    time-cap.  ``telemetry`` is an event bus (or None); decisions are
    published on a ``src="tuner"`` channel of the endpoint's epoch,
    stamped by ``clock`` (the DES binds it to ``sim.now``).
    """
    endpoint = sender if sender is not None else receiver
    channel = NULL_CHANNEL
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(transfer_id=transfer_id,
                                    epoch=endpoint.epoch, src="tuner",
                                    clock=clock)
    set_rate = set_batch = set_f = rate = None
    if sender is not None:
        set_rate, rate = sender.set_pacing_rate, sender.pacing_rate_bps
        policy = sender.batch_policy
        if isinstance(policy, FixedBatchPolicy):
            def set_batch(b: int) -> None:
                policy.batch_size = b
    if receiver is not None:
        def set_f(f: int) -> None:
            receiver.ack_frequency = f
    return TransferTuner(
        config,
        set_rate=set_rate if set_rate is not None else lambda r: None,
        set_ack_frequency=set_f,
        set_batch_size=set_batch,
        telemetry=channel,
        rate_bps=rate,
        ack_frequency=endpoint.config.ack_frequency,
        batch_size=endpoint.config.batch_size,
        label=label,
    )
