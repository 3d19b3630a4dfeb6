"""The FOBS data-sending state machine (sans-IO).

Implements the three-phase loop of Section 3.1:

1. *batch-send* — :meth:`FobsSender.select_batch` picks the packets for
   one batch-send operation, sized by the batch policy
   (:meth:`FobsSender.next_batch` is the same, as packet objects);
2. *acknowledgement processing* — :meth:`FobsSender.on_ack` merges the
   receiver's bitmap, measures the receiver's progress since the
   previous ACK and feeds the batch/congestion policies;
3. *packet selection* — delegated to the configured scheduler (the
   paper's circular-buffer discipline by default).

The sender is greedy: it produces packets until every packet is
acknowledged or the completion signal arrives
(:meth:`FobsSender.on_completion`).  IO drivers own the sockets and
clocks; this class never blocks and never sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bitmap import PacketBitmap
from repro.core.config import FobsConfig
from repro.core.congestion import CongestionSignal, make_congestion_policy
from repro.core.packets import AckPacket, DataPacket
from repro.core.rate import make_batch_policy
from repro.core.scheduling import make_scheduler
from repro.telemetry import (
    EV_ACK_PROCESSED,
    EV_BATCH_SENT,
    EV_RESUME_EPOCH,
    EV_RETRANSMIT_ROUND,
    EV_STALL,
    NULL_CHANNEL,
    TelemetryChannel,
)


@dataclass
class SenderStats:
    """Counters accumulated by one sender."""

    packets_sent: int = 0
    first_transmissions: int = 0
    retransmissions: int = 0
    batches: int = 0
    acks_processed: int = 0
    stale_acks: int = 0
    #: Acknowledgements rejected by the checksum (fault injection).
    acks_corrupt: int = 0
    #: Times the stall detector fired (no ACK progress for the timeout).
    stall_events: int = 0
    #: Backoff re-blast probes issued while stalled.
    stall_probes: int = 0
    #: Stalls that ended with ACK progress resuming.
    stall_recoveries: int = 0
    #: Completions synthesized because every packet was acked but the
    #: TCP completion signal never arrived.
    completion_timeouts: int = 0
    #: Packets pre-acknowledged by a RESUME exchange — already delivered
    #: in a previous attempt, never retransmitted in this one.
    resumed_packets: int = 0
    #: Acknowledgements dropped for carrying a stale attempt epoch.
    stale_epoch_acks: int = 0
    completed_at: Optional[float] = None

    def wasted_fraction(self, packets_required: int) -> float:
        """The paper's waste metric: (sent - required) / required."""
        if packets_required <= 0:
            raise ValueError("packets_required must be positive")
        return (self.packets_sent - packets_required) / packets_required


class FobsSender:
    """Sans-IO FOBS sender for one object transfer.

    ``rng`` (a NumPy ``Generator``, or an int seed it is made from on
    demand) is drawn from only by the ``random`` ablation scheduler.
    """

    def __init__(
        self,
        config: FobsConfig,
        total_bytes: int,
        rng=None,
        epoch: int = 0,
        telemetry: TelemetryChannel = NULL_CHANNEL,
    ):
        self.config = config
        #: Telemetry channel (disabled by default; IO drivers rebind it
        #: to their bus/clock before the first batch).
        self.telemetry = telemetry
        #: Attempt epoch stamped on every outgoing data packet; stale
        #: epochs let a resumed receiver reject zombie datagrams.
        self.epoch = epoch
        #: Live pacing rate, bits/second of wire traffic (None = only
        #: NIC/CPU paced).  Seeded from the config; the multi-transfer
        #: server's allocator re-feeds it on every admission or
        #: completion, so a shared host's budget is divided max-min
        #: across active transfers without rebuilding the sender.
        self.pacing_rate_bps: Optional[float] = config.send_rate_bps
        self.total_bytes = total_bytes
        self.npackets = config.npackets(total_bytes)
        self._tail_payload = self.payload_bytes(self.npackets - 1)
        #: packets the receiver has acknowledged
        self.acked = PacketBitmap(self.npackets)
        self.scheduler = make_scheduler(config.scheduler, self.npackets, rng)
        self.batch_policy = make_batch_policy(
            config.batch_policy, config.batch_size, config.max_batch_size
        )
        self.congestion = make_congestion_policy(
            config.congestion_mode, config.congestion_threshold
        )
        self.complete = False
        self.failed = False
        self.failure_reason: Optional[str] = None
        self.stats = SenderStats()
        self._last_ack_id = -1
        self._last_ack_count = 0
        self._last_ack_time: Optional[float] = None
        self._sent_since_ack = 0
        # Stall detection state (see poll_stall).
        self._progress_time: Optional[float] = None
        self._stalled = False
        self._next_probe = 0.0
        self._probe_interval = 0.0
        # Retransmit-round telemetry: a "round" is a contiguous episode
        # of batches containing at least one retransmission.
        self._retransmit_rounds = 0
        self._in_retransmit_round = False

    # ------------------------------------------------------------------
    def payload_bytes(self, seq: int) -> int:
        """Payload size of packet ``seq`` (the final packet may be short)."""
        if seq == self.npackets - 1:
            tail = self.total_bytes - seq * self.config.packet_size
            return tail if tail > 0 else self.config.packet_size
        return self.config.packet_size

    def select_batch(
        self, size: Optional[int] = None
    ) -> tuple[list[int], list[int]]:
        """Select and account the next batch-send operation.

        Returns ``(seqs, transmissions)`` as the scheduler's
        ``take_batch`` does — the columns the real-socket codec packs
        straight into datagrams.  Both are empty when the transfer is
        complete *or* when every packet is locally acknowledged and the
        sender is merely waiting for the completion signal.  ``size``
        overrides the batch policy (used by stall probes, which must
        not inherit a collapsed batch size).
        """
        if self.complete:
            return [], []
        if size is None:
            size = self.batch_policy.next_batch_size()
        seqs, trans = self.scheduler.take_batch(self.acked, size)
        if not seqs:
            return seqs, trans
        nsent = len(seqs)
        nfirst = trans.count(0)
        st = self.stats
        st.packets_sent += nsent
        st.first_transmissions += nfirst
        retrans_in_batch = nsent - nfirst
        st.retransmissions += retrans_in_batch
        st.batches += 1
        self._sent_since_ack += nsent
        if retrans_in_batch:
            if not self._in_retransmit_round:
                self._in_retransmit_round = True
                self._retransmit_rounds += 1
                if self.telemetry.enabled:
                    self.telemetry.emit(
                        EV_RETRANSMIT_ROUND,
                        round=self._retransmit_rounds,
                        retrans_in_batch=retrans_in_batch,
                        total_retrans=st.retransmissions)
        else:
            self._in_retransmit_round = False
        if self.telemetry.enabled:
            self.telemetry.emit(
                EV_BATCH_SENT, size=nsent,
                sent=st.packets_sent,
                first=st.first_transmissions,
                retrans=st.retransmissions)
        return seqs, trans

    def next_batch(self, size: Optional[int] = None) -> list[DataPacket]:
        """:meth:`select_batch`, stamped into :class:`DataPacket`s —
        what the DES sends, whose frames carry the objects."""
        seqs, trans = self.select_batch(size)
        npackets, epoch = self.npackets, self.epoch
        psize, tail = self.config.packet_size, self._tail_payload
        final = npackets - 1
        stamp = DataPacket.unchecked
        return [stamp(seq, npackets, psize if seq != final else tail, t, epoch)
                for seq, t in zip(seqs, trans)]

    # ------------------------------------------------------------------
    def on_ack(self, ack: AckPacket, now: float) -> int:
        """Merge an acknowledgement; returns packets newly confirmed.

        Stale (reordered) ACKs still merge — the bitmap is cumulative,
        so out-of-order delivery can only add information — but they do
        not feed the progress estimators.  ``ack`` is for this object's
        ``npackets`` (the real-socket driver drops any other).
        """
        newly = self.acked.merge(ack.bitmap)
        self.stats.acks_processed += 1
        if newly > 0:
            self._progress_time = now
            if self._stalled:
                self._stalled = False
                self.stats.stall_recoveries += 1
                if self.telemetry.enabled:
                    self.telemetry.emit(EV_STALL, action="recovered",
                                        acked=int(self.acked.count))
        if self.telemetry.enabled:
            self.telemetry.emit(EV_ACK_PROCESSED, ack_id=ack.ack_id,
                                received=ack.received_count, newly=newly,
                                acked=int(self.acked.count))
        if ack.ack_id <= self._last_ack_id:
            self.stats.stale_acks += 1
            return newly
        delta = ack.received_count - self._last_ack_count
        interval = now - self._last_ack_time if self._last_ack_time is not None else 0.0
        self.batch_policy.on_ack_progress(max(0, delta), interval)
        self.congestion.observe(
            CongestionSignal(
                sent=self._sent_since_ack, delivered=max(0, delta), interval=interval
            )
        )
        self._last_ack_id = ack.ack_id
        self._last_ack_count = ack.received_count
        self._last_ack_time = now
        self._sent_since_ack = 0
        return newly

    def on_completion(self, now: float) -> None:
        """Completion signal arrived on the TCP control connection."""
        self.complete = True
        if self.stats.completed_at is None:
            self.stats.completed_at = now

    def on_corrupt_ack(self) -> None:
        """A checksummed acknowledgement failed verification; dropped."""
        self.stats.acks_corrupt += 1

    def on_stale_ack(self) -> None:
        """An acknowledgement from a dead attempt epoch; dropped.

        Never merged — a zombie receiver's bitmap could claim packets
        this attempt has not delivered — and never counted as progress.
        """
        self.stats.stale_epoch_acks += 1

    def set_pacing_rate(self, rate_bps: Optional[float]) -> None:
        """Adopt a new pacing allocation (None disables pacing).

        Called by the server's bandwidth allocator whenever the set of
        active transfers changes; takes effect from the next packet.
        """
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive when set")
        self.pacing_rate_bps = rate_bps

    def resume_from(self, bitmap) -> int:
        """Pre-acknowledge packets recovered by the RESUME exchange.

        Merges the receiver's journal-reconstructed bitmap (a packed
        image, or a bool array — see :meth:`PacketBitmap.merge`) into the
        local acknowledged set before the first batch, so already
        delivered packets are never retransmitted.  Returns how many
        packets were salvaged.  Must be called before sending begins.
        """
        if self.stats.packets_sent:
            raise RuntimeError("resume_from must precede the first batch")
        salvaged = self.acked.merge(bitmap)
        self.stats.resumed_packets = salvaged
        self._last_ack_count = self.acked.count
        if self.telemetry.enabled:
            self.telemetry.emit(EV_RESUME_EPOCH, salvaged=int(salvaged),
                                npackets=self.npackets)
        return salvaged

    # ------------------------------------------------------------------
    # Stall detection (timeout / backoff re-blast / clean failure)
    # ------------------------------------------------------------------
    @property
    def stalled(self) -> bool:
        """Is the sender currently in the stalled state?"""
        return self._stalled

    def poll_stall(self, now: float) -> Optional[str]:
        """Advance the stall state machine; tell the driver what to do.

        Call once per sender-loop iteration.  Returns:

        * ``None`` — not stalled; run the normal greedy loop.
        * ``"probe"`` — stalled and a backoff re-blast is due: let one
          batch through, then expect ``"wait"`` until the next probe.
        * ``"wait"`` — stalled, next probe not due; the driver should
          sleep :meth:`stall_wait_hint` seconds (draining in-flight
          state and polling ACKs is fine, assembling new batches is not).
        * ``"abort"`` — stalled past ``stall_abort_after``; the sender
          has marked itself :attr:`failed` and the driver must stop.

        Progress is defined as an acknowledgement confirming at least
        one new packet (:meth:`on_ack`).  When every packet is locally
        acked and only the TCP completion signal is missing, a stall
        *completes* the transfer instead of failing it — the data
        demonstrably arrived.
        """
        if self.complete or self.failed:
            return None
        cfg = self.config
        if self._progress_time is None:
            # The clock starts at the first loop iteration, not at
            # construction, so setup cost never counts as stall time.
            self._progress_time = now
            return None
        stalled_for = now - self._progress_time
        if stalled_for < cfg.stall_timeout:
            return None
        if self.all_acked:
            self.stats.completion_timeouts += 1
            self.on_completion(now)
            return None
        if not self._stalled:
            self._stalled = True
            self.stats.stall_events += 1
            self._probe_interval = cfg.stall_timeout
            self._next_probe = now
            if self.telemetry.enabled:
                self.telemetry.emit(EV_STALL, action="enter",
                                    stalled_for=stalled_for,
                                    acked=int(self.acked.count))
        if stalled_for >= cfg.stall_abort_after:
            self.failed = True
            self._stalled = False
            self.failure_reason = (
                f"stalled: no ACK progress for {stalled_for:.3g}s "
                f"({self.acked.count}/{self.npackets} packets acked, "
                f"{self.stats.stall_probes} probes)"
            )
            if self.telemetry.enabled:
                self.telemetry.emit(EV_STALL, action="abort",
                                    stalled_for=stalled_for,
                                    acked=int(self.acked.count))
            return "abort"
        if now >= self._next_probe:
            self._next_probe = now + self._probe_interval
            self._probe_interval *= cfg.stall_backoff
            self.stats.stall_probes += 1
            if self.telemetry.enabled:
                self.telemetry.emit(EV_STALL, action="probe",
                                    probe=self.stats.stall_probes,
                                    stalled_for=stalled_for)
            return "probe"
        return "wait"

    def stall_wait_hint(self, now: float) -> float:
        """Seconds until the next stall probe is due."""
        return max(self._next_probe - now, 1e-6)

    def select_probe(self) -> tuple[list[int], list[int]]:
        """The re-blast batch for one stall probe, as columns.

        At least ``ack_frequency`` unacked packets: the adaptive batch
        policy may have collapsed to a tiny batch during the stall, and
        a probe smaller than the acknowledgement frequency could never
        elicit a count-triggered ACK from the receiver.
        """
        return self.select_batch(size=self.config.ack_frequency)

    def probe_batch(self) -> list[DataPacket]:
        """:meth:`next_batch` of :meth:`select_probe`'s size."""
        return self.next_batch(size=self.config.ack_frequency)

    # ------------------------------------------------------------------
    @property
    def all_acked(self) -> bool:
        return self.acked.is_complete

    @property
    def wasted_fraction(self) -> float:
        """Waste so far, per the paper's definition."""
        return self.stats.wasted_fraction(self.npackets)
