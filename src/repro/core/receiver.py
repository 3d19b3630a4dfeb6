"""The FOBS data-receiving state machine (sans-IO).

Section 3.2: the receiver polls the network, places each packet by
sequence number, and after every ``ack_frequency`` *newly* received
packets builds a bitmap acknowledgement.  Completion always triggers a
final acknowledgement (and the IO driver then fires the TCP completion
signal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.bitmap import PacketBitmap
from repro.core.config import FobsConfig
from repro.core.packets import AckPacket, CompletionSignal
from repro.telemetry import EV_BITMAP_DELTA, NULL_CHANNEL, TelemetryChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.journal import ReceiverJournal


@dataclass
class ReceiverStats:
    """Counters accumulated by one receiver."""

    packets_new: int = 0
    packets_duplicate: int = 0
    #: Data packets rejected by the checksum (fault injection).
    packets_corrupt: int = 0
    acks_built: int = 0
    #: Acknowledgements produced by the time-based refresh rule rather
    #: than the every-``ack_frequency``-new-packets rule.
    acks_refreshed: int = 0
    #: Packets recovered from a journal before this attempt started.
    resumed_packets: int = 0
    #: Datagrams dropped because they carried a stale attempt epoch.
    stale_epoch_data: int = 0
    completed_at: Optional[float] = None


class FobsReceiver:
    """Sans-IO FOBS receiver for one object transfer.

    ``resume_bitmap`` (a packed image, or a bool array) pre-marks
    packets recovered from a journal (a resumed attempt); ``journal``,
    when given, gets a ``record(seq)`` call for every *newly* received
    packet after the IO driver has made its bytes durable, and
    ``epoch`` stamps outgoing acknowledgements with the attempt
    number.
    """

    def __init__(
        self,
        config: FobsConfig,
        total_bytes: int,
        resume_bitmap=None,
        journal: Optional["ReceiverJournal"] = None,
        epoch: int = 0,
        telemetry: TelemetryChannel = NULL_CHANNEL,
    ):
        self.config = config
        #: Telemetry channel (disabled by default; IO drivers rebind it).
        self.telemetry = telemetry
        self.total_bytes = total_bytes
        self.npackets = config.npackets(total_bytes)
        self.bitmap = PacketBitmap(self.npackets)
        self.stats = ReceiverStats()
        self.journal = journal
        self.epoch = epoch
        if resume_bitmap is not None:
            self.stats.resumed_packets = self.bitmap.merge(resume_bitmap)
        #: Live copy of ``config.ack_frequency`` — the tuning
        #: controller reassigns it mid-transfer; ``on_data`` reads it.
        self.ack_frequency = config.ack_frequency
        self._new_since_ack = 0
        self._next_ack_id = 0
        #: Time of the most recent data arrival (any, including
        #: duplicates/corrupt) — the liveness signal.
        self.last_data_time: Optional[float] = None
        #: Time of the last acknowledgement build (refresh-rule clock).
        self._last_ack_time: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.bitmap.is_complete

    def on_corrupt_data(self, now: float) -> None:
        """A checksummed data packet failed verification; dropped.

        Still counts as liveness: bytes are arriving, merely damaged.
        """
        self.stats.packets_corrupt += 1
        self.last_data_time = now

    def on_stale_data(self, seq: int) -> None:
        """A datagram from a dead attempt epoch arrived; dropped.

        Deliberately does *not* refresh liveness: a zombie sender from
        a previous attempt must not make a dead current-epoch path look
        alive.
        """
        del seq
        self.stats.stale_epoch_data += 1

    def idle_since(self, now: float, start: float) -> float:
        """Seconds since data last arrived (or since ``start`` if never)."""
        last = self.last_data_time if self.last_data_time is not None else start
        return now - last

    def liveness_failure(self, now: float, start: float) -> Optional[str]:
        """The liveness-timeout diagnosis once data has been silent for
        ``receiver_idle_timeout`` (the sender went away), else None."""
        idle = self.idle_since(now, start)
        if idle < self.config.receiver_idle_timeout:
            return None
        return (f"receiver liveness timeout: no data for {idle:.3g}s "
                f"({self.bitmap.count}/{self.npackets} packets received)")

    # ------------------------------------------------------------------
    def on_data(self, seq: int, now: float) -> Optional[AckPacket]:
        """Incorporate packet ``seq``; maybe return an ACK to transmit.

        An ACK is produced when ``ack_frequency`` new packets have
        arrived since the last one, or when this packet completes the
        object (the final acknowledgement).  As stall hardening, any
        arrival — new *or* duplicate — more than ``ack_refresh_interval``
        after the previous acknowledgement also triggers one, so a
        sender probing its way out of a loss episode (or whose previous
        acknowledgement was lost) always gets a bitmap back.
        """
        self.last_data_time = now
        if self._last_ack_time is None:
            self._last_ack_time = now
        refresh_due = (
            now - self._last_ack_time >= self.config.ack_refresh_interval
        )
        if self.bitmap.mark(seq):
            self.stats.packets_new += 1
            self._new_since_ack += 1
            if self.journal is not None:
                self.journal.record(seq)
        else:
            self.stats.packets_duplicate += 1
            if refresh_due:
                self.stats.acks_refreshed += 1
                return self._stamped_ack(now)
            return None
        if self.complete:
            if self.stats.completed_at is None:
                self.stats.completed_at = now
            return self._stamped_ack(now)
        if self._new_since_ack >= self.ack_frequency:
            return self._stamped_ack(now)
        if refresh_due:
            self.stats.acks_refreshed += 1
            return self._stamped_ack(now)
        return None

    def on_train(self, seqs, now: float) -> list[AckPacket]:
        """Incorporate a train of packets that arrived together.

        :meth:`on_data` folded over ``seqs`` in one call — the same
        marks, counters, journal records and acknowledgements at the
        same packets (the F-th new one, the completing one, the refresh
        rule) — stopping at the packet that completes the object.  The
        unit is the run: consecutive new packets up to the next of
        those points are marked with one :meth:`PacketBitmap.mark_range`
        and counted once.  The real-socket drivers call this with every
        new packet's payload already in the store, so a payload is
        there before the journal claims it.
        """
        acks: list[AckPacket] = []
        if not seqs:
            return acks
        self.last_data_time = now
        if self._last_ack_time is None:
            self._last_ack_time = now
        refresh_due = (
            now - self._last_ack_time >= self.config.ack_refresh_interval
        )
        stats, journal, bitmap = self.stats, self.journal, self.bitmap
        flags, npackets = bitmap.flags, self.npackets
        frequency = self.ack_frequency
        missing = bitmap.missing
        i, n = 0, len(seqs)
        while i < n:
            seq = seqs[i]
            if not 0 <= seq < npackets:
                bitmap.mark(seq)  # raises what on_data raises
            if flags[seq]:
                stats.packets_duplicate += 1
                i += 1
                if not refresh_due:
                    continue
                stats.acks_refreshed += 1
            else:
                # The run ends at the next ACK point (a refresh is due
                # at its first packet), at the first packet that does
                # not follow on, or at one already marked.
                due = 1 if refresh_due else min(
                    frequency - self._new_since_ack, missing)
                stop = min(n, i + max(due, 1), i + npackets - seq)
                j = i + 1
                while j < stop and seqs[j] == seq + j - i:
                    j += 1
                hit = flags.find(1, seq, seq + j - i)
                end = seq + j - i if hit < 0 else hit
                if journal is not None:
                    for k in range(seq, end):
                        try:
                            journal.record(k)
                        except BaseException:
                            # on_data marks a packet before it journals
                            # it: the run up to the one whose record
                            # raised stays marked.
                            self._add_run(seq, k + 1 - seq)
                            raise
                count = end - seq
                self._add_run(seq, count)
                missing -= count
                i += count
                if not missing:
                    if stats.completed_at is None:
                        stats.completed_at = now
                    acks.append(self._stamped_ack(now))
                    break
                if self._new_since_ack < frequency:
                    if not refresh_due:
                        continue
                    stats.acks_refreshed += 1
            acks.append(self._stamped_ack(now))
            # That acknowledgement restarted the refresh clock at now.
            refresh_due = False
        return acks

    def _add_run(self, seq: int, count: int) -> None:
        self.bitmap.mark_range(seq, count)
        self.stats.packets_new += count
        self._new_since_ack += count

    def _stamped_ack(self, now: float) -> AckPacket:
        self._last_ack_time = now
        return self.build_ack()

    def build_ack(self) -> AckPacket:
        """Snapshot the bitmap into an acknowledgement packet."""
        ack = AckPacket(
            ack_id=self._next_ack_id,
            received_count=self.bitmap.count,
            bitmap=self.bitmap.snapshot(),
            npackets=self.npackets,
            epoch=self.epoch,
        )
        if self.telemetry.enabled:
            self.telemetry.emit(
                EV_BITMAP_DELTA, ack_id=self._next_ack_id,
                new=self._new_since_ack, received=int(self.bitmap.count),
                dup=self.stats.packets_duplicate)
        self._next_ack_id += 1
        self._new_since_ack = 0
        self.stats.acks_built += 1
        return ack

    def completion_signal(self) -> CompletionSignal:
        """The TCP-borne end-of-transfer message."""
        if not self.complete:
            raise RuntimeError("transfer not complete")
        return CompletionSignal(total_packets=self.npackets)
