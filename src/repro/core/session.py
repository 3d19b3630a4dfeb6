"""FOBS transfer driver over the simulated network.

Wires a :class:`~repro.core.sender.FobsSender` and
:class:`~repro.core.receiver.FobsReceiver` to UDP sockets on the two
endpoints of a :class:`~repro.simnet.topology.Network`, models the
application CPU costs from each host's
:class:`~repro.simnet.node.EndpointProfile`, and runs the transfer to
completion.

Faithful to the paper's structure:

* one UDP connection for data, one UDP connection for acknowledgements,
  one TCP connection for the completion signal (Section 3);
* the sender performs batch-sends, using a ``select()``-equivalent
  check for NIC buffer space before each packet, and polls (never
  blocks) for acknowledgements between batches (Section 3.1);
* the receiver is event-driven but charges per-packet and
  per-acknowledgement CPU time — while it is "busy creating and sending
  an acknowledgement" arriving datagrams can overflow the UDP socket
  buffer and be lost (Section 3.2's stated hazard);
* the sender stays greedy until the TCP completion signal lands.

The ``tcp_switch`` congestion mode (Section 7) hands the remaining
bytes to a TCP bulk transfer when the policy trips.
"""

from __future__ import annotations

import errno
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import FobsConfig
from repro.core.packets import (
    COMPLETION_BYTES,
    DATA_HEADER_BYTES,
    AckPacket,
    DataPacket,
    bitmap_wire_bytes,
)
from repro.core.receiver import FobsReceiver, ReceiverStats
from repro.core.sender import FobsSender, SenderStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.journal import ReceiverJournal
    from repro.simnet.faults import KillSwitch
    from repro.simnet.node import Host
    from repro.tuning import TuningConfig
from repro.simnet.engine import _NO_ARG
from repro.simnet.link import Link
from repro.simnet.packet import (
    UDP_HEADER_BYTES,
    Address,
    Frame,
    _frame_ids,
)
from repro.simnet.queues import DropTailQueue
from repro.simnet.sockets import UdpSocket
from repro.simnet.topology import Network
from repro.simnet.trace import Tracer
from repro.tcp.connection import TcpConnection, TcpListener
from repro.tcp.options import TcpOptions
from repro.telemetry import (
    EV_STORAGE_FAULT,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    NULL_CHANNEL,
    EventBus,
)


@dataclass
class TransferStats:
    """Outcome of one FOBS transfer — the paper's two metrics and more."""

    nbytes: int
    npackets: int
    duration: float
    throughput_bps: float
    percent_of_bottleneck: float
    completed: bool
    #: (packets sent - packets required) / packets required  (Figure 2)
    wasted_fraction: float
    packets_sent: int
    retransmissions: int
    duplicates_received: int
    receiver_socket_drops: int
    ack_socket_drops: int
    acks_sent: int
    acks_processed: int
    receiver_completed_at: Optional[float]
    sender_completed_at: Optional[float]
    switched_to_tcp: bool
    sender_stats: SenderStats
    receiver_stats: ReceiverStats
    #: The transfer was aborted by the protocol itself (sender stall
    #: abort or receiver liveness timeout); mutually exclusive with
    #: ``completed``.
    failed: bool = False
    #: Human-readable diagnosis when ``failed`` is True.
    failure_reason: Optional[str] = None
    #: ``run(time_limit=...)`` expired before completion or failure —
    #: previously this outcome was indistinguishable from a clean run.
    timed_out: bool = False
    #: Stall/recovery counters (see :class:`~repro.core.sender.SenderStats`).
    stall_events: int = 0
    stall_probes: int = 0
    stall_recoveries: int = 0
    #: Packets/ACKs rejected by checksum verification.
    corrupt_data_dropped: int = 0
    corrupt_acks_dropped: int = 0
    #: Packets pre-acknowledged via a RESUME exchange (never re-sent).
    resumed_packets: int = 0
    #: Datagrams (data + acks) dropped for carrying a stale epoch.
    stale_epoch_dropped: int = 0
    #: Endpoint killed by crash injection ("sender"/"receiver"/None).
    #: The *proximate* failure_reason is then the survivor's diagnosis
    #: (stall abort or liveness timeout) — this records the true cause.
    crashed: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Completed, did not fail, did not time out."""
        return self.completed and not self.failed and not self.timed_out

    def __str__(self) -> str:
        if self.failed:
            return f"TransferStats(FAILED: {self.failure_reason})"
        tag = " TIMED OUT," if self.timed_out else ""
        return (
            f"TransferStats({tag}{self.nbytes / 1e6:.1f} MB in {self.duration:.2f}s = "
            f"{self.throughput_bps / 1e6:.1f} Mb/s, "
            f"{self.percent_of_bottleneck:.1f}% of bottleneck, "
            f"waste={100 * self.wasted_fraction:.1f}%)"
        )


class FobsTransfer:
    """One FOBS object transfer from ``net.a`` to ``net.b``."""

    def __init__(
        self,
        net: Network,
        nbytes: int,
        config: Optional[FobsConfig] = None,
        tracer: Optional["Tracer"] = None,
        epoch: int = 0,
        resume_bitmap: Optional[np.ndarray] = None,
        journal: Optional["ReceiverJournal"] = None,
        kill_switch: Optional["KillSwitch"] = None,
        telemetry: Optional[EventBus] = None,
        transfer_id: int = 0,
        src: Optional["Host"] = None,
        dst: Optional["Host"] = None,
        tuning: Optional["TuningConfig"] = None,
    ):
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        self.net = net
        self.sim = net.sim
        self.nbytes = nbytes
        self.config = config if config is not None else FobsConfig()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Telemetry channels, bound to the simulated clock.  The DES
        #: has no wire-level transfer id; ``transfer_id`` labels the
        #: events (0 is fine for a single transfer per log).
        clock = lambda: self.sim.now
        if telemetry is not None and telemetry.enabled:
            self.telemetry = telemetry.channel(
                transfer_id, epoch=epoch, src="session", clock=clock)
            sender_tel = telemetry.channel(
                transfer_id, epoch=epoch, src="sender", clock=clock)
            receiver_tel = telemetry.channel(
                transfer_id, epoch=epoch, src="receiver", clock=clock)
        else:
            self.telemetry = sender_tel = receiver_tel = NULL_CHANNEL
        #: Attempt epoch of this session.  Datagrams stamped with any
        #: other epoch (a zombie endpoint from a previous attempt) are
        #: dropped on arrival; see PROTOCOL.md §8.
        self.epoch = epoch
        self.kill_switch = kill_switch

        self.sender = FobsSender(
            self.config, nbytes, rng=net.rng.stream("fobs:sender"),
            epoch=epoch, telemetry=sender_tel,
        )
        self.receiver = FobsReceiver(self.config, nbytes, journal=journal,
                                     epoch=epoch, telemetry=receiver_tel)
        if resume_bitmap is not None:
            # The RESUME exchange: the receiver's journal-reconstructed
            # bitmap seeds both endpoints, so delivered packets are
            # neither re-sent nor re-counted.  (The DES models the
            # exchange as part of session setup; the real-socket
            # backend carries it on the TCP control connection.)
            self.receiver.stats.resumed_packets = self.receiver.bitmap.merge(
                np.asarray(resume_bitmap, dtype=np.bool_))
            self.sender.resume_from(resume_bitmap)
        # Optional online knob tuning.  The DES owns both endpoints, so
        # the tuner drives all three knobs: pacing rate (sender), ack
        # frequency F (receiver live attr), batch size B (fixed batch
        # policy).  Hot paths guard every tuner touch with
        # ``if self._tuner is not None`` — the untuned cost is one
        # attribute load per ACK.
        self._tuner = None
        if tuning is not None:
            from repro.tuning import make_tuner
            self._tuner = make_tuner(
                tuning, sender=self.sender, receiver=self.receiver,
                telemetry=telemetry, transfer_id=transfer_id, clock=clock)

        self._bitmap_bytes = bitmap_wire_bytes(self.sender.npackets)
        self._data_sent_count = 0
        self._data_recv_count = 0
        self.crashed: Optional[str] = None

        # The measurement pair defaults to the topology's endpoints;
        # the fleet harness overrides ``dst`` to fan one server host
        # out to many heterogeneous client hosts.
        a = src if src is not None else net.a
        b = dst if dst is not None else net.b
        self.src_host = a
        self.dst_host = b
        self._a_profile = a.profile
        self._b_profile = b.profile
        # Data: A -> (B, data_port).  ACKs: B -> (A, ack_port).
        self.data_out = UdpSocket(a, a.allocate_port())
        self.data_in = UdpSocket(b, self.config.data_port,
                                 recv_buffer_bytes=self.config.recv_buffer)
        self.ack_out = UdpSocket(b, b.allocate_port())
        self.ack_in = UdpSocket(a, self.config.ack_port,
                                recv_buffer_bytes=self.config.ack_recv_buffer)
        self._data_dst = Address(b.name, self.config.data_port)
        self._ack_dst = Address(a.name, self.config.ack_port)
        # Hot-path caches: the data egress link, source address and the
        # full-size-packet send cost never change for the life of the
        # session, so the per-packet loop resolves them once here
        # instead of through the host/socket layers on every datagram.
        self._data_link = a._routes.get(b.name, a._default_route)
        self._data_src = self.data_out.address
        self._full_wire = self.config.packet_size + DATA_HEADER_BYTES
        self._full_send_cost = self._a_profile.send_cost(self._full_wire)
        self._stall_timeout = self.config.stall_timeout
        self._full_frame_bytes = self._full_wire + UDP_HEADER_BYTES
        self._full_recv_cost = self._b_profile.recv_cost(
            self._full_frame_bytes)
        # True when the data link is a plain finite-bandwidth Link with
        # a vanilla drop-tail queue: the per-datagram loop may then use
        # the inlined admit path (_admit/try_enqueue/_start_tx fused).
        # RED queues, DelayLinks and custom disciplines take the
        # polymorphic path.
        link = self._data_link
        self._data_link_plain = (
            link is not None
            and type(link) is Link
            and type(link.queue) is DropTailQueue
        )
        # Prebound loop callbacks: the per-packet heap pushes would
        # otherwise materialize a fresh bound-method object each time
        # (part of the per-datagram price quoted in _sender_step).
        self._cb_sender_step = self._sender_step
        self._cb_recv_step = self._recv_step
        self._cb_recv_after = self._recv_after

        # TCP completion channel: receiver (B) connects to sender (A).
        self._ctrl_listener = TcpListener(
            self.sim, a, self.config.ctrl_port, on_connection=self._on_ctrl_conn
        )
        self._ctrl_client = TcpConnection(
            self.sim, b, b.allocate_port(), peer=Address(a.name, self.config.ctrl_port)
        )

        self._pending: deque[DataPacket] = deque()
        self._recv_busy = False
        self._recv_scheduled = False
        self._completion_sent = False
        self._started = False
        self._start_time: Optional[float] = None
        self._receiver_closed = False
        self.failed = False
        self.failure_reason: Optional[str] = None
        self.timed_out = False
        self._stall_wait_handle = None
        # Section 7 tcp_switch mode state
        self.switched_to_tcp = False
        self._tcp_tail: Optional[TcpConnection] = None
        self._tcp_tail_listener: Optional[TcpListener] = None
        self._tcp_tail_bytes = 0
        self._tcp_tail_delivered = 0

        self.data_in.on_readable = self._wake_receiver
        # Wake a stalled (backed-off) sender the moment an ACK lands,
        # instead of waiting out the current probe interval.
        self.ack_in.on_readable = self._wake_stalled_sender

    # ------------------------------------------------------------------
    # Control channel
    # ------------------------------------------------------------------
    def _on_ctrl_conn(self, conn: TcpConnection) -> None:
        conn.on_deliver = self._on_ctrl_bytes

    def _on_ctrl_bytes(self, nbytes: int) -> None:
        del nbytes
        if self.crashed == "sender":
            # Process death: the completion handshake lands on a dead
            # port and is lost, so in-flight data delivered after the
            # crash cannot retroactively complete the transfer.
            return
        self.sender.on_completion(self.sim.now)
        self.sim.stop()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            raise RuntimeError("transfer already started")
        self._started = True
        self._start_time = self.sim.now
        if self.telemetry.enabled:
            self.telemetry.emit(
                EV_TRANSFER_START, nbytes=self.nbytes,
                npackets=self.sender.npackets,
                packet_size=self.config.packet_size,
                ack_frequency=self.config.ack_frequency, backend="des")
        self._ctrl_client.connect()
        self.sim.schedule(0.0, self._sender_step)
        if self.receiver.complete:
            # A resumed receiver whose journal already covers the whole
            # object: no data will ever flow, so it initiates the
            # completion handshake immediately instead of arming a
            # liveness timer that would only time out on silence.
            self.sim.schedule(0.0, self._recv_after, None)
        else:
            self.sim.schedule(self.config.receiver_idle_timeout,
                              self._liveness_check)

    def set_rate_ceiling(self, rate_bps: Optional[float]) -> None:
        """Allocator share update.  Untuned transfers pace directly at
        their share; tuned transfers treat it as a ceiling the
        controller searches under (it may sit below the share when the
        path, not the allocator, is the constraint)."""
        if self._tuner is not None:
            self._tuner.set_ceiling(rate_bps)
        else:
            self.sender.set_pacing_rate(rate_bps)

    def run(self, time_limit: float = 600.0) -> TransferStats:
        """Start (if needed) and simulate until the sender finishes.

        A transfer that neither completes nor fails before the deadline
        is explicitly marked ``timed_out`` in the returned stats.
        """
        if not self._started:
            self.start()
        deadline = self._start_time + time_limit
        if not self._finished():
            # The events that can finish the transfer call sim.stop()
            # themselves, so the engine loop runs without a per-event
            # stop_when predicate (a measurable win at packet-per-event
            # rates).
            self.sim.run(until=deadline, stop_on_request=True)
        if not self._finished():
            self.timed_out = True
        stats = self.collect_stats()
        if self.telemetry.enabled:
            self._emit_transfer_end(stats)
        return stats

    def _emit_transfer_end(self, stats: TransferStats) -> None:
        """The summary event: outcome, metrics and loss attribution."""
        # Imported here: repro.analysis imports this module at package
        # init, so a module-level import would be circular.
        from repro.analysis.diagnostics import loss_breakdown

        losses = loss_breakdown(self.net, stats.receiver_socket_drops)
        self.telemetry.emit(
            EV_TRANSFER_END,
            completed=stats.completed, failed=stats.failed,
            timed_out=stats.timed_out, duration=stats.duration,
            throughput_bps=stats.throughput_bps,
            wasted_fraction=stats.wasted_fraction,
            packets_sent=stats.packets_sent,
            retransmissions=stats.retransmissions,
            acks_sent=stats.acks_sent,
            resumed_packets=stats.resumed_packets,
            loss_receiver=losses.receiver_drops,
            loss_queue=losses.queue_drops,
            loss_random=losses.random_losses,
            loss_injected=losses.injected_drops)

    def _finished(self) -> bool:
        if self.failed:
            return True
        if self.switched_to_tcp:
            return self._tcp_tail_delivered >= self._tcp_tail_bytes
        return self.sender.complete

    def _fail(self, reason: str) -> None:
        """Abort the transfer with a diagnosable reason (never hang)."""
        if self.failed or self.sender.complete:
            return
        self.failed = True
        self.failure_reason = reason
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "failed", reason)
        self.sim.stop()

    def _liveness_check(self) -> None:
        """Receiver-side liveness: fail if data stops arriving entirely.

        A receiver that closed *normally* keeps the check armed until
        the sender confirms completion: if the completion handshake is
        lost (the daemon died with all data in flight), the client must
        still diagnose the silence rather than hang forever.  Only a
        crashed receiver is a dead process with nothing left to notice.
        """
        if (self.failed or self.switched_to_tcp or self.sender.complete
                or self.crashed == "receiver"):
            return
        now, start = self.sim.now, self._start_time
        failure = self.receiver.liveness_failure(now, start)
        if failure is not None:
            self._fail(failure)
            return
        self.sim.call_in(self.config.receiver_idle_timeout
                         - self.receiver.idle_since(now, start),
                         self._liveness_check)

    # ------------------------------------------------------------------
    # Sender loop (Section 3.1's three phases, one event per action)
    # ------------------------------------------------------------------
    def _wake_stalled_sender(self) -> None:
        if self._stall_wait_handle is not None and self.sender.stalled:
            self._stall_wait_handle.cancel()
            self._stall_wait_handle = None
            self.sim.call_in(0.0, self._cb_sender_step)

    def _crash(self, target: str) -> None:
        """Crash injection: abrupt process death of one endpoint.

        No goodbye message, no final flush — the survivor must diagnose
        the silence (stall abort or liveness timeout) and a later
        attempt recovers from whatever the journal had flushed.
        """
        if self.crashed is not None:
            return
        self.crashed = target
        if self.kill_switch is not None:
            self.kill_switch.fire(self.sim.now)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "crash", f"{target} killed")
        if target == "receiver":
            if self.receiver.journal is not None:
                self.receiver.journal.simulate_crash()
            self._close_receiver()
        # A crashed sender simply stops stepping (checked in
        # _sender_step); the receiver's liveness timeout then fails the
        # transfer, exactly as with a real process death.

    def _sender_step(self) -> None:
        self._stall_wait_handle = None
        if self.crashed == "sender":
            return
        sender = self.sender
        if sender.complete or self.switched_to_tcp or self.failed:
            return
        kill = self.kill_switch
        if (kill is not None and kill.target == "sender"
                and kill.should_fire(self._data_sent_count)):
            self._crash("sender")
            return
        sim = self.sim
        now = sim.now

        # Stall detection: no ACK progress for stall_timeout switches
        # the loop to backoff re-blast probing; stalling past the abort
        # threshold fails the transfer cleanly instead of hanging until
        # the run() deadline.  The common case — recent progress, not
        # stalled — is decided inline; poll_stall handles the rest.
        pt = sender._progress_time
        if (pt is not None and not sender._stalled
                and now - pt < self._stall_timeout):
            stall = None
        else:
            stall = sender.poll_stall(now)
            if stall == "abort":
                self._fail(sender.failure_reason)
                return
            if sender.complete:
                # poll_stall synthesized completion (all packets acked
                # but the TCP completion signal never arrived).
                sim.stop()
                return

        # Phase ordering matches the paper's loop: an unfinished batch
        # is always flushed before ACKs or new batches are considered.
        if not self._pending:
            # Phase 2: look for (but do not block on) an acknowledgement.
            frame = self.ack_in.poll()
            if frame is not None:
                cost = self._a_profile.recv_cost(frame.size_bytes)
                if frame.corrupted and self.config.checksum:
                    sender.on_corrupt_ack()
                    if self.tracer.enabled:
                        self.tracer.emit(now, "ack_corrupt", "dropped")
                    sim.call_in(cost, self._cb_sender_step)
                    return
                ack: AckPacket = frame.payload
                if ack.epoch != self.epoch:
                    # Zombie acknowledgement from a previous attempt: its
                    # bitmap may claim packets this epoch never delivered.
                    sender.on_stale_ack()
                    if self.tracer.enabled:
                        self.tracer.emit(now, "ack_stale",
                                         f"epoch={ack.epoch}")
                    sim.call_in(cost, self._cb_sender_step)
                    return
                sender.on_ack(ack, now)
                if self._tuner is not None:
                    self._tuner.on_ack(sender, now)
                if self.tracer.enabled:
                    self.tracer.emit(now, "ack_rx",
                                     f"id={ack.ack_id} count={ack.received_count}")
                if sender.congestion.should_switch_to_tcp():
                    sim.call_in(cost, self._switch_to_tcp)
                    return
                sim.call_in(cost, self._cb_sender_step)
                return

            # Stalled with no probe due: back off — no new batches until the
            # probe timer (or an arriving ACK, via on_readable) wakes us.
            if stall == "wait":
                self._stall_wait_handle = sim.schedule(
                    sender.stall_wait_hint(now), self._sender_step
                )
                return

            # Phases 1+3: assemble the next batch via the schedule policy.
            # A stall probe overrides the (possibly collapsed) batch policy
            # so the re-blast is large enough to elicit an acknowledgement.
            batch = (sender.probe_batch() if stall == "probe"
                     else sender.next_batch())
            if not batch:
                # Everything locally acked; poll for the completion signal.
                sim.call_in(1e-3, self._cb_sender_step)
                return
            self._pending.extend(batch)
            delay = sender.congestion.batch_delay()
            if delay > 0:
                sim.call_in(delay, self._cb_sender_step)
                return
            # Fall through and emit the first packet right away: the
            # re-entry preamble would be a verbatim no-op repeat (no
            # event ran since the checks above), so the tail call it
            # guarded is skipped rather than re-verified.

        # Phase: emit the current batch one packet at a time, pacing on
        # the NIC via the select()-equivalent writability check.  The
        # socket/host layers are inlined here — route, writability
        # check, frame build, admission and the pacing push — because
        # this branch runs once per datagram and dominates the whole
        # simulation.  Measured price (ISSUE 24, 10 MB short_haul, min
        # of 6 process_time runs x 6 processes): calling the simnet
        # originals instead of these inlines and the one in _recv_step
        # costs 0.0918 -> 0.1052 s of CPU.  Everything that runs per
        # batch or per ACK calls the original; the allowlist in
        # tests/test_session.py keeps it that way.
        pkt = self._pending[0]
        wire = pkt.payload_bytes + DATA_HEADER_BYTES
        link = self._data_link
        if link is None:
            raise RuntimeError(
                f"{self.src_host.name}: no route for {self._data_dst.host}")
        frame_bytes = wire + UDP_HEADER_BYTES
        plain = self._data_link_plain
        if plain and link._busy:
            # Link.can_send, inlined: room behind the transmitter?
            q = link.queue
            qbytes = q._bytes
            if (qbytes + frame_bytes > q.capacity_bytes
                    or (q.capacity_frames is not None
                        and len(q._frames) >= q.capacity_frames)):
                # Link.time_until_room, inlined: residual of the
                # in-flight frame plus draining the overflow.
                wait = link._current_tx_end - now
                if wait < 0.0:
                    wait = 0.0
                overflow = qbytes + frame_bytes - q.capacity_bytes
                if overflow > 0:
                    wait += overflow * 8.0 / link.bandwidth_bps
                if wait < 1e-6:
                    wait = 1e-6
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap,
                         (now + wait, seq, self._cb_sender_step, _NO_ARG))
                return
        elif not plain and not link.can_send(frame_bytes):
            wait = link.time_until_room(frame_bytes)
            if wait < 1e-6:
                wait = 1e-6
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap,
                     (now + wait, seq, self._cb_sender_step, _NO_ARG))
            return
        self._pending.popleft()
        data_out = self.data_out
        # _fast_frame, inlined (one construction per datagram).
        frame = object.__new__(Frame)
        frame.src = self._data_src
        frame.dst = self._data_dst
        frame.proto = "udp"
        frame.size_bytes = frame_bytes
        frame.payload = pkt
        frame.created_at = now
        frame.frame_id = next(_frame_ids)
        frame.hops = 0
        frame.corrupted = False
        if plain and not link.faults:
            # Link._admit + DropTailQueue.try_enqueue / _start_tx,
            # fused: the room check above already guaranteed
            # acceptance, so this is pure bookkeeping.
            link.stats.frames_offered += 1
            if link._busy:
                q = link.queue
                q._frames.append(frame)
                nb = q._bytes + frame_bytes
                q._bytes = nb
                qs = q.stats
                qs.enqueued += 1
                qs.bytes_enqueued += frame_bytes
                if nb > qs.peak_bytes:
                    qs.peak_bytes = nb
            else:
                link._busy = True
                tx = frame_bytes * 8.0 / link.bandwidth_bps
                link._current_tx_end = now + tx
                link.stats.busy_time += tx
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (now + tx, seq, link._cb_tx_done, frame))
            data_out.datagrams_sent += 1
        else:
            if link.send(frame):
                data_out.datagrams_sent += 1
            else:
                data_out.send_failures += 1
        self._data_sent_count += 1
        if self._tuner is not None:
            self._tuner.maybe_probe(pkt.seq, now)
        if self.tracer.enabled:
            self.tracer.emit(now, "data_tx",
                             f"seq={pkt.seq} txno={pkt.transmission}")
        delay = (self._full_send_cost if wire == self._full_wire
                 else self._a_profile.send_cost(wire))
        # Pacing reads the sender's live rate (not the frozen
        # config): the multi-transfer server re-feeds it as its
        # max-min allocation changes mid-transfer.
        rate = sender.pacing_rate_bps
        if rate is not None:
            paced = wire * 8.0 / rate
            if paced > delay:
                delay = paced
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (now + delay, seq, self._cb_sender_step, _NO_ARG))

    # ------------------------------------------------------------------
    # Receiver loop (event-driven, CPU-cost accurate)
    # ------------------------------------------------------------------
    def _wake_receiver(self) -> None:
        if self._recv_busy or self._recv_scheduled or self._receiver_closed:
            return
        self._recv_scheduled = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now, seq, self._cb_recv_step, _NO_ARG))

    def _recv_step(self) -> None:
        self._recv_scheduled = False
        if self._receiver_closed:
            return
        kill = self.kill_switch
        if (kill is not None and kill.target == "receiver"
                and kill.should_fire(self._data_recv_count)):
            self._crash("receiver")
            return
        # UdpSocket.poll, inlined (once per received datagram; its
        # price is part of the figure quoted in _sender_step).
        data_in = self.data_in
        dbuf = data_in._buffer
        if not dbuf:
            return
        frame = dbuf.popleft()
        data_in._buffered_bytes -= frame.size_bytes
        self._data_recv_count += 1
        fs = frame.size_bytes
        cost = (self._full_recv_cost if fs == self._full_frame_bytes
                else self._b_profile.recv_cost(fs))
        if frame.corrupted and self.config.checksum:
            # Checksum rejects the damaged payload; the packet is lost
            # as far as the bitmap is concerned and will be re-sent.
            self.receiver.on_corrupt_data(self.sim.now)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "data_corrupt", "dropped")
            self._recv_busy = True
            self.sim.call_in(cost, self._cb_recv_after, None)
            return
        pkt: DataPacket = frame.payload
        if pkt.epoch != self.epoch:
            # Stale-epoch datagram (zombie sender from an earlier
            # attempt): never lands in the object, never refreshes
            # liveness.
            self.receiver.on_stale_data(pkt.seq)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "data_stale",
                                 f"seq={pkt.seq} epoch={pkt.epoch}")
            self._recv_busy = True
            self.sim.call_in(cost, self._cb_recv_after, None)
            return
        try:
            ack = self.receiver.on_data(pkt.seq, self.sim.now)
        except OSError as exc:
            # The receiver's journal write hit a disk fault (EIO,
            # ENOSPC).  Fail this attempt with a typed, retryable
            # diagnosis — the supervisor treats storage faults like any
            # other attempt failure, and the journal's already-durable
            # prefix still seeds the resume.
            name = errno.errorcode.get(exc.errno, type(exc).__name__)
            if self.telemetry.enabled:
                self.telemetry.emit(EV_STORAGE_FAULT, error=name,
                                    where="journal", detail=str(exc))
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "storage_fault",
                                 f"{name}: {exc}")
            self._fail(f"storage fault [{name}] at journal: {exc}")
            return
        if ack is not None:
            cost += self._b_profile.ack_cost(self._bitmap_bytes)
            cost += self._b_profile.send_cost(ack.wire_bytes)
        self._recv_busy = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + cost, seq, self._cb_recv_after, ack))

    def _recv_after(self, ack: Optional[AckPacket]) -> None:
        self._recv_busy = False
        if ack is not None:
            self.ack_out.sendto(ack, ack.wire_bytes, self._ack_dst)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "ack_tx",
                                 f"id={ack.ack_id} count={ack.received_count}")
        if self.receiver.complete and not self._completion_sent:
            self._completion_sent = True
            if self.receiver.stats.completed_at is None:
                # Pre-complete resume: every packet came from the
                # journal, so completion is stamped at handshake time.
                self.receiver.stats.completed_at = self.sim.now
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "complete", "receiver done")
            self._ctrl_client.app_write(COMPLETION_BYTES)
            self._close_receiver()
            return
        if self.data_in._buffer and not self._recv_scheduled:
            self._recv_scheduled = True
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (sim.now, seq, self._cb_recv_step, _NO_ARG))

    def _close_receiver(self) -> None:
        """Stop consuming data packets once the object is complete."""
        self._receiver_closed = True
        self.data_in.close()

    # ------------------------------------------------------------------
    # Section 7: TCP fallback
    # ------------------------------------------------------------------
    def _switch_to_tcp(self) -> None:
        """Finish the remaining object bytes over TCP (tcp_switch mode)."""
        if self.switched_to_tcp or self.sender.complete:
            return
        self.switched_to_tcp = True
        self._pending.clear()
        missing = self.sender.acked.missing
        self._tcp_tail_bytes = max(1, missing * self.config.packet_size)
        port = self.config.ctrl_port + 1
        a, b = self.src_host, self.dst_host
        # "switches to a high-performance TCP algorithm" (Section 7):
        # window-scaled, SACK-enabled HighSpeed TCP.
        opts = TcpOptions(window_scaling=True, sack=True,
                          congestion_control="highspeed")

        def on_conn(conn: TcpConnection) -> None:
            conn.on_deliver = self._on_tcp_tail_bytes

        self._tcp_tail_listener = TcpListener(self.sim, b, port, options=opts,
                                              on_connection=on_conn)
        self._tcp_tail = TcpConnection(
            self.sim, a, a.allocate_port(), peer=Address(b.name, port), options=opts
        )
        total = self._tcp_tail_bytes
        self._tcp_tail.on_established = lambda: self._tcp_tail.app_write(total)
        self._tcp_tail.connect()

    def _on_tcp_tail_bytes(self, nbytes: int) -> None:
        self._tcp_tail_delivered += nbytes
        if self._tcp_tail_delivered >= self._tcp_tail_bytes:
            # The TCP tail covered every missing packet.
            now = self.sim.now
            if self.receiver.stats.completed_at is None:
                self.receiver.stats.completed_at = now
            self.sender.on_completion(now)
            self.sim.stop()

    # ------------------------------------------------------------------
    def collect_stats(self) -> TransferStats:
        """Summarize the transfer (valid anytime; final once finished)."""
        start = self._start_time if self._start_time is not None else 0.0
        done_at = self.receiver.stats.completed_at
        # ``failed`` wins: a receiver that holds every byte of a transfer
        # whose sender never learned so (a dead reverse path, a crash
        # before the completion signal) has not completed it.  Duration
        # then runs to the failure; the bytes still count as delivered.
        completed = done_at is not None and not self.failed
        end = done_at if completed else self.sim.now
        duration = max(end - start, 1e-12)
        delivered = (
            self.nbytes
            if done_at is not None
            else self.receiver.bitmap.count * self.config.packet_size
        )
        throughput = delivered * 8.0 / duration
        # Waste per the paper: (sent - required) / required.  When the
        # tcp_switch mode handed the tail to TCP, "required" for the
        # FOBS phase is what FOBS actually delivered, keeping the
        # metric a non-negative duplicate fraction.
        if self.switched_to_tcp:
            fobs_delivered = max(1, self.receiver.bitmap.count)
            waste = (self.sender.stats.packets_sent - fobs_delivered) / self.sender.npackets
        else:
            waste = self.sender.wasted_fraction
        return TransferStats(
            nbytes=self.nbytes,
            npackets=self.sender.npackets,
            duration=duration,
            throughput_bps=throughput,
            percent_of_bottleneck=100.0 * throughput / self.net.spec.bottleneck_bps,
            completed=completed,
            wasted_fraction=waste,
            packets_sent=self.sender.stats.packets_sent,
            retransmissions=self.sender.stats.retransmissions,
            duplicates_received=self.receiver.stats.packets_duplicate,
            receiver_socket_drops=self.data_in.datagrams_dropped,
            ack_socket_drops=self.ack_in.datagrams_dropped,
            acks_sent=self.receiver.stats.acks_built,
            acks_processed=self.sender.stats.acks_processed,
            receiver_completed_at=self.receiver.stats.completed_at,
            sender_completed_at=self.sender.stats.completed_at,
            switched_to_tcp=self.switched_to_tcp,
            sender_stats=self.sender.stats,
            receiver_stats=self.receiver.stats,
            failed=self.failed,
            failure_reason=self.failure_reason,
            timed_out=self.timed_out,
            stall_events=self.sender.stats.stall_events,
            stall_probes=self.sender.stats.stall_probes,
            stall_recoveries=self.sender.stats.stall_recoveries,
            corrupt_data_dropped=self.receiver.stats.packets_corrupt,
            corrupt_acks_dropped=self.sender.stats.acks_corrupt,
            resumed_packets=self.sender.stats.resumed_packets,
            stale_epoch_dropped=(self.receiver.stats.stale_epoch_data
                                 + self.sender.stats.stale_epoch_acks),
            crashed=self.crashed,
        )


def run_fobs_transfer(
    net: Network,
    nbytes: int,
    config: Optional[FobsConfig] = None,
    time_limit: float = 600.0,
    telemetry: Optional[EventBus] = None,
    tuning: Optional["TuningConfig"] = None,
) -> TransferStats:
    """Convenience wrapper: build, run and summarize one transfer."""
    return FobsTransfer(net, nbytes, config, telemetry=telemetry,
                        tuning=tuning).run(time_limit=time_limit)
