"""TCP connection state machine over the simulated network.

Implements the sender and receiver halves of a Reno/NewReno TCP with
negotiated window scaling (the paper's Large Window Extensions) and
optional SACK-based loss recovery, sufficient for bulk transfers:

* three-segment handshake with option negotiation;
* slow start / congestion avoidance / fast retransmit / fast recovery
  (window inflation), NewReno partial-ACK handling;
* simplified RFC 3517 SACK recovery (scoreboard + pipe check);
* RFC 6298 retransmission timer with Karn's algorithm and backoff;
* delayed acknowledgements, receive-window advertisement and
  reassembly with duplicate accounting.

Deliberate simplifications, documented for reviewers:

* SYN/FIN do not consume sequence space and connections are not torn
  down with FIN — bulk experiments measure to last-byte delivery;
* after a retransmission timeout the sender rolls ``snd_nxt`` back to
  ``snd_una`` (go-back-N semantics, skipping SACKed ranges when SACK is
  on); the receiver discards duplicates, so correctness is unaffected
  and flight-size accounting stays exact;
* no persist timer: the receiving application drains in-order data
  immediately, so the advertised window never closes to zero for more
  than an out-of-order transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.node import Host
from repro.simnet.packet import Address, tcp_frame
from repro.tcp.options import TcpOptions
from repro.tcp.reassembly import ReassemblyBuffer
from repro.tcp.rtt import RttEstimator
from repro.tcp.segments import Segment, segment_option_bytes


class _Timer:
    """A re-armable timer that keeps at most one live heap entry.

    Re-arming moves the deadline; the entry already queued fires no
    later than it and, when the deadline has moved on, re-schedules
    itself with ``schedule_at(deadline)`` — the same float a fresh
    ``schedule(delay)`` at arming time would have produced.  Only a
    deadline that moves *earlier* than the queued entry cancels it, so
    re-arming per advancing ACK (RTO) or per odd segment (delayed ACK)
    pushes no handle and leaves no dead entry in the heap.
    """

    __slots__ = ("sim", "fn", "deadline", "_entry")

    def __init__(self, sim: Simulator, fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        #: When ``fn`` is due; None while disarmed.
        self.deadline: Optional[float] = None
        self._entry: Optional[EventHandle] = None

    def arm(self, deadline: float) -> None:
        self.deadline = deadline
        entry = self._entry
        if entry is not None:
            if entry.time <= deadline:
                return
            entry.cancel()
        self._entry = self.sim.schedule_at(deadline, self._due)

    def disarm(self) -> None:
        """Forget the deadline; a queued entry fires and does nothing."""
        self.deadline = None

    def cancel(self) -> None:
        """Disarm and drop the queued entry (the connection is closing)."""
        self.deadline = None
        if self._entry is not None:
            self._entry.cancel()
            self._entry = None

    def _due(self) -> None:
        self._entry = None
        deadline = self.deadline
        if deadline is None:
            return
        if self.sim.now < deadline:
            self._entry = self.sim.schedule_at(deadline, self._due)
            return
        self.deadline = None
        self.fn()


@dataclass
class ConnStats:
    """Counters for one connection's lifetime."""

    segments_sent: int = 0
    data_segments_sent: int = 0
    retransmitted_segments: int = 0
    retransmitted_bytes: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    dup_acks_received: int = 0
    acks_sent: int = 0
    bytes_acked: int = 0
    wire_bytes_sent: int = 0
    established_at: float = field(default=float("nan"))


class TcpConnection:
    """One endpoint of a TCP connection.

    Clients construct with ``is_server=False`` and call :meth:`connect`;
    server-side connections are created by :class:`TcpListener` when a
    SYN arrives.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_port: int,
        peer: Address,
        options: Optional[TcpOptions] = None,
        is_server: bool = False,
        owns_port: bool = True,
    ):
        self.sim = sim
        self.host = host
        self.local = Address(host.name, local_port)
        self.peer = peer
        self.options = options if options is not None else TcpOptions()
        self.is_server = is_server
        self.state = "closed"
        self.stats = ConnStats()

        # --- negotiated capabilities (fixed at handshake) ---
        self.eff_window_scaling = False
        self.eff_sack = False

        # --- sender state ---
        self.snd_una = 0
        self.snd_nxt = 0
        self.app_limit = 0  # total bytes the application has written
        self.peer_rwnd = 65535
        self.dup_acks = 0
        from repro.tcp.highspeed import make_controller

        self.reno = make_controller(
            self.options.congestion_control,
            self.options.mss,
            self.options.init_cwnd_segments,
        )
        self.rtt = RttEstimator(
            self.options.initial_rto, self.options.min_rto, self.options.max_rto
        )
        self._rto = _Timer(sim, self._on_rto)
        self._rtt_probe: Optional[tuple[int, float]] = None
        self._send_retry: Optional[EventHandle] = None
        #: sender-side SACK scoreboard: disjoint sorted (start, end)
        self._sacked: list[tuple[int, int]] = []

        # --- receiver state ---
        self.reasm = ReassemblyBuffer()
        self._delack = _Timer(sim, self._on_delack)
        self._unacked_segments = 0
        # Receive-buffer auto-tuning (DRS-style): grow the effective
        # buffer toward options.recv_buffer as delivery-rate x RTT
        # demands.  The server side samples RTT from its SYN-ACK.
        self._tuned_buffer = (
            min(self.options.autotune_initial_buffer, self.options.recv_buffer)
            if self.options.autotune_buffers
            else self.options.recv_buffer
        )
        self._at_window_start = 0.0
        self._at_bytes = 0
        self._synack_time: Optional[float] = None
        self.on_deliver: Optional[Callable[[int], None]] = None
        self.on_established: Optional[Callable[[], None]] = None

        if owns_port:
            host.bind_handler("tcp", local_port, self._on_frame)
        self._owns_port = owns_port

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Start the client handshake."""
        if self.state != "closed":
            raise RuntimeError(f"connect() in state {self.state}")
        self.state = "syn_sent"
        self._send_syn()

    def app_write(self, nbytes: int) -> None:
        """Application hands ``nbytes`` more bytes to the send side."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.app_limit += nbytes
        self._try_send()

    @property
    def flight_size(self) -> int:
        return self.snd_nxt - self.snd_una

    @property
    def all_acked(self) -> bool:
        """True once every written byte has been cumulatively acked."""
        return self.snd_una >= self.app_limit

    def close(self) -> None:
        """Release timers and the port binding."""
        self._rto.cancel()
        self._delack.cancel()
        if self._send_retry is not None:
            self._send_retry.cancel()
            self._send_retry = None
        if self._owns_port:
            self.host.unbind_handler("tcp", self.local.port)

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------
    def _send_syn(self) -> None:
        seg = Segment(
            syn=True,
            is_ack=False,
            # RFC 1323: the window field in a SYN is never scaled.
            wnd=min(self.options.recv_buffer, 65535),
            offer_window_scaling=self.options.window_scaling,
            offer_sack=self.options.sack,
        )
        self._transmit(seg, 0)
        self._syn_time = self.sim.now
        self._arm_rto()

    def _handle_syn(self, seg: Segment) -> None:
        """Server side: peer's SYN arrived (possibly a duplicate)."""
        self.eff_window_scaling = self.options.window_scaling and seg.offer_window_scaling
        self.eff_sack = self.options.sack and seg.offer_sack
        self.peer_rwnd = seg.wnd
        self.state = "syn_rcvd"
        synack = Segment(
            syn=True,
            is_ack=True,
            ack=0,
            wnd=self._advertised_window(),
            offer_window_scaling=self.options.window_scaling,
            offer_sack=self.options.sack,
        )
        self._transmit(synack, 0)
        self._synack_time = self.sim.now

    def _handle_synack(self, seg: Segment) -> None:
        self.eff_window_scaling = self.options.window_scaling and seg.offer_window_scaling
        self.eff_sack = self.options.sack and seg.offer_sack
        self.peer_rwnd = seg.wnd
        self.state = "established"
        self.stats.established_at = self.sim.now
        self.rtt.sample(self.sim.now - self._syn_time)
        self._cancel_rto()
        self._send_ack()
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _on_frame(self, frame) -> None:
        self._on_segment(frame.payload)

    def _on_segment(self, seg: Segment) -> None:
        if seg.syn and not seg.is_ack:
            self._handle_syn(seg)
            return
        if seg.syn and seg.is_ack:
            if self.state == "syn_sent":
                self._handle_synack(seg)
            else:
                # duplicate SYN-ACK: our ACK was lost; re-ack.
                self._send_ack()
            return
        if self.state == "syn_rcvd":
            self.state = "established"
            self.stats.established_at = self.sim.now
            if self._synack_time is not None:
                self.rtt.sample(self.sim.now - self._synack_time)
            self._at_window_start = self.sim.now
            if self.on_established is not None:
                self.on_established()
        if self.state != "established":
            return
        if seg.is_ack:
            self._process_ack(seg)
        if seg.length > 0:
            self._process_data(seg)

    # ------------------------------------------------------------------
    # Sender: transmission
    # ------------------------------------------------------------------
    def _advertised_window(self) -> int:
        if self.state == "established" and self.eff_window_scaling:
            cap = self._tuned_buffer
        else:
            cap = min(self._tuned_buffer, 65535)
        return max(0, cap - self.reasm.ooo_bytes)

    def _autotune(self, delivered: int) -> None:
        """DRS-style growth: 2x the bytes delivered per RTT, capped."""
        self._at_bytes += delivered
        rtt = self.rtt.srtt if self.rtt.srtt is not None else 0.1
        now = self.sim.now
        if now - self._at_window_start >= rtt:
            demand = 2 * self._at_bytes
            if demand > self._tuned_buffer:
                self._tuned_buffer = min(demand, self.options.recv_buffer)
            self._at_bytes = 0
            self._at_window_start = now

    def _usable_bytes(self) -> int:
        return self.reno.usable_window(self.flight_size, self.peer_rwnd)

    def _next_new_range(self) -> Optional[tuple[int, int]]:
        """Next (seq, length) of unsent/rolled-back data, skipping SACKed."""
        seq = self.snd_nxt
        if self.eff_sack:
            for s, e in self._sacked:
                if s <= seq < e:
                    seq = e
                elif s > seq:
                    break
        if seq >= self.app_limit:
            return None
        length = min(self.options.mss, self.app_limit - seq)
        if self.eff_sack:
            for s, e in self._sacked:
                if seq < s < seq + length:
                    length = s - seq
                    break
        return seq, length

    def _try_send(self) -> None:
        """Send as much new data as the windows and the NIC permit."""
        if self.state != "established":
            return
        while True:
            nxt = self._next_new_range()
            if nxt is None:
                break
            seq, length = nxt
            # Account skipped SACKed ranges as already "sent".
            if seq > self.snd_nxt:
                self.snd_nxt = seq
            if self._usable_bytes() < length:
                break
            wire = length + 40
            if not self.host.can_send(wire, self.peer.host):
                self._schedule_send_retry(wire)
                return
            self._emit_data(seq, length, retransmit=False)
            self.snd_nxt = max(self.snd_nxt, seq + length)

    def _schedule_send_retry(self, wire_bytes: int) -> None:
        """NIC egress full: retry when the queue is expected to drain."""
        if self._send_retry is not None:
            return
        delay = max(1e-6, self.host.send_wait_hint(wire_bytes, self.peer.host))

        def retry() -> None:
            self._send_retry = None
            self._try_send()

        self._send_retry = self.sim.schedule(delay, retry)

    def _emit_data(self, seq: int, length: int, retransmit: bool) -> None:
        seg = Segment(
            seq=seq,
            length=length,
            ack=self.reasm.rcv_nxt,
            wnd=self._advertised_window(),
        )
        self._transmit(seg, length)
        self.stats.data_segments_sent += 1
        if retransmit:
            self.stats.retransmitted_segments += 1
            self.stats.retransmitted_bytes += length
            # Karn: invalidate a probe covering retransmitted data.
            if self._rtt_probe is not None and self._rtt_probe[0] > seq:
                self._rtt_probe = None
        elif self._rtt_probe is None:
            self._rtt_probe = (seq + length, self.sim.now)
        self._arm_rto()

    def _transmit(self, seg: Segment, payload_bytes: int) -> None:
        frame = tcp_frame(
            src=self.local,
            dst=self.peer,
            payload=seg,
            payload_bytes=payload_bytes,
            created_at=self.sim.now,
            option_bytes=segment_option_bytes(seg),
        )
        self.stats.segments_sent += 1
        self.stats.wire_bytes_sent += frame.size_bytes
        self.host.send_frame(frame)

    # ------------------------------------------------------------------
    # Sender: acknowledgement processing
    # ------------------------------------------------------------------
    def _merge_sack(self, blocks: tuple[tuple[int, int], ...]) -> None:
        for start, end in blocks:
            if end <= self.snd_una:
                continue
            start = max(start, self.snd_una)
            keep: list[tuple[int, int]] = []
            for s, e in self._sacked:
                if e < start or s > end:
                    keep.append((s, e))
                else:
                    start = min(start, s)
                    end = max(end, e)
            keep.append((start, end))
            keep.sort()
            self._sacked = keep

    def _sacked_bytes(self) -> int:
        return sum(e - s for s, e in self._sacked)

    def _process_ack(self, seg: Segment) -> None:
        self.peer_rwnd = seg.wnd
        if seg.sack_blocks and self.eff_sack:
            self._merge_sack(seg.sack_blocks)

        if seg.ack > self.snd_una:
            newly = seg.ack - self.snd_una
            self.snd_una = seg.ack
            if self.snd_nxt < self.snd_una:
                self.snd_nxt = self.snd_una
            self._sacked = [(s, e) for s, e in self._sacked if e > self.snd_una]
            self.stats.bytes_acked += newly
            if self._rtt_probe is not None and seg.ack >= self._rtt_probe[0]:
                sample = self.sim.now - self._rtt_probe[1]
                self.rtt.sample(sample)
                self.reno.on_rtt_sample(sample)
                self._rtt_probe = None

            if self.reno.in_fast_recovery:
                if seg.ack >= self.reno.recover_point:
                    self.reno.exit_fast_recovery()
                    self.dup_acks = 0
                elif self.options.newreno or self.eff_sack:
                    # Partial ACK: retransmit the next hole, stay in recovery.
                    self.reno.on_partial_ack(newly)
                    self._retransmit_one_hole()
                else:
                    # Classic Reno leaves recovery on any new ACK.
                    self.reno.exit_fast_recovery()
                    self.dup_acks = 0
            else:
                self.reno.on_new_ack(newly)
                self.dup_acks = 0

            if self.flight_size > 0 or self.snd_nxt < self.app_limit:
                self._arm_rto(restart=True)
            else:
                self._cancel_rto()
        elif seg.ack == self.snd_una and seg.length == 0 and self.flight_size > 0:
            self.stats.dup_acks_received += 1
            self.dup_acks += 1
            if self.reno.in_fast_recovery:
                self.reno.on_dup_ack_in_recovery()
                if self.eff_sack:
                    self._sack_retransmit()
            elif self.dup_acks == 3:
                self.reno.enter_fast_recovery(self.flight_size, self.snd_nxt)
                self.stats.fast_retransmits += 1
                self._retransmit_one_hole()
        self._try_send()

    def _first_hole(self) -> Optional[tuple[int, int]]:
        """First retransmittable range at/above snd_una, or None.

        With SACK information, only data *below the highest SACKed
        byte* is presumed lost (RFC 3517's NextSeg rule 1) — unsacked
        data above every SACK block is merely in flight.  Without a
        scoreboard, the classic fast-retransmit target is the first
        unacked segment.
        """
        seq = self.snd_una
        for s, e in self._sacked:
            if s <= seq < e:
                seq = e
            elif s > seq:
                return seq, min(self.options.mss, s - seq)
        if self._sacked:
            return None  # no hole below the highest SACKed byte
        if seq >= self.snd_nxt:
            return None
        return seq, min(self.options.mss, self.snd_nxt - seq)

    def _retransmit_one_hole(self) -> None:
        hole = self._first_hole()
        if hole is None:
            return
        seq, length = hole
        if length <= 0 or seq >= self.snd_nxt:
            return
        self._emit_data(seq, length, retransmit=True)

    def _sack_retransmit(self) -> None:
        """Simplified RFC 3517 pipe check: fill holes while pipe < cwnd."""
        pipe = self.flight_size - self._sacked_bytes()
        while pipe + self.options.mss <= self.reno.cwnd:
            hole = self._first_hole()
            if hole is None:
                break
            seq, length = hole
            if length <= 0 or seq >= self.snd_nxt:
                break
            # Avoid re-retransmitting the same hole within one RTT: mark
            # it "sacked" locally so the scan advances; a timeout clears
            # the scoreboard if this was optimistic.
            self._emit_data(seq, length, retransmit=True)
            self._merge_sack(((seq, seq + length),))
            pipe += length

    # ------------------------------------------------------------------
    # Sender: retransmission timer
    # ------------------------------------------------------------------
    def _arm_rto(self, restart: bool = False) -> None:
        if restart or self._rto.deadline is None:
            self._rto.arm(self.sim.now + self.rtt.rto)

    def _cancel_rto(self) -> None:
        # Nothing left to time (handshake done, or every byte acked):
        # rare, so the entry goes rather than firing as a no-op later.
        self._rto.cancel()

    def _on_rto(self) -> None:
        if self.state == "syn_sent":
            self.rtt.backoff()
            self._send_syn()
            return
        if self.all_acked and self.flight_size == 0:
            return
        self.stats.timeouts += 1
        self.reno.on_timeout(self.flight_size)
        self.rtt.backoff()
        self.dup_acks = 0
        self._rtt_probe = None
        # Clear the scoreboard (RFC 3517 allows it, and our local
        # hole-marking in _sack_retransmit requires it for liveness).
        self._sacked = []
        # Go-back-N: roll snd_nxt back and resend from the ACK point.
        self.snd_nxt = self.snd_una
        self._arm_rto(restart=True)
        self._try_send()

    # ------------------------------------------------------------------
    # Receiver
    # ------------------------------------------------------------------
    def _process_data(self, seg: Segment) -> None:
        before = self.reasm.rcv_nxt
        self.reasm.add(seg.seq, seg.length)
        delivered = self.reasm.rcv_nxt - before
        if delivered > 0:
            if self.options.autotune_buffers:
                self._autotune(delivered)
            if self.on_deliver is not None:
                self.on_deliver(delivered)

        out_of_order = seg.seq != before or self.reasm.ooo_bytes > 0
        if out_of_order or not self.options.delayed_ack:
            self._send_ack()
            return
        self._unacked_segments += 1
        if self._unacked_segments >= 2:
            self._send_ack()
        elif self._delack.deadline is None:
            self._delack.arm(self.sim.now + self.options.delayed_ack_timeout)

    def _on_delack(self) -> None:
        if self._unacked_segments > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        self._unacked_segments = 0
        self._delack.disarm()
        blocks = self.reasm.sack_blocks() if self.eff_sack else ()
        seg = Segment(
            seq=self.snd_nxt,
            length=0,
            ack=self.reasm.rcv_nxt,
            wnd=self._advertised_window(),
            sack_blocks=blocks,
        )
        self._transmit(seg, 0)
        self.stats.acks_sent += 1


class TcpListener:
    """Accepts incoming connections on one port.

    Dispatches segments to per-peer server connections; new SYNs spawn
    a :class:`TcpConnection` configured with this listener's options.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        port: int,
        options: Optional[TcpOptions] = None,
        on_connection: Optional[Callable[[TcpConnection], None]] = None,
    ):
        self.sim = sim
        self.host = host
        self.port = port
        self.options = options if options is not None else TcpOptions()
        self.on_connection = on_connection
        self.connections: dict[tuple[str, int], TcpConnection] = {}
        host.bind_handler("tcp", port, self._on_frame)

    def _on_frame(self, frame) -> None:
        key = (frame.src.host, frame.src.port)
        conn = self.connections.get(key)
        if conn is None:
            if not (frame.payload.syn and not frame.payload.is_ack):
                return  # stray non-SYN segment for an unknown peer
            conn = TcpConnection(
                self.sim,
                self.host,
                self.port,
                peer=Address(*key),
                options=self.options,
                is_server=True,
                owns_port=False,
            )
            self.connections[key] = conn
            if self.on_connection is not None:
                self.on_connection(conn)
        conn._on_segment(frame.payload)

    def close(self) -> None:
        for conn in self.connections.values():
            conn.close()
        self.host.unbind_handler("tcp", self.port)
