"""Simulated links: serialization, propagation, queueing and random loss.

Two flavours:

* :class:`Link` — finite bandwidth: frames serialize one at a time at
  ``bandwidth_bps`` behind a finite egress queue, then propagate for
  ``prop_delay``.  Used for NICs and bottleneck hops.
* :class:`DelayLink` — pure propagation (infinite bandwidth, no queue).
  Used for backbone hops that are never the bottleneck; this keeps the
  event count per packet low (per the HPC guide: compute less).

Random loss (``loss_rate``) models the residual wide-area loss the paper
attributes to transient contention; it is applied at transmit completion
so lost frames still consumed link capacity, as in reality.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.simnet.engine import Simulator
from repro.simnet.packet import Frame
from repro.simnet.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.faults import FaultInjector
    from repro.simnet.node import Node


class _FaultHookMixin:
    """Ingress fault hook and far-end delivery, shared by both flavours.

    ``faults`` is a list of :class:`~repro.simnet.faults.FaultInjector`
    applied in order at :meth:`send` time — before the link serializes,
    queues or randomly drops anything, so injected faults compose with
    the link's own loss model.  Empty (the default, zero-cost) for every
    link built by the topology presets; :func:`repro.simnet.faults.
    install_faults` appends injectors after construction.
    """

    faults: "list[FaultInjector]"
    sim: Simulator
    dst_node: "Optional[Node]"

    def send(self, frame: Frame) -> bool:
        if not self.faults:
            return self._admit(frame)
        emissions: list[tuple[Frame, float]] = [(frame, 0.0)]
        for injector in self.faults:
            nxt: list[tuple[Frame, float]] = []
            for f, delay in emissions:
                for f2, extra in injector.intercept(f, self.sim.now):
                    nxt.append((f2, delay + extra))
            emissions = nxt
        ok = True
        for f, delay in emissions:
            if delay > 0.0:
                self.sim.schedule(delay, self._admit_late, f)
            else:
                ok = self._admit(f) and ok
        # A frame fully consumed by faults was "accepted by the network".
        return ok

    def _admit_late(self, frame: Frame) -> None:
        self._admit(frame)

    def _admit(self, frame: Frame) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def _deliver(self, frame: Frame) -> None:
        frame.hops += 1
        node = self.dst_node
        dst = frame.dst
        # Host.receive, inlined fast path: consecutive frames on a link
        # almost always demux to the same handler (the one-entry memo);
        # anything else -- including non-Host sinks that only provide
        # ``receive`` -- takes the full lookup.
        try:
            hit = (dst.host == node.name and frame.proto == node._memo_proto
                   and dst.port == node._memo_port)
        except AttributeError:
            node.receive(frame)
            return
        if hit:
            node.frames_received += 1
            node._memo_handler(frame)
            return
        node.receive(frame)


@dataclass
class LinkStats:
    """Traffic counters for one unidirectional link."""

    frames_offered: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    frames_lost_random: int = 0
    busy_time: float = 0.0

    def utilization(self, elapsed: float, bandwidth_bps: float) -> float:
        """Fraction of ``elapsed`` the link spent transmitting."""
        del bandwidth_bps  # busy_time already embodies the rate
        return self.busy_time / elapsed if elapsed > 0 else 0.0


class DelayLink(_FaultHookMixin):
    """Propagation-only hop: deliver every frame after ``prop_delay``.

    ``jitter`` adds a uniform random extra delay in ``[0, jitter]`` per
    frame, which *reorders* closely spaced frames — the wide-area
    pathology that provokes TCP duplicate ACKs but that FOBS's
    order-free bitmap shrugs off.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        prop_delay: float,
        loss_rate: float = 0.0,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if prop_delay < 0:
            raise ValueError("prop_delay must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if (loss_rate or jitter) and rng is None:
            raise ValueError("loss_rate/jitter > 0 requires an rng")
        self.sim = sim
        self.name = name
        self.prop_delay = prop_delay
        self.loss_rate = loss_rate
        self.jitter = jitter
        self._rng = rng
        self.dst_node: Optional["Node"] = None
        self.stats = LinkStats()
        self.faults = []
        # Prebound callback: pushing ``self._deliver`` rebinds a method
        # object per event; caching it once keeps the hot push
        # allocation-free beyond the heap tuple itself.
        self._cb_deliver = self._deliver

    def connect(self, dst_node: "Node") -> None:
        self.dst_node = dst_node

    def can_send(self, nbytes: int) -> bool:
        del nbytes
        return True

    def time_until_room(self, nbytes: int) -> float:
        del nbytes
        return 0.0

    def _admit(self, frame: Frame) -> bool:
        if self.dst_node is None:
            raise RuntimeError(f"link {self.name} not connected")
        stats = self.stats
        stats.frames_offered += 1
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes
        if self.loss_rate and self._rng.random() < self.loss_rate:
            stats.frames_lost_random += 1
            return True
        sim = self.sim
        delay = self.prop_delay
        if self.jitter:
            delay += self._rng.random() * self.jitter
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + delay, seq, self._cb_deliver, frame))
        return True


class Link(_FaultHookMixin):
    """Finite-bandwidth hop with an egress queue.

    ``send`` never blocks: if the transmitter is busy the frame goes to
    the queue, and the queue's discipline decides whether it is dropped.
    Senders that want ``select()``-style backpressure (the paper's FOBS
    sender checks for socket-buffer space before each send) should call
    :meth:`can_send` first and retry after :meth:`time_until_room`.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        prop_delay: float,
        queue: DropTailQueue,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if prop_delay < 0:
            raise ValueError("prop_delay must be non-negative")
        if loss_rate and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.prop_delay = prop_delay
        self.queue = queue
        self.loss_rate = loss_rate
        self._rng = rng
        self.dst_node: Optional["Node"] = None
        self._busy = False
        self._busy_since = 0.0
        self._current_tx_end = 0.0
        self.stats = LinkStats()
        self.faults = []
        # Prebound callbacks for the per-frame heap pushes (see
        # DelayLink.__init__).
        self._cb_tx_done = self._tx_done
        self._cb_deliver = self._deliver

    # ------------------------------------------------------------------
    def connect(self, dst_node: "Node") -> None:
        self.dst_node = dst_node

    def tx_time(self, nbytes: int) -> float:
        """Serialization delay for ``nbytes`` on this link."""
        return nbytes * 8.0 / self.bandwidth_bps

    def can_send(self, nbytes: int) -> bool:
        """Would a frame of ``nbytes`` be accepted right now?"""
        if not self._busy:
            return True
        return self.queue.bytes_queued + nbytes <= self.queue.capacity_bytes and (
            self.queue.capacity_frames is None
            or len(self.queue) < self.queue.capacity_frames
        )

    def time_until_room(self, nbytes: int) -> float:
        """Estimated wait until a frame of ``nbytes`` would fit.

        Upper-bound estimate: residual transmission of the in-flight
        frame plus draining enough queued bytes to make room.
        """
        if self.can_send(nbytes):
            return 0.0
        residual = max(0.0, self._current_tx_end - self.sim.now)
        overflow = self.queue.bytes_queued + nbytes - self.queue.capacity_bytes
        return residual + self.tx_time(max(0, overflow))

    # ------------------------------------------------------------------
    def _admit(self, frame: Frame) -> bool:
        """Offer a frame; returns False only if the queue dropped it."""
        if self.dst_node is None:
            raise RuntimeError(f"link {self.name} not connected")
        self.stats.frames_offered += 1
        if self._busy:
            return self.queue.try_enqueue(frame)
        self._start_tx(frame)
        return True

    def _start_tx(self, frame: Frame) -> None:
        self._busy = True
        sim = self.sim
        tx = frame.size_bytes * 8.0 / self.bandwidth_bps
        self._current_tx_end = sim.now + tx
        self.stats.busy_time += tx
        # call_in, inlined (one push per transmitted frame).
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim.now + tx, seq, self._cb_tx_done, frame))

    def _tx_done(self, frame: Frame) -> None:
        stats = self.stats
        sim = self.sim
        now = sim.now
        stats.frames_sent += 1
        stats.bytes_sent += frame.size_bytes
        if self.loss_rate and self._rng.random() < self.loss_rate:
            stats.frames_lost_random += 1
        else:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap,
                     (now + self.prop_delay, seq, self._cb_deliver, frame))
        # DropTailQueue.dequeue, inlined (not overridden by any
        # discipline; RED only specializes admission).
        q = self.queue
        frames = q._frames
        if not frames:
            self._busy = False
            return
        nxt = frames.popleft()
        q._bytes -= nxt.size_bytes
        q.stats.dequeued += 1
        # _start_tx, inlined: the transmitter stays busy and the next
        # queued frame goes straight onto the wire.
        tx = nxt.size_bytes * 8.0 / self.bandwidth_bps
        self._current_tx_end = now + tx
        stats.busy_time += tx
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (now + tx, seq, self._cb_tx_done, nxt))
