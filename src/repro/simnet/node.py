"""Hosts, routers and the endpoint CPU model.

The endpoint CPU model is central to two of the paper's findings:

* Figure 1's penalty at small acknowledgement frequencies — while the
  receiver is busy building/sending an ACK it is not draining its UDP
  socket buffer, so arriving datagrams overflow and are lost;
* Figure 3's packet-size sweep — per-packet processing cost bounds the
  achievable packet rate, so larger datagrams win on gigabit paths.

:class:`HostCPU` serializes application work on a host: each task runs
for an explicit cost and pushes back every later task, exactly like a
busy single user-level process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.link import DelayLink, Link
from repro.simnet.packet import Frame


@dataclass(frozen=True)
class EndpointProfile:
    """Per-host application processing costs, in seconds (and per byte).

    These model the user-level send/recv path of a 2002-era host:
    syscall + copy costs.  Topology presets attach a calibrated profile
    to each host; protocol drivers consume it.
    """

    #: Fixed cost for the application to hand one datagram to the kernel.
    send_packet_cost: float = 5e-6
    #: Additional per-byte send cost (copy into kernel buffers).
    send_byte_cost: float = 0.0
    #: Fixed cost to pull one datagram out of the socket and place it.
    recv_packet_cost: float = 10e-6
    #: Additional per-byte receive cost.
    recv_byte_cost: float = 2e-9
    #: Fixed cost to construct an acknowledgement packet.
    ack_build_cost: float = 100e-6
    #: Additional per-byte cost of serializing the ACK bitmap.
    ack_byte_cost: float = 8e-9

    def send_cost(self, nbytes: int) -> float:
        return self.send_packet_cost + nbytes * self.send_byte_cost

    def recv_cost(self, nbytes: int) -> float:
        return self.recv_packet_cost + nbytes * self.recv_byte_cost

    def ack_cost(self, bitmap_bytes: int) -> float:
        return self.ack_build_cost + bitmap_bytes * self.ack_byte_cost


class HostCPU:
    """A single serial application processor on a host.

    ``run(cost, fn, *args)`` executes ``fn`` after the CPU has been free
    for ``cost`` seconds of work; work is strictly serialized.  ``idle_at``
    exposes when previously queued work completes, which drivers use to
    schedule their next polling step.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.busy_until = 0.0
        self.total_busy = 0.0

    def run(self, cost: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Queue ``cost`` seconds of work ending with ``fn(*args)``."""
        if cost < 0:
            raise ValueError("cost must be non-negative")
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + cost
        self.total_busy += cost
        return self.sim.schedule_at(self.busy_until, fn, *args)

    @property
    def idle_at(self) -> float:
        """Absolute time at which all queued work completes."""
        return max(self.sim.now, self.busy_until)


class Node:
    """Base class: something that owns outbound links and receives frames."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._routes: dict[str, Link | DelayLink] = {}
        self._default_route: Optional[Link | DelayLink] = None

    def add_route(self, dst_host: str, link: Link | DelayLink) -> None:
        """Static route: frames for ``dst_host`` leave via ``link``."""
        self._routes[dst_host] = link

    def set_default_route(self, link: Link | DelayLink) -> None:
        self._default_route = link

    def route_for(self, frame: Frame) -> Link | DelayLink:
        link = self._routes.get(frame.dst.host, self._default_route)
        if link is None:
            raise RuntimeError(f"{self.name}: no route for {frame.dst.host}")
        return link

    def receive(self, frame: Frame) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class Router(Node):
    """Store-and-forward router with static routes.

    Forwarding is free of CPU cost (backbone routers were never the
    bottleneck in the paper's testbed); congestion effects come from the
    egress link queues.
    """

    def __init__(self, sim: Simulator, name: str):
        super().__init__(sim, name)
        self.frames_forwarded = 0
        self.frames_unroutable = 0

    def receive(self, frame: Frame) -> None:
        # route_for and link.send, in one call per forwarded frame: a
        # link with no faults admits the frame straight away.
        link = self._routes.get(frame.dst.host, self._default_route)
        if link is None:
            self.frames_unroutable += 1
            return
        self.frames_forwarded += 1
        if link.faults:
            link.send(frame)
        else:
            link._admit(frame)


class Host(Node):
    """An end host: demultiplexes frames to bound protocol handlers.

    Handlers are registered per ``(proto, port)``; :class:`UdpSocket`
    and the TCP connection machinery both register through
    :meth:`bind_handler`.  A frame with no handler is counted and
    discarded (the simulated equivalent of an ICMP port-unreachable that
    nobody listens to).
    """

    def __init__(self, sim: Simulator, name: str, profile: Optional[EndpointProfile] = None):
        super().__init__(sim, name)
        self.cpu = HostCPU(sim)
        self.profile = profile if profile is not None else EndpointProfile()
        self._handlers: dict[tuple[str, int], Callable[[Frame], None]] = {}
        self.frames_received = 0
        self.frames_unclaimed = 0
        self._ephemeral_port = 49152
        # One-entry demux memo: almost every frame on a link goes to the
        # same (proto, port), so the common case skips the tuple build
        # and dict lookup.  Invalidated on any handler change.
        self._memo_proto: Optional[str] = None
        self._memo_port = -1
        self._memo_handler: Optional[Callable[[Frame], None]] = None

    # ------------------------------------------------------------------
    def bind_handler(self, proto: str, port: int, handler: Callable[[Frame], None]) -> None:
        key = (proto, port)
        if key in self._handlers:
            raise ValueError(f"{self.name}: {proto} port {port} already bound")
        self._handlers[key] = handler
        self._memo_proto = None

    def unbind_handler(self, proto: str, port: int) -> None:
        self._handlers.pop((proto, port), None)
        self._memo_proto = None

    def allocate_port(self) -> int:
        """Hand out a fresh ephemeral port number."""
        self._ephemeral_port += 1
        return self._ephemeral_port

    # ------------------------------------------------------------------
    def send_frame(self, frame: Frame) -> bool:
        """Route and transmit; False if the egress queue dropped it."""
        return self.route_for(frame).send(frame)

    def can_send(self, frame_bytes: int, dst_host: str) -> bool:
        """select()-style writability check toward ``dst_host``."""
        link = self._routes.get(dst_host, self._default_route)
        if link is None:
            raise RuntimeError(f"{self.name}: no route for {dst_host}")
        return link.can_send(frame_bytes)

    def send_wait_hint(self, frame_bytes: int, dst_host: str) -> float:
        """How long until :meth:`can_send` is expected to succeed."""
        link = self._routes.get(dst_host, self._default_route)
        if link is None:
            raise RuntimeError(f"{self.name}: no route for {dst_host}")
        return link.time_until_room(frame_bytes)

    def receive(self, frame: Frame) -> None:
        dst = frame.dst
        if dst.host != self.name:
            # Host is not a router; misdelivered frames are dropped.
            self.frames_unclaimed += 1
            return
        self.frames_received += 1
        proto = frame.proto
        port = dst.port
        if proto == self._memo_proto and port == self._memo_port:
            self._memo_handler(frame)
            return
        handler = self._handlers.get((proto, port))
        if handler is None:
            self.frames_unclaimed += 1
            return
        self._memo_proto = proto
        self._memo_port = port
        self._memo_handler = handler
        handler(frame)
