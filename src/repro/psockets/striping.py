"""Striped parallel-TCP bulk transfer.

The object is split into N near-equal contiguous stripes, one TCP
connection per stripe, all running concurrently; the transfer completes
when every stripe has been delivered.  Per-stream windows obey the same
LWE negotiation as single-stream TCP, so striping with unscaled 64 KiB
windows aggregates to N x 64 KiB of effective window — the first of the
two PSockets effects the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simnet.packet import Address
from repro.simnet.topology import Network
from repro.tcp.bulk import DeliveryTarget
from repro.tcp.connection import ConnStats, TcpConnection, TcpListener
from repro.tcp.options import TcpOptions


@dataclass
class StripedResult:
    """Outcome of one striped transfer."""

    nsockets: int
    nbytes: int
    duration: float
    throughput_bps: float
    percent_of_bottleneck: float
    completed: bool
    per_stream: list[ConnStats]

    @property
    def total_retransmits(self) -> int:
        return sum(s.retransmitted_segments for s in self.per_stream)

    @property
    def total_timeouts(self) -> int:
        return sum(s.timeouts for s in self.per_stream)

    def __str__(self) -> str:
        return (
            f"StripedResult(n={self.nsockets}, {self.nbytes / 1e6:.1f} MB in "
            f"{self.duration:.2f}s = {self.throughput_bps / 1e6:.1f} Mb/s, "
            f"{self.percent_of_bottleneck:.1f}% of bottleneck)"
        )


def stripe_sizes(nbytes: int, nsockets: int) -> list[int]:
    """Split ``nbytes`` into ``nsockets`` near-equal positive stripes."""
    if nsockets < 1:
        raise ValueError("nsockets must be >= 1")
    if nbytes < nsockets:
        raise ValueError("cannot stripe fewer bytes than sockets")
    base, extra = divmod(nbytes, nsockets)
    return [base + (1 if i < extra else 0) for i in range(nsockets)]


def run_striped_transfer(
    net: Network,
    nbytes: int,
    nsockets: int,
    options: Optional[TcpOptions] = None,
    port: int = 6001,
    time_limit: float = 600.0,
) -> StripedResult:
    """Transfer ``nbytes`` from ``net.a`` to ``net.b`` over N TCP flows."""
    options = options if options is not None else TcpOptions(window_scaling=False)
    sizes = stripe_sizes(nbytes, nsockets)
    sim = net.sim
    target = DeliveryTarget(sim, nbytes)
    listener = TcpListener(
        sim, net.b, port, options=options, on_connection=target.on_connection
    )
    clients: list[TcpConnection] = []
    for size in sizes:
        conn = TcpConnection(
            sim, net.a, net.a.allocate_port(), peer=Address(net.b.name, port),
            options=options,
        )
        # Bind the stripe size at construction; each stream ships its
        # stripe as soon as its handshake completes.
        conn.on_established = (lambda c=conn, s=size: c.app_write(s))
        clients.append(conn)

    start = sim.now
    for conn in clients:
        conn.connect()
    sim.run(until=start + time_limit, stop_on_request=True)

    completed = target.done_at is not None
    end = target.done_at if completed else sim.now
    duration = max(end - start, 1e-12)
    throughput = target.delivered * 8.0 / duration
    result = StripedResult(
        nsockets=nsockets,
        nbytes=nbytes,
        duration=duration,
        throughput_bps=throughput,
        percent_of_bottleneck=100.0 * throughput / net.spec.bottleneck_bps,
        completed=completed,
        per_stream=[c.stats for c in clients],
    )
    for conn in clients:
        conn.close()
    listener.close()
    return result
