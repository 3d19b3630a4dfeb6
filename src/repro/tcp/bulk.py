"""Bulk TCP transfer application: the Table 1 measurement harness.

``run_bulk_transfer`` pushes ``nbytes`` from endpoint A to endpoint B of
a :class:`~repro.simnet.topology.Network` over one TCP connection and
reports the paper's metric — percentage of the path's maximum available
bandwidth — along with loss-recovery statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simnet.engine import Simulator
from repro.simnet.packet import Address
from repro.simnet.topology import Network
from repro.tcp.connection import ConnStats, TcpConnection, TcpListener
from repro.tcp.options import TcpOptions


@dataclass
class BulkResult:
    """Outcome of one bulk TCP transfer."""

    nbytes: int
    duration: float
    throughput_bps: float
    percent_of_bottleneck: float
    completed: bool
    sender_stats: ConnStats
    lwe_negotiated: bool

    def __str__(self) -> str:
        return (
            f"BulkResult({self.nbytes / 1e6:.1f} MB in {self.duration:.2f}s = "
            f"{self.throughput_bps / 1e6:.1f} Mb/s, "
            f"{self.percent_of_bottleneck:.1f}% of bottleneck, "
            f"rexmt={self.sender_stats.retransmitted_segments}, "
            f"timeouts={self.sender_stats.timeouts})"
        )


class DeliveryTarget:
    """Counts the bytes a listener's connections deliver in order.

    The delivery that reaches ``nbytes`` records ``done_at`` and calls
    ``sim.stop()``, so a harness runs with ``stop_on_request=True`` and
    ends after exactly that event, on the compiled loop.  Pass
    :meth:`on_connection` as the listener's ``on_connection``.
    """

    __slots__ = ("sim", "nbytes", "delivered", "done_at")

    def __init__(self, sim: Simulator, nbytes: int):
        self.sim = sim
        self.nbytes = nbytes
        self.delivered = 0
        self.done_at: Optional[float] = None

    def on_connection(self, conn: TcpConnection) -> None:
        conn.on_deliver = self.on_deliver

    def on_deliver(self, n: int) -> None:
        self.delivered += n
        if self.delivered >= self.nbytes and self.done_at is None:
            self.done_at = self.sim.now
            self.sim.stop()


def run_bulk_transfer(
    net: Network,
    nbytes: int,
    sender_options: Optional[TcpOptions] = None,
    receiver_options: Optional[TcpOptions] = None,
    port: int = 5001,
    time_limit: float = 600.0,
) -> BulkResult:
    """Transfer ``nbytes`` from ``net.a`` to ``net.b`` over one TCP flow.

    The simulation runs until the receiver has delivered every byte in
    order (or ``time_limit`` simulated seconds elapse — reported as an
    incomplete transfer rather than an exception, since a stalled run
    is itself a measurement the experiments want to see).
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    sender_options = sender_options if sender_options is not None else TcpOptions()
    receiver_options = receiver_options if receiver_options is not None else TcpOptions()

    sim = net.sim
    target = DeliveryTarget(sim, nbytes)
    listener = TcpListener(sim, net.b, port, options=receiver_options,
                           on_connection=target.on_connection)
    client = TcpConnection(
        sim, net.a, net.a.allocate_port(), peer=Address(net.b.name, port),
        options=sender_options,
    )
    client.on_established = lambda: client.app_write(nbytes)

    start = sim.now
    client.connect()
    sim.run(until=start + time_limit, stop_on_request=True)

    completed = target.done_at is not None
    end = target.done_at if completed else sim.now
    duration = max(end - start, 1e-12)
    throughput = target.delivered * 8.0 / duration
    result = BulkResult(
        nbytes=nbytes,
        duration=duration,
        throughput_bps=throughput,
        percent_of_bottleneck=100.0 * throughput / net.spec.bottleneck_bps,
        completed=completed,
        sender_stats=client.stats,
        lwe_negotiated=client.eff_window_scaling,
    )
    client.close()
    listener.close()
    return result
