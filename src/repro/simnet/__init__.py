"""Deterministic discrete-event network simulation substrate.

This package provides the network testbed substitute used throughout the
reproduction: an event-driven simulator (:mod:`~repro.simnet.engine`),
links with bandwidth/propagation-delay/queueing (:mod:`~repro.simnet.link`),
hosts and routers with an endpoint CPU-cost model (:mod:`~repro.simnet.node`),
UDP/raw socket APIs (:mod:`~repro.simnet.sockets`), cross-traffic
generators (:mod:`~repro.simnet.cross_traffic`) and the topology presets
matching the paper's Abilene paths (:mod:`~repro.simnet.topology`).
"""

from repro.simnet.engine import Simulator, EventHandle
from repro.simnet.rng import RngStreams
from repro.simnet.packet import Frame, Address, UDP_HEADER_BYTES, TCP_HEADER_BYTES
from repro.simnet.queues import DropTailQueue, REDQueue, QueueStats
from repro.simnet.link import Link, DelayLink, LinkStats
from repro.simnet.node import EndpointProfile, Host, HostCPU, Router
from repro.simnet.sockets import UdpSocket, RawConduit
from repro.simnet.cross_traffic import PoissonTraffic, OnOffTraffic, TrafficSink
from repro.simnet.topology import (
    GIGE_PROFILE,
    SGI_PROFILE,
    HopSpec,
    MBPS,
    GBPS,
    Network,
    OC12_BPS,
    PathSpec,
    PC_PROFILE,
    build_path,
    contended_path,
    gigabit_path,
    long_haul,
    satellite_path,
    short_haul,
)
from repro.simnet.faults import (
    FaultInjector,
    FaultSchedule,
    FaultStats,
    GilbertElliott,
    KillSwitch,
    LinkFlap,
    ack_channel_blackhole,
    blackhole_window,
    burst_loss,
    chain_link_names,
    fault_stats_total,
    install_faults,
)
from repro.simnet.trace import Tracer, TraceRecord
from repro.simnet.monitor import Monitor, Series
from repro.simnet.process import Event, Process

__all__ = [
    "Simulator",
    "EventHandle",
    "RngStreams",
    "Frame",
    "Address",
    "UDP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "DropTailQueue",
    "REDQueue",
    "QueueStats",
    "Link",
    "DelayLink",
    "LinkStats",
    "EndpointProfile",
    "Host",
    "Router",
    "HostCPU",
    "UdpSocket",
    "RawConduit",
    "PoissonTraffic",
    "OnOffTraffic",
    "TrafficSink",
    "Network",
    "PathSpec",
    "HopSpec",
    "MBPS",
    "GBPS",
    "OC12_BPS",
    "PC_PROFILE",
    "GIGE_PROFILE",
    "SGI_PROFILE",
    "build_path",
    "short_haul",
    "long_haul",
    "gigabit_path",
    "contended_path",
    "satellite_path",
    "FaultSchedule",
    "FaultInjector",
    "KillSwitch",
    "FaultStats",
    "GilbertElliott",
    "LinkFlap",
    "install_faults",
    "chain_link_names",
    "fault_stats_total",
    "blackhole_window",
    "ack_channel_blackhole",
    "burst_loss",
    "Tracer",
    "TraceRecord",
    "Monitor",
    "Series",
    "Process",
    "Event",
]
