"""Deterministic discrete-event network simulation substrate.

This package provides the network testbed substitute used throughout the
reproduction: an event-driven simulator (:mod:`~repro.simnet.engine`),
links with bandwidth/propagation-delay/queueing (:mod:`~repro.simnet.link`),
hosts and routers with an endpoint CPU-cost model (:mod:`~repro.simnet.node`),
UDP/raw socket APIs (:mod:`~repro.simnet.sockets`), cross-traffic
generators (:mod:`~repro.simnet.cross_traffic`) and the topology presets
matching the paper's Abilene paths (:mod:`~repro.simnet.topology`).
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".engine": ["Simulator", "EventHandle"],
    ".rng": ["RngStreams"],
    ".packet": ["Frame", "Address", "UDP_HEADER_BYTES", "TCP_HEADER_BYTES"],
    ".queues": ["DropTailQueue", "REDQueue", "QueueStats"],
    ".link": ["Link", "DelayLink", "LinkStats"],
    ".node": ["EndpointProfile", "Host", "HostCPU", "Router"],
    ".sockets": ["UdpSocket", "RawConduit"],
    ".cross_traffic": ["PoissonTraffic", "OnOffTraffic", "TrafficSink"],
    ".topology": [
        "GIGE_PROFILE", "SGI_PROFILE", "HopSpec", "MBPS", "GBPS", "Network",
        "OC12_BPS", "PathSpec", "PC_PROFILE", "build_path", "contended_path",
        "gigabit_path", "long_haul", "satellite_path", "short_haul"],
    ".faults": [
        "FaultInjector", "FaultSchedule", "FaultStats", "GilbertElliott",
        "KillSwitch", "LinkFlap", "ack_channel_blackhole", "blackhole_window",
        "burst_loss", "chain_link_names", "fault_stats_total", "install_faults"],
    ".trace": ["Tracer", "TraceRecord"],
    ".monitor": ["Monitor", "Series"],
    ".process": ["Event", "Process"],
})
