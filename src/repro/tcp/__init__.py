"""User-level TCP implementation over the simulated network.

Implements what Table 1 of the paper contrasts: TCP Reno/NewReno bulk
transfer with and without the RFC 1323 *Large Window Extensions*
(window scaling), plus optional RFC 2018 selective acknowledgements —
the two TCP improvement tracks the paper's related-work section
surveys.

Layering::

    BulkSender / run_bulk_transfer        (tcp.bulk)
        TcpConnection / TcpListener       (tcp.connection)
            RenoController                (tcp.reno)
            RttEstimator                  (tcp.rtt)
            ReassemblyBuffer              (tcp.reassembly)
            Segment wire format           (tcp.segments)
            TcpOptions                    (tcp.options)
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".options": ["TcpOptions"],
    ".rtt": ["RttEstimator"],
    ".reno": ["RenoController"],
    ".highspeed": [
        "HighSpeedController", "hs_alpha", "hs_beta", "make_controller"],
    ".segments": ["Segment", "segment_option_bytes"],
    ".reassembly": ["ReassemblyBuffer"],
    ".connection": ["TcpConnection", "TcpListener", "ConnStats"],
    ".bulk": ["BulkResult", "run_bulk_transfer"],
})
