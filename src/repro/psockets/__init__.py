"""PSockets baseline: application-level striping over parallel TCP.

PSockets (Sivakumar, Bailey & Grossman, SC2000) divides a data flow
across N TCP sockets, chosen experimentally, to (a) aggregate per-socket
window limits and (b) decorrelate congestion-control blocking across
streams.  Section 6 of the FOBS paper compares against it on the
contended NCSA ↔ CACR path (Table 2).
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".striping": ["StripedResult", "run_striped_transfer"],
    ".probe": ["ProbeResult", "probe_optimal_sockets"],
})
