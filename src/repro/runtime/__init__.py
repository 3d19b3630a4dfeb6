"""Real-socket backend for the sans-IO FOBS core.

Drives :class:`~repro.core.sender.FobsSender` and
:class:`~repro.core.receiver.FobsReceiver` over actual UDP/TCP sockets
(both endpoints on localhost), with the byte-level wire formats in
:mod:`repro.runtime.wire`.  This demonstrates the protocol core is a
real implementation rather than simulator-bound; per the repro scoping
note, Python and loopback mean no line-rate throughput claims are made
from this backend — correctness (checksummed object delivery over a
lossy-capable datagram path) is what it verifies.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".wire": [
        "ResumeInfo", "SessionContext", "SessionMismatchError",
        "StaleEpochError", "decode_ack", "decode_completion", "decode_data",
        "decode_data_burst", "decode_resume", "encode_ack",
        "encode_completion", "encode_data", "encode_data_burst",
        "encode_resume"],
    ".transfer": ["LoopbackResult", "run_loopback_transfer"],
    ".supervisor": [
        "AttemptRecord", "RetryPolicy", "SupervisedResult",
        "TransferSupervisor", "run_resumable_fobs_transfer"],
    ".files": ["FileTransferResult", "receive_file", "send_file"],
})
