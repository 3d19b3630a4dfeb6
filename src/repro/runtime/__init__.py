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

from repro.runtime.wire import (
    ResumeInfo,
    SessionContext,
    SessionMismatchError,
    StaleEpochError,
    decode_ack,
    decode_completion,
    decode_data,
    decode_data_burst,
    decode_resume,
    encode_ack,
    encode_completion,
    encode_data,
    encode_data_burst,
    encode_resume,
)
from repro.runtime.transfer import LoopbackResult, run_loopback_transfer
from repro.runtime.supervisor import (
    AttemptRecord,
    RetryPolicy,
    SupervisedResult,
    TransferSupervisor,
    run_resumable_fobs_transfer,
    run_resumable_loopback,
)
from repro.runtime.files import FileTransferResult, receive_file, send_file

__all__ = [
    "FileTransferResult",
    "send_file",
    "receive_file",
    "encode_data",
    "decode_data",
    "encode_data_burst",
    "decode_data_burst",
    "encode_ack",
    "decode_ack",
    "encode_completion",
    "decode_completion",
    "encode_resume",
    "decode_resume",
    "ResumeInfo",
    "SessionContext",
    "SessionMismatchError",
    "StaleEpochError",
    "LoopbackResult",
    "run_loopback_transfer",
    "AttemptRecord",
    "RetryPolicy",
    "SupervisedResult",
    "TransferSupervisor",
    "run_resumable_fobs_transfer",
    "run_resumable_loopback",
]
