"""FOBS — the Fast Object-Based data transfer System (the paper's core).

The protocol logic is *sans-IO*: :class:`~repro.core.sender.FobsSender`
and :class:`~repro.core.receiver.FobsReceiver` are pure state machines
over decoded packets, driven either by the simulated-network session in
:mod:`repro.core.session` or by the real-socket backend in
:mod:`repro.runtime`.
"""

from repro.core.config import FobsConfig
from repro.core.packets import AckPacket, CompletionSignal, DataPacket, ack_wire_bytes
from repro.core.bitmap import PacketBitmap
from repro.core.journal import (
    JournalCorrupt,
    JournalHeader,
    ReceiverJournal,
    ReplayResult,
    replay_journal,
)
from repro.core.manifest import (
    ChunkManifest,
    ManifestCorrupt,
    VerifyStats,
)
from repro.core.scheduling import (
    CircularScheduler,
    RandomScheduler,
    SequentialRestartScheduler,
    make_scheduler,
)
from repro.core.rate import (
    AdaptiveBatchPolicy,
    FixedBatchPolicy,
    make_batch_policy,
    max_min_allocation,
)
from repro.core.sender import FobsSender, SenderStats
from repro.core.receiver import FobsReceiver, ReceiverStats
from repro.core.congestion import (
    BackoffPolicy,
    CongestionSignal,
    GreedyPolicy,
    make_congestion_policy,
)
from repro.core.session import FobsTransfer, TransferStats, run_fobs_transfer

__all__ = [
    "FobsConfig",
    "DataPacket",
    "AckPacket",
    "CompletionSignal",
    "ack_wire_bytes",
    "PacketBitmap",
    "JournalCorrupt",
    "JournalHeader",
    "ReceiverJournal",
    "ReplayResult",
    "replay_journal",
    "ChunkManifest",
    "ManifestCorrupt",
    "VerifyStats",
    "CircularScheduler",
    "SequentialRestartScheduler",
    "RandomScheduler",
    "make_scheduler",
    "FixedBatchPolicy",
    "AdaptiveBatchPolicy",
    "make_batch_policy",
    "max_min_allocation",
    "FobsSender",
    "SenderStats",
    "FobsReceiver",
    "ReceiverStats",
    "GreedyPolicy",
    "BackoffPolicy",
    "CongestionSignal",
    "make_congestion_policy",
    "FobsTransfer",
    "TransferStats",
    "run_fobs_transfer",
]
