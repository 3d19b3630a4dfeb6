"""FOBS — the Fast Object-Based data transfer System (the paper's core).

The protocol logic is *sans-IO*: :class:`~repro.core.sender.FobsSender`
and :class:`~repro.core.receiver.FobsReceiver` are pure state machines
over decoded packets, driven either by the simulated-network session in
:mod:`repro.core.session` or by the real-socket backend in
:mod:`repro.runtime`.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".config": ["FobsConfig"],
    ".packets": [
        "AckPacket", "CompletionSignal", "DataPacket", "ack_wire_bytes"],
    ".bitmap": ["PacketBitmap"],
    ".journal": [
        "JournalCorrupt", "JournalHeader", "ReceiverJournal", "ReplayResult",
        "replay_journal"],
    ".manifest": ["ChunkManifest", "ManifestCorrupt", "VerifyStats"],
    ".scheduling": [
        "CircularScheduler", "RandomScheduler", "SequentialRestartScheduler",
        "make_scheduler"],
    ".rate": [
        "AdaptiveBatchPolicy", "FixedBatchPolicy", "make_batch_policy",
        "max_min_allocation"],
    ".sender": ["FobsSender", "SenderStats"],
    ".receiver": ["FobsReceiver", "ReceiverStats"],
    ".congestion": [
        "BackoffPolicy", "CongestionSignal", "GreedyPolicy",
        "make_congestion_policy"],
    ".session": ["FobsTransfer", "TransferStats", "run_fobs_transfer"],
})
