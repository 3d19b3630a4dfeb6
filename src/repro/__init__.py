"""repro — a reproduction of "An Evaluation of Object-Based Data
Transfers on High Performance Networks" (Dickens & Gropp, HPDC 2002).

Top-level convenience exports; the full API lives in the subpackages:

* :mod:`repro.core` — FOBS, the paper's protocol;
* :mod:`repro.simnet` — the deterministic network-testbed substitute;
* :mod:`repro.tcp` — TCP Reno/NewReno with LWE (window scaling) & SACK;
* :mod:`repro.psockets` — striped TCP, the paper's Table 2 comparison;
* :mod:`repro.runtime` — real-socket (loopback) backend for the
  sans-IO FOBS core;
* :mod:`repro.server` — the concurrent multi-transfer daemon
  (admission control, shared-socket demux, max-min sharing);
* :mod:`repro.dataset` — manifest-driven whole-tree transfers
  (small-file packing, chunk striping, layout-aware scheduling,
  dataset-level crash resume; ``repro sync``, ``docs/DATASET.md``);
* :mod:`repro.analysis` — per-figure/table experiment harness
  (``repro run`` / ``repro sweep``).

Quickstart::

    import repro

    net = repro.short_haul()
    stats = repro.run_fobs_transfer(net, 40_000_000)
    print(stats)

Observation instruments (:class:`Tracer` per-event protocol traces,
:class:`Monitor` sampled link/queue/probe series) are first-class:
pass ``tracer=`` to :class:`FobsTransfer` or attach a Monitor to any
``Network`` before running.

The telemetry subsystem (:mod:`repro.telemetry`) is shared by all
three backends: attach an :class:`EventBus` (``telemetry=`` on
:class:`FobsTransfer`, :func:`repro.runtime.files.send_file`,
:class:`ObjectServer`, :func:`fetch_file`) with a :class:`JsonlSink`
to record typed protocol events (the ``EV_*`` kind constants), then
replay the log with ``repro timeline`` /
:func:`repro.analysis.timeline.reconstruct`.
"""

from repro.core import (
    ChunkManifest,
    FobsConfig,
    FobsReceiver,
    FobsSender,
    FobsTransfer,
    PacketBitmap,
    TransferStats,
    VerifyStats,
    run_fobs_transfer,
)
from repro.simnet import (
    Monitor,
    Network,
    Simulator,
    Tracer,
    contended_path,
    gigabit_path,
    long_haul,
    short_haul,
)
from repro.tcp import TcpOptions, run_bulk_transfer
from repro.psockets import probe_optimal_sockets, run_striped_transfer
from repro.server import (
    ObjectServer,
    SimTransferSpec,
    fetch_file,
    run_sim_server,
    serve_root,
)
from repro.dataset import (
    DatasetJournal,
    DatasetManifest,
    DatasetSyncResult,
    FileEntry,
    PackingConfig,
    SchedulerConfig,
    TransferPlan,
    plan_objects,
    scan_tree,
    schedule,
    sync_tree,
)
from repro.telemetry import (
    EV_ACK_PROCESSED,
    EV_ADMISSION,
    EV_BATCH_SENT,
    EV_BITMAP_DELTA,
    EV_CHUNK_DONE,
    EV_CHUNK_SCHEDULED,
    EV_CORRUPTION,
    EV_DATASET_PACK,
    EV_DATASET_RESUME,
    EV_DATASET_UNPACK,
    EV_META,
    EV_REPAIR,
    EV_RESUME_EPOCH,
    EV_RETRANSMIT_ROUND,
    EV_SAMPLE,
    EV_SNAPSHOT,
    EV_STALL,
    EV_STORAGE_FAULT,
    EV_TRACE,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    EV_TUNE_DECISION,
    EV_TUNE_EPOCH,
    EV_VERIFY,
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    EventBus,
    JsonlSink,
    MetricsRegistry,
    RingBufferSink,
    SnapshotSink,
    TelemetryChannel,
    read_events,
)

__version__ = "2.0.0"

__all__ = [
    "FobsConfig",
    "FobsSender",
    "FobsReceiver",
    "FobsTransfer",
    "PacketBitmap",
    "TransferStats",
    "run_fobs_transfer",
    "Network",
    "Simulator",
    "Tracer",
    "Monitor",
    "short_haul",
    "long_haul",
    "gigabit_path",
    "contended_path",
    "ObjectServer",
    "SimTransferSpec",
    "fetch_file",
    "run_sim_server",
    "serve_root",
    "TcpOptions",
    "run_bulk_transfer",
    "run_striped_transfer",
    "probe_optimal_sockets",
    "Event",
    "EventBus",
    "TelemetryChannel",
    "RingBufferSink",
    "JsonlSink",
    "SnapshotSink",
    "MetricsRegistry",
    "read_events",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "EV_META",
    "EV_TRANSFER_START",
    "EV_TRANSFER_END",
    "EV_BATCH_SENT",
    "EV_ACK_PROCESSED",
    "EV_BITMAP_DELTA",
    "EV_RETRANSMIT_ROUND",
    "EV_STALL",
    "EV_RESUME_EPOCH",
    "EV_ADMISSION",
    "EV_SNAPSHOT",
    "EV_SAMPLE",
    "EV_TRACE",
    "EV_STORAGE_FAULT",
    "EV_CORRUPTION",
    "EV_REPAIR",
    "EV_VERIFY",
    "EV_DATASET_PACK",
    "EV_DATASET_UNPACK",
    "EV_CHUNK_SCHEDULED",
    "EV_CHUNK_DONE",
    "EV_DATASET_RESUME",
    "EV_TUNE_EPOCH",
    "EV_TUNE_DECISION",
    "ChunkManifest",
    "VerifyStats",
    "DatasetManifest",
    "FileEntry",
    "DatasetJournal",
    "DatasetSyncResult",
    "PackingConfig",
    "SchedulerConfig",
    "TransferPlan",
    "scan_tree",
    "plan_objects",
    "schedule",
    "sync_tree",
    "__version__",
]
