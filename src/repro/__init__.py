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

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".core.manifest": ["ChunkManifest", "VerifyStats"],
    ".core.config": ["FobsConfig"],
    ".core.receiver": ["FobsReceiver"],
    ".core.sender": ["FobsSender"],
    ".core.session": ["FobsTransfer", "TransferStats", "run_fobs_transfer"],
    ".core.bitmap": ["PacketBitmap"],
    ".simnet.monitor": ["Monitor"],
    ".simnet.topology": [
        "Network", "contended_path", "gigabit_path", "long_haul", "short_haul"],
    ".simnet.engine": ["Simulator"],
    ".simnet.trace": ["Tracer"],
    ".tcp.options": ["TcpOptions"],
    ".tcp.bulk": ["run_bulk_transfer"],
    ".psockets.probe": ["probe_optimal_sockets"],
    ".psockets.striping": ["run_striped_transfer"],
    ".server.daemon": ["ObjectServer", "serve_root"],
    ".server.sim": ["SimTransferSpec", "run_sim_server"],
    ".server.client": ["fetch_file"],
    ".dataset.journal": ["DatasetJournal"],
    ".dataset.manifest": ["DatasetManifest", "FileEntry", "scan_tree"],
    ".dataset.sync": ["DatasetSyncResult", "sync_tree"],
    ".dataset.packing": ["PackingConfig", "TransferPlan", "plan_objects"],
    ".dataset.scheduler": ["SchedulerConfig", "schedule"],
    ".telemetry.events": [
        "EV_ACK_PROCESSED", "EV_ADMISSION", "EV_BATCH_SENT", "EV_BITMAP_DELTA",
        "EV_CHUNK_DONE", "EV_CHUNK_SCHEDULED", "EV_CORRUPTION",
        "EV_DATASET_PACK", "EV_DATASET_RESUME", "EV_DATASET_UNPACK", "EV_META",
        "EV_REPAIR", "EV_RESUME_EPOCH", "EV_RETRANSMIT_ROUND", "EV_SAMPLE",
        "EV_SNAPSHOT", "EV_STALL", "EV_STORAGE_FAULT", "EV_TRACE",
        "EV_TRANSFER_END", "EV_TRANSFER_START", "EV_TUNE_DECISION",
        "EV_TUNE_EPOCH", "EV_VERIFY", "EVENT_KINDS", "EVENT_SCHEMA_VERSION",
        "Event", "read_events"],
    ".telemetry.bus": [
        "EventBus", "JsonlSink", "RingBufferSink", "SnapshotSink",
        "TelemetryChannel"],
    ".telemetry.metrics": ["MetricsRegistry"],
})

__version__ = "2.0.0"
__all__ += ["__version__"]
