"""repro.telemetry — unified metrics, event and timeline observability.

One subsystem shared by all three backends (the DES, the in-process
loopback runtime and the real-socket server):

* :class:`MetricsRegistry` — counters, gauges and log-scale histograms
  (p50/p95/p99), labeled per transfer/session, no-op when disabled;
* :class:`EventBus` — typed protocol events
  (:data:`~repro.telemetry.events.EVENT_KINDS`) fanned out to
  pluggable sinks: :class:`RingBufferSink` (in-memory),
  :class:`JsonlSink` (the recording format) and :class:`SnapshotSink`
  (periodic operational reports on stderr);
* the timeline reconstructor lives in :mod:`repro.analysis.timeline`
  and replays a JSONL recording back into per-transfer phase
  timelines, goodput curves and loss attribution.

Instrumented hot paths hold a :class:`TelemetryChannel` (default
:data:`NULL_CHANNEL`, disabled) and guard every emission on
``channel.enabled`` — with telemetry off the cost is one attribute
load and a branch per *batch*, never per packet.

Quickstart::

    from repro.telemetry import EventBus, JsonlSink

    bus = EventBus(sinks=[JsonlSink("run.jsonl")])
    stats = repro.FobsTransfer(net, 40_000_000, telemetry=bus).run()
    bus.close()
    # later: repro timeline run.jsonl
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".bus": [
        "NULL_CHANNEL", "EventBus", "JsonlSink", "RingBufferSink",
        "SnapshotSink", "TelemetryChannel"],
    ".events": [
        "EV_ACK_PROCESSED", "EV_ADMISSION", "EV_BATCH_SENT", "EV_BITMAP_DELTA",
        "EV_CHUNK_DONE", "EV_CHUNK_SCHEDULED", "EV_CORRUPTION",
        "EV_DATASET_PACK", "EV_DATASET_RESUME", "EV_DATASET_UNPACK", "EV_META",
        "EV_REPAIR", "EV_RESUME_EPOCH", "EV_RETRANSMIT_ROUND", "EV_SAMPLE",
        "EV_SNAPSHOT", "EV_STALL", "EV_STORAGE_FAULT", "EV_TRACE",
        "EV_TRANSFER_END", "EV_TRANSFER_START", "EV_TUNE_DECISION",
        "EV_TUNE_EPOCH", "EV_VERIFY", "EVENT_KINDS", "EVENT_SCHEMA_VERSION",
        "SAMPLED_KINDS", "Event", "meta_event", "read_events"],
    ".metrics": ["Counter", "Gauge", "Histogram", "MetricsRegistry"],
})
