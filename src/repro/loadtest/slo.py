"""SLO reports computed from recorded telemetry events.

The fleet harness never reaches into simulator internals for its
numbers: everything in the report is derived from the
:mod:`repro.telemetry` event stream the run recorded — the same stream
``--telemetry-out`` persists and ``repro timeline`` replays.  That
keeps the SLO pipeline honest (any consumer of a recorded log can
recompute it) and exercises the production observability path at
population scale.

Quantiles come from :class:`~repro.telemetry.metrics.MetricsRegistry`
log-scale histograms (within one geometric bin of exact — pinned by
``tests/test_metrics_quantiles.py``), fairness from
:func:`repro.analysis.metrics.jain_index`.

Report schema (``slo_schema`` = 1): a plain JSON-serializable dict;
:func:`render_slo_report` produces the canonical byte-stable rendering
(sorted keys, rounded floats) the determinism acceptance test pins.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.analysis.metrics import jain_index
from repro.telemetry import (
    EV_ADMISSION,
    EV_SNAPSHOT,
    EV_TRANSFER_END,
    EV_TRANSFER_START,
    Event,
    MetricsRegistry,
)

#: Bumped when report keys change incompatibly.
SLO_SCHEMA_VERSION = 1


def _round(value, digits: int = 6):
    """Recursively round floats so renderings stay readable and stable."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {k: _round(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, digits) for v in value]
    return value


class _TransferLedger:
    """Everything the event stream says about one transfer id."""

    __slots__ = ("klass", "client", "first_seen", "queued_at", "admitted_at",
                 "final_action", "attempts", "requeues", "nbytes",
                 "completed", "failed", "timed_out", "start_time",
                 "end_time", "wasted_fraction", "resumed_packets",
                 "duration")

    def __init__(self):
        self.klass = ""
        self.client = ""
        self.first_seen: Optional[float] = None
        self.queued_at: Optional[float] = None
        self.admitted_at: Optional[float] = None
        self.final_action = ""
        self.attempts = 0
        self.requeues = 0
        self.nbytes = 0
        self.completed = False
        self.failed = False
        self.timed_out = False
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.wasted_fraction = 0.0
        self.resumed_packets = 0
        self.duration = 0.0

    @property
    def goodput_bps(self) -> float:
        """Client-perceived goodput: object bits over the wall time
        from first arrival to final completion — queue waits, crashed
        attempts, and retries all count against it."""
        origin = self.first_seen
        if origin is None:
            origin = self.start_time if self.start_time is not None else 0.0
        if self.end_time is None:
            return 0.0
        return self.nbytes * 8.0 / max(self.end_time - origin, 1e-9)


def compute_slo_report(
    events: Iterable[Event],
    scenario: str = "",
    seed: int = 0,
    extra: Optional[dict] = None,
) -> dict:
    """Fold a telemetry event stream into one SLO report dict."""
    ledgers: dict[int, _TransferLedger] = {}
    registry = MetricsRegistry()
    wait_hist = registry.histogram("queue_wait_seconds")
    duration_hist = registry.histogram("transfer_duration_seconds")
    daemon: dict[str, object] = {}
    last_time = 0.0
    n_events = 0

    def ledger(tid: int) -> _TransferLedger:
        entry = ledgers.get(tid)
        if entry is None:
            entry = ledgers[tid] = _TransferLedger()
        return entry

    for event in events:
        n_events += 1
        last_time = max(last_time, event.time)
        if event.kind == EV_ADMISSION:
            entry = ledger(event.transfer_id)
            if entry.first_seen is None:
                entry.first_seen = event.time
            entry.klass = str(event.fields.get("klass", entry.klass))
            entry.client = str(event.fields.get("client", entry.client))
            action = str(event.fields.get("action", ""))
            if action == "queue" and entry.queued_at is None:
                entry.queued_at = event.time
            elif action == "admit":
                entry.admitted_at = event.time
            elif action == "requeue":
                entry.requeues += 1
            if action in ("admit", "queue", "reject"):
                entry.final_action = action
        elif event.kind == EV_TRANSFER_START:
            entry = ledger(event.transfer_id)
            entry.attempts += 1
            entry.nbytes = int(event.fields.get("nbytes", entry.nbytes))
            if entry.start_time is None:
                entry.start_time = event.time
        elif event.kind == EV_TRANSFER_END:
            entry = ledger(event.transfer_id)
            entry.completed = bool(event.fields.get("completed"))
            entry.failed = bool(event.fields.get("failed"))
            entry.timed_out = bool(event.fields.get("timed_out"))
            entry.end_time = event.time
            entry.wasted_fraction = float(
                event.fields.get("wasted_fraction", 0.0))
            entry.duration = float(event.fields.get("duration", 0.0))
            entry.resumed_packets += int(
                event.fields.get("resumed_packets", 0))
        elif event.kind == EV_SNAPSHOT:
            state = event.fields.get("daemon")
            if state == "down":
                daemon["killed_at"] = event.time
                daemon["active_at_kill"] = event.fields.get("active", 0)
                daemon["queued_at_kill"] = event.fields.get("queued", 0)
            elif state == "up":
                daemon["restarted_at"] = event.time
                daemon["storm_size"] = event.fields.get("storm", 0)
            elif state == "recovered":
                daemon["recovered_at"] = event.time
                daemon["recovery_s"] = event.fields.get("recovery_s", 0.0)

    # ------------------------------------------------------------------
    offered = len(ledgers)
    admitted = sum(1 for e in ledgers.values() if e.admitted_at is not None)
    queued = sum(1 for e in ledgers.values() if e.queued_at is not None)
    rejected = sum(1 for e in ledgers.values() if e.final_action == "reject")
    requeues = sum(e.requeues for e in ledgers.values())

    waits = []
    for entry in ledgers.values():
        if entry.admitted_at is not None and entry.first_seen is not None:
            wait = entry.admitted_at - entry.first_seen
            if wait > 0.0:
                waits.append(wait)
                wait_hist.observe(wait)

    finished = [e for e in ledgers.values() if e.completed]
    for entry in finished:
        duration_hist.observe(entry.duration)
    failed = sum(1 for e in ledgers.values() if e.failed)
    timed_out = sum(1 for e in ledgers.values() if e.timed_out)
    attempts = sum(e.attempts for e in ledgers.values())
    resumed_packets = sum(e.resumed_packets for e in ledgers.values())

    bytes_delivered = sum(e.nbytes for e in finished)
    aggregate_mbps = (bytes_delivered * 8.0 / last_time / 1e6
                      if last_time > 0 else 0.0)

    # Per-class rollups (sorted for stable rendering).
    classes = sorted({e.klass for e in ledgers.values() if e.klass})
    per_class: dict[str, dict] = {}
    class_means: list[float] = []
    for name in classes:
        members = [e for e in ledgers.values() if e.klass == name]
        done = [e for e in members if e.completed]
        goodput_hist = registry.histogram("goodput_mbps", klass=name)
        for e in done:
            goodput_hist.observe(e.goodput_bps / 1e6)
        mean_mbps = (sum(e.goodput_bps for e in done)
                     / len(done) / 1e6 if done else 0.0)
        if done:
            class_means.append(mean_mbps)
        per_class[name] = {
            "offered": len(members),
            "completed": len(done),
            "rejected": sum(1 for e in members
                            if e.final_action == "reject"),
            "bytes_delivered": sum(e.nbytes for e in done),
            "goodput_mean_mbps": mean_mbps,
            "goodput_p50_mbps": goodput_hist.p50,
            "waste_mean": (sum(e.wasted_fraction for e in done)
                           / len(done) if done else 0.0),
        }

    throughputs = [e.goodput_bps for e in finished]
    fairness = {
        "jain_transfers": jain_index(throughputs) if throughputs else None,
        "jain_class_means": (jain_index(class_means)
                             if class_means else None),
    }

    resume_storm = None
    if daemon:
        resume_storm = dict(daemon)
        resume_storm["resumed_packets"] = resumed_packets

    report = {
        "slo_schema": SLO_SCHEMA_VERSION,
        "scenario": scenario,
        "seed": seed,
        "offered": offered,
        "admission": {
            "admitted": admitted,
            "queued": queued,
            "rejected": rejected,
            "requeues": requeues,
            "reject_rate": rejected / offered if offered else 0.0,
            "requeue_rate": requeues / offered if offered else 0.0,
        },
        "queue_wait_s": {
            "share_queued": len(waits) / offered if offered else 0.0,
            "p50": wait_hist.p50,
            "p99": wait_hist.p99,
            "mean": wait_hist.mean,
            "max": wait_hist.max if wait_hist.max is not None else 0.0,
        },
        "transfers": {
            "completed": len(finished),
            "failed": failed,
            "timed_out": timed_out,
            "attempts": attempts,
            "duration_p50_s": duration_hist.p50,
            "duration_p99_s": duration_hist.p99,
        },
        "goodput": {
            "aggregate_mbps": aggregate_mbps,
            "bytes_delivered": bytes_delivered,
            "per_class": per_class,
        },
        "fairness": fairness,
        "resume_storm": resume_storm,
        "sim": {"duration_s": last_time, "events": n_events},
    }
    if extra:
        report.update(extra)
    return report


def render_slo_report(report: dict) -> str:
    """Canonical byte-stable JSON rendering of one report."""
    return json.dumps(_round(report), sort_keys=True, indent=2)
