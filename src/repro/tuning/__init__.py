"""repro.tuning — online knob tuning for FOBS transfers.

A sans-io :class:`TuningController` (hill-climbing or delay-based
``vegas`` rate search with hysteresis and hard bounds) plus the
:class:`TransferTuner` glue that drives it from live transfer counters
in all three backends.  Every decision is published as telemetry and
replayable from JSONL via :func:`replay_decisions`.
"""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".controller": [
        "Decision", "EpochSignals", "TuningConfig", "TuningController"],
    ".meter": ["EpochMeter", "TransferTuner", "make_tuner"],
    ".replay": ["replay_decisions"],
})
