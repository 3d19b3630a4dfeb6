"""repro.tuning — online knob tuning for FOBS transfers.

A sans-io :class:`TuningController` (hill-climbing or delay-based
``vegas`` rate search with hysteresis and hard bounds) plus the
:class:`TransferTuner` glue that drives it from live transfer counters
in all three backends.  Every decision is published as telemetry and
replayable from JSONL via :func:`replay_decisions`.
"""

from repro.tuning.controller import Decision, EpochSignals, TuningConfig, TuningController
from repro.tuning.meter import EpochMeter, TransferTuner, make_tuner
from repro.tuning.replay import replay_decisions

__all__ = [
    "TuningConfig",
    "TuningController",
    "EpochSignals",
    "Decision",
    "EpochMeter",
    "TransferTuner",
    "make_tuner",
    "replay_decisions",
]
