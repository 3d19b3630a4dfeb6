"""Experiment harness: metrics, per-figure/table experiment runners,
and plain-text report rendering (``repro run`` / ``repro sweep``)."""

from repro.analysis.metrics import (
    jain_index,
    mean,
    percent_of_bandwidth,
    stddev,
    wasted_resources,
)
from repro.analysis.report import render_series, render_table
from repro.analysis.diagnostics import (
    LossBreakdown,
    RecoveryReport,
    TraceSummary,
    loss_breakdown,
    recovery_report,
    trace_summary,
)
from repro.analysis.timeline import (
    PhaseSpan,
    TransferTimeline,
    reconstruct,
    render_timelines,
)
from repro.analysis.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    ack_frequency_sweep,
    figure1,
    figure2,
    figure3,
    table1,
    table2,
    ablation_batch_size,
    ablation_selection_policy,
    ablation_congestion_modes,
    ablation_autotune,
    satellite_scenario,
)

__all__ = [
    "jain_index",
    "mean",
    "stddev",
    "percent_of_bandwidth",
    "wasted_resources",
    "render_table",
    "render_series",
    "LossBreakdown",
    "loss_breakdown",
    "RecoveryReport",
    "recovery_report",
    "TraceSummary",
    "trace_summary",
    "PhaseSpan",
    "TransferTimeline",
    "reconstruct",
    "render_timelines",
    "EXPERIMENTS",
    "ExperimentResult",
    "ack_frequency_sweep",
    "figure1",
    "figure2",
    "figure3",
    "table1",
    "table2",
    "ablation_batch_size",
    "ablation_selection_policy",
    "ablation_congestion_modes",
    "ablation_autotune",
    "satellite_scenario",
]
