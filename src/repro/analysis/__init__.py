"""Experiment harness: metrics, per-figure/table experiment runners,
and plain-text report rendering (``repro run`` / ``repro sweep``)."""

from repro._lazy import exports

__all__, __getattr__, __dir__ = exports(__name__, {
    ".metrics": [
        "jain_index", "mean", "percent_of_bandwidth", "stddev",
        "wasted_resources"],
    ".report": ["render_series", "render_table"],
    ".diagnostics": [
        "LossBreakdown", "RecoveryReport", "TraceSummary", "loss_breakdown",
        "recovery_report", "trace_summary"],
    ".timeline": [
        "PhaseSpan", "TransferTimeline", "reconstruct", "render_timelines"],
    ".experiments": [
        "EXPERIMENTS", "ExperimentResult", "ack_frequency_sweep", "figure1",
        "figure2", "figure3", "table1", "table2", "ablation_batch_size",
        "ablation_selection_policy", "ablation_congestion_modes",
        "ablation_autotune", "satellite_scenario"],
})
