"""Generic parameter sweeps over the simulated testbed.

The figure experiments are hand-rolled sweeps; this module provides the
general tool — sweep any FOBS/TCP knob over any path preset and get a
rendered series back.  Exposed on the CLI as ``repro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from repro.analysis.report import render_series, render_table
from repro.core import FobsConfig, run_fobs_transfer
from repro.simnet import topology
from repro.simnet.topology import Network
from repro.tcp import TcpOptions, run_bulk_transfer

#: path presets addressable by name in sweeps and on the CLI.
PATHS: dict[str, Callable[..., Network]] = {
    "short_haul": topology.short_haul,
    "long_haul": topology.long_haul,
    "gigabit": topology.gigabit_path,
    "contended": topology.contended_path,
    "satellite": topology.satellite_path,
}

#: FOBS parameters that may be swept (name -> value parser).
FOBS_PARAMS: dict[str, Callable[[str], object]] = {
    "ack_frequency": int,
    "batch_size": int,
    "packet_size": int,
    "recv_buffer": int,
    "send_rate_bps": float,
    "scheduler": str,
    "congestion_mode": str,
}

#: TCP parameters that may be swept.
TCP_PARAMS: dict[str, Callable[[str], object]] = {
    "recv_buffer": int,
    "mss": int,
    "window_scaling": lambda s: s.lower() in ("1", "true", "yes"),
    "sack": lambda s: s.lower() in ("1", "true", "yes"),
    "congestion_control": str,
    "autotune_buffers": lambda s: s.lower() in ("1", "true", "yes"),
}


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample."""

    value: object
    percent_of_bottleneck: float
    duration: float
    extra: float  # waste for FOBS, retransmitted segments for TCP


@dataclass
class SweepResult:
    """All samples of one sweep, with rendering."""

    protocol: str
    path: str
    parameter: str
    nbytes: int
    points: list[SweepPoint]

    def render(self) -> str:
        table = render_table(
            (self.parameter, "% of max bandwidth", "duration",
             "waste%" if self.protocol == "fobs" else "rexmt"),
            [
                (
                    p.value,
                    f"{p.percent_of_bottleneck:.1f}%",
                    f"{p.duration:.2f}s",
                    f"{p.extra:.1f}",
                )
                for p in self.points
            ],
            title=(f"{self.protocol} on {self.path}: sweep of "
                   f"{self.parameter} ({self.nbytes / 1e6:.0f} MB)"),
        )
        series = render_series(
            "% of max bandwidth",
            self.parameter,
            "%",
            [(p.value, p.percent_of_bottleneck) for p in self.points],
            ymax=100.0,
        )
        return f"{table}\n\n{series}"


def sweep_fobs(
    path: str,
    parameter: str,
    values: Sequence[object],
    nbytes: int = 10_000_000,
    seed: int = 0,
    base_config: Optional[FobsConfig] = None,
    time_limit: float = 600.0,
) -> SweepResult:
    """Sweep one :class:`FobsConfig` field over a path preset."""
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; choose from {sorted(PATHS)}")
    if parameter not in FOBS_PARAMS:
        raise ValueError(
            f"unknown FOBS parameter {parameter!r}; choose from {sorted(FOBS_PARAMS)}")
    base = base_config if base_config is not None else FobsConfig()
    points = []
    for value in values:
        config = replace(base, **{parameter: value})
        net = PATHS[path](seed=seed)
        stats = run_fobs_transfer(net, nbytes, config, time_limit=time_limit)
        points.append(SweepPoint(
            value=value,
            percent_of_bottleneck=stats.percent_of_bottleneck,
            duration=stats.duration,
            extra=100 * stats.wasted_fraction,
        ))
    return SweepResult("fobs", path, parameter, nbytes, points)


def sweep_tcp(
    path: str,
    parameter: str,
    values: Sequence[object],
    nbytes: int = 10_000_000,
    seed: int = 0,
    base_options: Optional[TcpOptions] = None,
    time_limit: float = 600.0,
) -> SweepResult:
    """Sweep one :class:`TcpOptions` field over a path preset.

    Both endpoints get the swept options (the common case; asymmetric
    configurations are a two-line custom script).
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}; choose from {sorted(PATHS)}")
    if parameter not in TCP_PARAMS:
        raise ValueError(
            f"unknown TCP parameter {parameter!r}; choose from {sorted(TCP_PARAMS)}")
    base = base_options if base_options is not None else TcpOptions()
    points = []
    for value in values:
        opts = replace(base, **{parameter: value})
        net = PATHS[path](seed=seed)
        res = run_bulk_transfer(net, nbytes, sender_options=opts,
                                receiver_options=opts, time_limit=time_limit)
        points.append(SweepPoint(
            value=value,
            percent_of_bottleneck=res.percent_of_bottleneck,
            duration=res.duration,
            extra=float(res.sender_stats.retransmitted_segments),
        ))
    return SweepResult("tcp", path, parameter, nbytes, points)


def parse_values(protocol: str, parameter: str, raw: str) -> list[object]:
    """Parse a comma-separated CLI value list with the param's type.

    Each value is also checked by building the config it will sweep,
    so a bad one is refused here, before any point has run.
    """
    table = FOBS_PARAMS if protocol == "fobs" else TCP_PARAMS
    if parameter not in table:
        raise ValueError(f"unknown parameter {parameter!r} for {protocol}; "
                         f"choose from {sorted(table)}")
    base = FobsConfig() if protocol == "fobs" else TcpOptions()
    values = []
    for text in filter(None, (v.strip() for v in raw.split(","))):
        try:
            value = table[parameter](text)
            replace(base, **{parameter: value})
        except ValueError as exc:
            raise ValueError(f"bad {parameter} value {text!r}: {exc}") from None
        values.append(value)
    return values
