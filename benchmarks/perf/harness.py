"""Shared plumbing of the perf benchmark: paths, clocks, statistics.

Importing this module only computes paths; :func:`bootstrap` is what
touches the process (``sys.path``, environment) and is called from the
entry points.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under these two (both are in
#: .gitignore): compiled ``_evloop`` cache, and per-run scratch files.
BUILD_DIR = os.path.join(HERE, "_build")
WORK_ROOT = os.path.join(HERE, "_work")


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``.

    Exits with status 2 when the checkout has no program to measure (a
    directory holding only the benchmark must fail, not fall back to
    whatever ``repro`` happens to be installed).
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perf benchmark: no program to measure: {SRC}/repro is "
              f"missing", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    # The DES accelerator compiles on first import; keep the shared
    # object inside the checkout instead of the system temp directory.
    os.environ.setdefault("REPRO_EVLOOP_CACHE", BUILD_DIR)
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perf benchmark: 'repro' resolved to {repro.__file__}, not "
              f"this checkout", file=sys.stderr)
        raise SystemExit(2)


class WorkDir:
    """A scratch directory that is gone when the ``with`` block ends."""

    def __init__(self, label: str, base: str | None = None):
        base = base if base is not None else WORK_ROOT
        self.path = os.path.join(base, f"{label}-{os.getpid()}")

    def __enter__(self) -> str:
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))  # only when empty
        except OSError:
            pass


# ----------------------------------------------------------------------
# Clocks and process accounting
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    """User+system CPU of this process, all threads (``os.times`` counts
    in 10 ms ticks, a twentieth of a short op)."""
    return time.process_time()


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of another process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b") ", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process in MB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Interpreter speed of the nominal host the time metrics are quoted for,
#: in million loop iterations per second (this host reads 30-35).
REFERENCE_SPIN_MOPS = 30.0


def spin_sample() -> float:
    """Speed of a fixed pure-Python loop, million iterations per second.

    This shared 2-vCPU host slows down in bursts a few seconds long (op
    times of identical code scatter by 11-13 % and are half correlated
    from one second to the next) and, now and then, for minutes.  A few
    10 ms samples of this loop taken right before an op see the burst
    the op is about to run in, which is what lets a run quote each op's
    time for a host of fixed speed.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i
    return 0.3 / (time.perf_counter() - t0)


def calibrate(work_seconds: float) -> list:
    """Spin samples worth about 2 % of ``work_seconds`` (at least three),
    so an op of seconds is calibrated as well as a short one."""
    samples = [spin_sample(), spin_sample(), spin_sample()]
    started = time.perf_counter()
    while time.perf_counter() - started < 0.02 * work_seconds - 0.03:
        samples.append(spin_sample())
    return samples


def host_factor(samples) -> float:
    """Multiply a measured duration by this to quote it for the nominal
    host: > 1 when this host ran the loop faster than nominal.  The loop
    speed is iterations over time summed over the samples, so a burst
    that slowed one sample of three counts for a third."""
    return len(samples) / sum(1.0 / s for s in samples) / REFERENCE_SPIN_MOPS


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def summary(values) -> dict:
    """Median, quartiles, count and the highest percentile that still has
    ten samples beyond it (``p(1 - 10/n)``; absent below 20 samples)."""
    values = sorted(values)
    n = len(values)
    q1, q2, q3 = quartiles(values)
    out = {"n": n, "p50": q2, "q1": q1, "q3": q3,
           "min": values[0], "max": values[-1]}
    if n >= 20:
        out["p_high"] = {"p": round(100.0 * (1 - 10 / n), 2),
                         "value": values[n - 11]}
    return out


# ----------------------------------------------------------------------
# The closed measuring loop
# ----------------------------------------------------------------------
def run_ops(lanes, seconds: float, min_ops: int) -> list:
    """Run ops back to back, one in flight, until ``seconds`` are used.

    ``lanes`` is a list of ``(workload, tracer_or_None)``; ops alternate
    between the lanes (an untraced run has one lane, a traced run pairs
    an untraced lane with a traced one so both see the same host drift).
    Each cycle is ``prepare`` (untimed: make this op's seeded inputs),
    ``run`` (timed: only calls into the program), ``check`` (untimed:
    verify what the program delivered) and ``cleanup``.  A new round
    starts only while half a typical round still fits the budget, so a
    run overshoots ``seconds`` by at most about half a round.  Returns
    one record list per lane, each at least ``min_ops`` long.
    """
    records = [[] for _ in lanes]
    started = time.perf_counter()
    while True:
        for (workload, tracer), done in zip(lanes, records):
            inputs = workload.prepare(len(done))
            # Level the heap between ops: the previous op's garbage must
            # not be collected on this op's clock.
            outputs = None
            gc.collect()
            spins = calibrate(done[-1]["wall_s"] if done else 0.0)
            try:
                if tracer is not None:
                    tracer.install()
                    tracer.op_begin()
                try:
                    cpu0 = workload.cpu_s()
                    t0 = time.perf_counter()
                    outputs = workload.run(inputs)
                    wall = time.perf_counter() - t0
                    cpu = workload.cpu_s() - cpu0
                finally:
                    # Off before check(): only the op itself is traced.
                    if tracer is not None:
                        tracer.op_end()
                        tracer.uninstall()
                record = workload.check(inputs, outputs)
            finally:
                workload.cleanup(inputs)
            record["wall_s"] = wall
            record["cpu_s"] = cpu
            record["spin_mops"] = spins
            done.append(record)
        elapsed = time.perf_counter() - started
        rounds = len(records[0])
        if rounds >= min_ops and elapsed + 0.5 * elapsed / rounds > seconds:
            return records
