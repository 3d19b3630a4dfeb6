#!/usr/bin/env python3
"""Self-test of the benchmark harness (seconds; not a tier-1 test).

    python3 benchmarks/perf/selftest.py

Not collected by pytest (``testpaths = ["tests"]``); run it by hand
after touching anything under ``benchmarks/perf/``.  With tiny objects
and a handful of ops per workload it checks that:

* ``BENCHMARK.json`` says exactly what ``metrics.py`` says, within the
  contract's limits (name/unit alphabets, counts, bounds);
* every workload completes untraced and traced, prints exactly the
  metrics its ``BENCHMARK.json`` tier promises and no unnamed ones, and
  no layer has a negative self time;
* feeding a deliberately corrupted output to the correctness check
  makes ``failed_ops_ratio`` (and ``failed`` / ``correct``) say so;
* no daemon process and no scratch directory survives a run — nor an
  exception raised in the middle of one;
* ``run.py`` exits non-zero, printing no result, where there is no
  program to measure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_benchmark_json() -> None:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        raw = fh.read()
    doc = json.loads(raw)
    check(doc == metrics.benchmark_json(doc["run_seconds"]),
          "BENCHMARK.json matches metrics.py")
    check(len(raw) <= 64 * 1024 and 1 <= doc["run_seconds"] <= 60,
          "BENCHMARK.json size and run_seconds within limits")
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"]]
             + [m["name"] for m in doc["per_layer"]])
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          "names are well-formed and used once")
    check(all(UNIT.match(m["unit"])
              for m in doc["end_to_end"] + doc["per_layer"]),
          "units are well-formed")
    check(2 <= len(doc["workloads"]) <= 8
          and 1 <= len(doc["end_to_end"]) <= 16
          and 1 <= len(doc["per_layer"]) <= 128,
          "workload and metric counts within limits")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in doc["workloads"]), "every why is one short line")
    check(all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
          and any(m["name"] == "setup_s" and m["unit"] == "s"
                  and m["better"] == "lower" for m in doc["end_to_end"]),
          "bounds within (0, 0.25] and setup_s present")
    # Measured on the reference host: a run costs run_seconds plus 2.5 s
    # (untraced) to 6.5 s (traced DES) of start-up, set-up and checks.
    runs = 4 + 22 * len(doc["workloads"])
    check(runs * (doc["run_seconds"] + 8) <= 3420,
          f"{runs} runs of run_seconds + 8 s fit 3420 s")


def leftovers() -> list[str]:
    """Scratch directories and daemons this process tree left behind."""
    found = []
    if os.path.isdir(harness.WORK_ROOT):
        found += os.listdir(harness.WORK_ROOT)
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                argv = fh.read().decode(errors="replace").split("\0")
        except OSError:
            continue  # exited while we looked
        if "serve" in argv and any(harness.HERE in arg for arg in argv):
            found.append(" ".join(argv))
    return found


def check_workload(name: str) -> None:
    import run

    e2e_names = {n for n, _u, _b, _bd in metrics.END_TO_END}
    trace_names = {n for n, _u, _b in metrics.TRACE_LINE}
    ops = 3 if name == "dataset_sync_local" else 2

    plain = run.run_workload(name, seed=1, seconds=0.0, trace=False,
                             out_dir=None, workdir=None, tiny=True,
                             min_ops=ops)
    line = json.loads(run.contract_line(plain))
    check(plain["correct"] and plain["failed"] == 0
          and plain["attempted"] >= ops, f"{name}: untraced ops all correct")
    check(set(line) == {"correct", "attempted", "failed", "metrics"}
          and set(line["metrics"]) == e2e_names,
          f"{name}: --trace 0 line holds exactly the end-to-end metrics")
    check(all(v["value"] > 0 for v in line["metrics"].values()),
          f"{name}: no end-to-end metric is zero")
    promised = {n for n, _u, _b, _bd, on in metrics.WORKLOAD_METRICS
                if name in on and n not in metrics.TRACE_ONLY}
    check(set(plain["workload_metrics"]) == promised,
          f"{name}: prints its workload metrics and no others")

    traced = run.run_workload(name, seed=2, seconds=0.0, trace=True,
                              out_dir=None, workdir=None, tiny=True,
                              min_ops=2 * ops)
    line = json.loads(run.contract_line(traced))
    check(traced["correct"], f"{name}: traced ops all correct")
    check(set(line["metrics"]) == trace_names,
          f"{name}: --trace 1 line holds exactly the per-layer metrics")
    check(set(traced["per_layer"]) <= trace_names,
          f"{name}: no unnamed layer metric")
    check(traced["trace_summary"]["min_self_ns"] >= 0,
          f"{name}: no negative self time")
    check(traced["per_layer"]["trace.overhead_ratio"] > 0,
          f"{name}: trace.overhead_ratio reported")

    bad = run.run_workload(name, seed=3, seconds=0.0, trace=False,
                           out_dir=None, workdir=None, tiny=True,
                           min_ops=ops, corrupt_op=ops - 1)
    check(not bad["correct"] and bad["failed"] >= 1
          and bad["workload_metrics"]["failed_ops_ratio"] > 0,
          f"{name}: a corrupted output fails the correctness check")
    check(not leftovers(), f"{name}: no daemon or scratch directory left")


def check_cleanup_on_exception() -> None:
    import run
    import workloads

    original = workloads.DaemonMixed.check

    def explode(self, inputs, outputs):
        if inputs["fetch_name"].endswith("-1.bin"):  # first timed op
            raise KeyboardInterrupt
        return original(self, inputs, outputs)

    workloads.DaemonMixed.check = explode
    try:
        run.run_workload("daemon_mixed_1k", seed=4, seconds=0.0, trace=False,
                         out_dir=None, workdir=None, tiny=True, min_ops=2)
        check(False, "interrupt propagates out of run_workload")
    except KeyboardInterrupt:
        check(True, "interrupt propagates out of run_workload")
    finally:
        workloads.DaemonMixed.check = original
    check(not leftovers(), "interrupted run leaves no daemon or directory")


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=harness.HERE) as bare:
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        dest = os.path.join(bare, "benchmarks", "perf")
        shutil.copytree(harness.HERE, dest, ignore=shutil.ignore_patterns(
            "_work", "_build", "__pycache__", "results",
            os.path.basename(bare)))
        proc = subprocess.run(
            [sys.executable, "benchmarks/perf/run.py", "--workload",
             "loopback_1k", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "benchmark-only directory: non-zero exit and no result")


def main() -> int:
    harness.bootstrap()
    check_benchmark_json()
    for name in metrics.WORKLOAD_NAMES:
        check_workload(name)
    check_cleanup_on_exception()
    check_fails_without_program()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
