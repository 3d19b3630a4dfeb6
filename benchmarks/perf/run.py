#!/usr/bin/env python3
"""The FOBS perf benchmark: one entry point, six workloads (four gated).

    python3 benchmarks/perf/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out DIR]
    python3 benchmarks/perf/run.py --all --seed N [--trace 1] [--out DIR]

One workload runs in this (fresh) interpreter; ``--all`` starts one
interpreter per workload.  A run prints every metric by name with its
unit, verifies every delivered byte / simulated outcome, optionally
writes ``<workload>[.trace].json`` (and ``<workload>.spans.jsonl``) to
``--out``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` (default) measures the end-to-end metrics with no wrapper
installed.  ``--trace 1`` takes the isolated layer timings, then spends
the same measuring time alternating untraced ops (counts, and the base
of ``trace.overhead_ratio``) with traced ones.  README.md explains every
name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from statistics import median

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
from metrics import (END_TO_END, E2E_UNITS, TRACE_LINE, TRACE_UNITS,  # noqa: E402
                     WORKLOAD_METRICS, WORKLOAD_NAMES)

#: Set-up is repeated and its median reported, so one slow fork or one
#: cold page cache does not decide ``setup_s``.
SETUP_REPEATS = 3


def _default_seconds() -> int:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return int(json.load(fh)["run_seconds"])


def _primary(records: list) -> list:
    """The ops ``op_s_p50`` / ``goodput_mbps`` describe: fresh ones (a
    killed-and-resumed dataset op is reported as ``resume_s_p50``)."""
    return [r for r in records if r.get("kind", "fresh") == "fresh"]


#: A record's durations (``resume_s`` is None on a fresh dataset op).
TIME_FIELDS = ("wall_s", "cpu_s", "fetch_s", "push_s", "resume_s")
#: Units of the metrics that are quoted for the nominal host; ratios,
#: counts, percentages and memory are always as measured.
QUOTED_UNITS = ("s", "s/GB", "Mb/s", "1/s")


def _quoted(records: list) -> list:
    """The records as the nominal host would have timed them: each op's
    durations times the factor of the spin samples taken right before it."""
    out = []
    for record in records:
        factor = harness.host_factor(record["spin_mops"])
        out.append(dict(record, **{
            key: record[key] * factor for key in TIME_FIELDS
            if record.get(key) is not None}))
    return out


def _end_to_end(workload, records: list, setups: list) -> dict:
    """The contract metrics of ``records`` and ``setups`` (durations),
    with the spread of the per-op ones."""
    primary = _primary(records)
    walls = [r["wall_s"] for r in primary]
    goodputs = [r["payload_bytes"] * 8 / r["wall_s"] / 1e6 for r in primary]
    cpus = [r["cpu_s"] / (r["payload_bytes"] / 1e9) for r in primary]
    stats = {
        "op_s_p50": harness.summary(walls),
        "goodput_mbps": harness.summary(goodputs),
        "cpu_s_per_gb": harness.summary(cpus),
        "setup_s": harness.summary(setups),
    }
    return {"stats": stats, "values": {
        "op_s_p50": stats["op_s_p50"]["p50"],
        "goodput_mbps": stats["goodput_mbps"]["p50"],
        "cpu_s_per_gb": stats["cpu_s_per_gb"]["p50"],
        "peak_rss_mb": workload.peak_rss_mb(),
        "setup_s": stats["setup_s"]["p50"],
    }}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, workload) -> dict:
    """In-situ layer figures from the traced leg's aggregated spans."""
    def count(name, roles=None):
        return tracer.total(name, roles)[0]

    def cpu_self_us(name, roles=None):
        return tracer.total(name, roles)[2] / 1e3

    def cpu_total_s(name):
        return tracer.total(name)[1] / 1e9

    def wall_total_s(name):
        return tracer.total(name)[3] / 1e9

    def per_call(name):
        return _ratio(cpu_self_us(name), count(name))

    def role_sum(prefixes, key):
        return sum(rec[key] for role, rec in tracer.roles.items()
                   if role.startswith(prefixes))

    sendto = count("runtime.socket.sendto")
    recvs = count("runtime.socket.recv_into")
    selects = count("runtime.socket.select")
    # Every datagram sent is a data packet or an ACK.
    packets_out = sendto - count("runtime.wire.encode_ack")
    empty = tracer.error_count("runtime.socket.recv_into",
                               "BlockingIOError", "TimeoutError")
    nbytes = getattr(workload, "nbytes", 0)
    out = {
        "runtime.wire.encode_burst_us_per_pkt": _ratio(
            cpu_self_us("runtime.wire.encode_data_burst"),
            packets_out - count("runtime.wire.encode_data")),
        "runtime.wire.encode_data_us_per_pkt":
            per_call("runtime.wire.encode_data"),
        "runtime.wire.decode_data_us_per_pkt":
            per_call("runtime.wire.decode_data"),
        "runtime.wire.encode_ack_us_per_ack":
            per_call("runtime.wire.encode_ack"),
        "runtime.wire.decode_ack_us_per_ack":
            per_call("runtime.wire.decode_ack"),
        "runtime.socket.sendto_us_per_call":
            per_call("runtime.socket.sendto"),
        "runtime.socket.recv_into_us_per_call":
            per_call("runtime.socket.recv_into"),
        "runtime.socket.select_us_per_call":
            per_call("runtime.socket.select"),
        "runtime.socket.syscalls_per_pkt":
            _ratio(sendto + recvs + selects, packets_out),
        "runtime.socket.recv_empty_ratio": _ratio(empty, recvs),
        "core.sender.next_batch_us_per_pkt":
            _ratio(cpu_self_us("core.sender.next_batch"), packets_out),
        "core.sender.on_ack_us_per_ack": per_call("core.sender.on_ack"),
        "core.receiver.on_data_us_per_pkt": per_call("core.receiver.on_data"),
        "core.receiver.build_ack_us_per_ack":
            per_call("core.receiver.build_ack"),
        "core.journal.record_us_per_pkt": per_call("core.journal.record"),
        "core.journal.flush_us_per_call": per_call("core.journal.flush"),
        "core.manifest.build_mbps": _ratio(
            count("core.manifest.from_data") * nbytes / 1e6,
            cpu_total_s("core.manifest.from_data")),
        "core.manifest.verify_mbps": _ratio(
            (count("core.manifest.verify_blob")
             + count("core.manifest.verify_file")) * nbytes / 1e6,
            cpu_total_s("core.manifest.verify_blob")
            + cpu_total_s("core.manifest.verify_file")),
        # seek + write per placed packet
        "runtime.files.store_write_us_per_pkt": _ratio(
            tracer.total("runtime.files.store_write")[1] / 1e3,
            count("runtime.files.store_write") / 2),
        "server.registry.lookup_us_per_datagram":
            per_call("server.registry.route"),
        "server.allocator.reallocate_us_per_call":
            per_call("server.allocator.reallocate"),
        "server.admission.decide_us_per_request":
            per_call("server.admission.request"),
        "dataset.journal.append_us_per_object":
            per_call("dataset.journal.mark_done"),
    }
    for role, key, per in (
            ("fobs-sender", "runtime.transfer.sender_driver_self_us_per_pkt",
             packets_out),
            ("fobs-receiver",
             "runtime.transfer.receiver_driver_self_us_per_pkt",
             count("runtime.wire.decode_data", ("fobs-receiver",)))):
        rec = tracer.roles.get(role)
        if rec is not None:
            out[key] = _ratio((rec["busy_cpu"] - rec["top_cpu"]) / 1e3, per)
    sender = tracer.roles.get("fobs-sender")
    if sender is not None:
        out["runtime.transfer.sender_idle_share"] = (
            1.0 - _ratio(sender["busy_cpu"], sender["wall"]))
    busy = role_sum("daemon:", "busy_cpu")
    if busy:
        out["server.daemon.driver_self_share"] = (
            (busy - role_sum("daemon:", "top_cpu")) / busy)
    syncs = count("dataset.scan_tree")
    if syncs:
        nobjects = max(workload.nobjects, 1)
        packed_mb = _ratio(count("dataset.pack_object"), nobjects) \
            * nbytes / 1e6
        unpacked_mb = _ratio(count("dataset.unpack_object"), nobjects) \
            * nbytes / 1e6
        main = tracer.roles["MainThread"]
        out.update({
            "dataset.scan_files_per_s": _ratio(
                syncs * workload.nfiles, wall_total_s("dataset.scan_tree")),
            "dataset.plan_us_per_file": _ratio(
                cpu_self_us("dataset.plan_objects"), syncs * workload.nfiles),
            "dataset.schedule_us_per_object": _ratio(
                cpu_self_us("dataset.schedule"), syncs * nobjects),
            "dataset.pack_mbps":
                _ratio(packed_mb, wall_total_s("dataset.pack_object")),
            "dataset.unpack_mbps":
                _ratio(unpacked_mb, wall_total_s("dataset.unpack_object")),
            "dataset.journal.replay_us_per_object": _ratio(
                tracer.total("dataset.journal.open")[1] / 1e3,
                count("dataset.journal.open") * nobjects),
            "dataset.sync.driver_self_share": _ratio(
                main["busy_cpu"] - main["top_cpu"], main["busy_cpu"]),
        })
    return out


def _print_report(result: dict) -> None:
    w = result["workload"]
    print(f"== {w}  seed={result['seed']}  trace={result['trace']}  "
          f"ops={result['attempted']} failed={result['failed']}  "
          f"correct={result['correct']}  host_factor="
          f"{result['host_factor']:.4f} (times and rates are quoted for a "
          f"{harness.REFERENCE_SPIN_MOPS:g} Mops host)")
    for name, unit, better, bound in END_TO_END:
        if name not in result["end_to_end"]:
            continue
        value = result["end_to_end"][name]
        line = f"  {name:<34}{value:>16.6g} {unit:<6}({better} is better"
        line += (f", bound {bound:.0%})  "
                 f"measured {result['end_to_end_raw'][name]:.6g}")
        stat = result["stats"].get(name)
        if stat:
            line += (f"  q1 {stat['q1']:.6g} q3 {stat['q3']:.6g} "
                     f"n={stat['n']}")
            if "p_high" in stat:
                line += (f" p{stat['p_high']['p']:g} "
                         f"{stat['p_high']['value']:.6g}")
        print(line)
    for name, unit, better, bound, _on in WORKLOAD_METRICS:
        if name in result["workload_metrics"]:
            print(f"  {name:<34}{result['workload_metrics'][name]:>16.6g} "
                  f"{unit:<6}({better} is better, bound {bound})")
    for name, unit, _better in TRACE_LINE:
        if name in result.get("per_layer", {}):
            print(f"  {name:<50}{result['per_layer'][name]:>16.6g} {unit}")
    for key, value in result["digests"].items():
        print(f"  digest {key}: {value}")


def _host() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}"}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str | None, workdir: str | None,
                 tiny: bool = False, min_ops: int | None = None,
                 corrupt_op: int | None = None) -> dict:
    """Run one workload in this process; returns the full result dict."""
    import micro
    import workloads
    from tracing import Tracer

    with harness.WorkDir(name, workdir) as scratch:
        os.environ["TMPDIR"] = scratch
        workload = workloads.make(name, seed, scratch, tiny)
        floor = min_ops if min_ops is not None else workload.min_ops
        tracer = None
        # A traced run pairs the untraced workload with a second, traced
        # instance (own files, own daemon) and alternates their ops.
        shadow = None
        per_layer: dict = {}
        setups: list = []
        traced: list = []
        if corrupt_op is not None:
            _arm_corruption(workload, corrupt_op)
        try:
            if trace:
                per_layer.update(micro.isolated_layers(scratch))
            for _ in range(1 if tiny or trace else SETUP_REPEATS):
                spins = harness.calibrate(setups[-1]["wall_s"]
                                          if setups else 0.0)
                t0 = time.perf_counter()
                workload.setup(None)
                setups.append({"wall_s": time.perf_counter() - t0,
                               "spin_mops": spins})
            if not trace:
                (records,) = harness.run_ops([(workload, None)], seconds,
                                             floor)
            else:
                shadow_dir = os.path.join(scratch, "traced")
                os.makedirs(shadow_dir)
                shadow = workloads.make(name, seed, shadow_dir, tiny)
                tracer = Tracer()
                tracer.install()
                try:
                    shadow.setup(tracer)
                finally:
                    tracer.uninstall()
                tracer.discard_pending()
                tracer.keep_raw = True
                records, traced = harness.run_ops(
                    [(workload, None), (shadow, tracer)], seconds,
                    max(1, floor // 2))
            everything = records + traced
            verdict = workload.finish(everything)
            extra = {}
            if trace and hasattr(workload, "telemetry_overhead"):
                extra = workload.telemetry_overhead()
                verdict["ok"] = verdict["ok"] and extra.pop(
                    "outcome_unchanged")
        finally:
            workload.teardown()
            if shadow is not None:
                shadow.teardown()

        failed = sum(1 for r in everything if not r["ok"])
        raw = _end_to_end(workload, records,
                          [s["wall_s"] for s in setups])
        quoted_records = _quoted(records)
        # Three set-ups cannot average out the error of three 10 ms
        # samples each, as dozens of ops do: they take the run's factor.
        factors = [harness.host_factor(r["spin_mops"]) for r in everything]
        factor = median(factors
                        + [harness.host_factor(s["spin_mops"]) for s in setups])
        e2e = _end_to_end(workload, quoted_records,
                          [s["wall_s"] * factor for s in setups])
        wl_raw = workload.workload_metrics(records, raw["values"]["op_s_p50"])
        wl_raw["failed_ops_ratio"] = failed / len(everything)
        wl_quoted = workload.workload_metrics(quoted_records,
                                              e2e["values"]["op_s_p50"])
        units = {n: u for n, u, _b, _bd, _on in WORKLOAD_METRICS}
        wl_metrics = {
            name: wl_quoted[name] if units[name] in QUOTED_UNITS else value
            for name, value in wl_raw.items()}
        result = {
            "workload": name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "host": _host(),
            "correct": failed == 0 and verdict["ok"],
            "attempted": len(everything), "failed": failed,
            "host_factor": factor,
            "end_to_end": e2e["values"], "end_to_end_raw": raw["values"],
            "stats": raw["stats"],
            "workload_metrics": wl_metrics, "workload_metrics_raw": wl_raw,
            "digests": verdict["digests"],
            "ops": [dict({k: v for k, v in r.items() if k != "outcome"},
                         host_factor=f)
                    for r, f in zip(everything, factors)],
            "setups": setups,
        }
        if trace:
            if getattr(shadow, "daemon_trace", None):
                tracer.merge_dump(shadow.daemon_trace, "daemon:")
            per_layer.update(workload.layer_counts(records))
            per_layer.update(_layer_metrics(tracer, shadow))
            if "telemetry_overhead_ratio" in extra:
                wl_metrics["telemetry_overhead_ratio"] = extra.pop(
                    "telemetry_overhead_ratio")
            per_layer.update(extra)
            per_layer["trace.overhead_ratio"] = _ratio(
                median(r["wall_s"] for r in _primary(traced)),
                raw["values"]["op_s_p50"])
            result["per_layer"] = per_layer
            result["trace_summary"] = {
                "roles": tracer.roles, "spans": tracer.agg,
                "min_self_ns": tracer.min_self_ns(),
                "raw_spans_kept": len(tracer.raw)}
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            stem = os.path.join(out_dir, name + (".trace" if trace else ""))
            with open(stem + ".json", "w") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
            if trace:
                tracer.write_spans(os.path.join(out_dir,
                                                name + ".spans.jsonl"))
        return result


def _arm_corruption(workload, op_index: int) -> None:
    """selftest: damage the output of timed op ``op_index``."""
    prepare = workload.prepare

    def armed(index):
        if index == op_index:
            workload.corrupt_next_output = True
        return prepare(index)

    workload.prepare = armed


def contract_line(result: dict) -> str:
    """The last stdout line the driver parses."""
    if result["trace"]:
        merged = dict(result["workload_metrics"])
        merged.update(result["per_layer"])
        metrics = {name: {"value": merged.get(name, 0), "unit": unit}
                   for name, unit in TRACE_UNITS.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def _run_all(args) -> int:
    """Each workload in its own interpreter; 1 if any run was not correct."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.out:
                cmd += ["--out", args.out]
            if args.workdir:
                cmd += ["--workdir", args.workdir]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines \
                    or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true",
                       help="every workload, each in a fresh interpreter")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 is the development seed; confirm any claim "
                             "on a second one")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write result JSON (and spans) here")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="scratch directory (default: inside "
                             "benchmarks/perf/_work)")
    args = parser.parse_args(argv)

    harness.bootstrap()
    if args.seconds is None:
        args.seconds = _default_seconds()
    if args.all:
        return _run_all(args)

    # Ctrl-C and SIGTERM unwind through the finally blocks, so no daemon
    # and no scratch directory outlives an interrupted run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(130))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.out, args.workdir)
    _print_report(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
