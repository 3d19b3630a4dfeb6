"""Metric and workload vocabulary of the FOBS perf benchmark.

One place names every number the benchmark prints, so ``run.py``,
``compare.py``, ``selftest.py`` and ``BENCHMARK.json`` cannot drift
apart (``selftest.py`` asserts that ``BENCHMARK.json`` matches this
file).  Nothing here imports ``repro``.

Three tiers:

* :data:`END_TO_END` — the contract tier: defined on *every* workload,
  never zero, each with the share of the parent's median by which it
  may worsen.  These are what ``--trace 0`` prints on its last line.
* :data:`WORKLOAD_METRICS` — end-to-end numbers that only exist on some
  workloads (a fetch time needs a daemon, a UDP ceiling needs real
  sockets).  They are printed by name in every report and compared by
  ``compare.py`` with their own bound, and ride in the ``--trace 1``
  line beside the layer metrics, where a workload that lacks one
  reports 0.
* :data:`PER_LAYER` — single-layer numbers, named after this repo's
  modules.  No bound: they explain a move, they do not gate it.
"""

from __future__ import annotations

WORKLOADS = (
    ("loopback_1k",
     "8 MB object at 1 KiB packets over real UDP on loopback: per-packet "
     "Python cost (scheduler, headers, bitmap, one syscall per datagram) "
     "does nearly all the work"),
    ("loopback_32k",
     "64 MB object at 32 KiB packets: per-byte cost (CRC32, placement copy, "
     "SHA-256, kernel copy) dominates and per-packet logic is 8x rarer; "
     "bypass for per-packet wins"),
    ("daemon_mixed_1k",
     "one repro serve subprocess, one verified fetch beside one resumable "
     "push of 8 MB each: multiplexed pump, shared-socket demux, journal "
     "and manifest audit on files"),
    ("dataset_sync_local",
     "sync_tree over LocalTransport of a 1044-file 33 MB tree, every third "
     "op killed half way and resumed: no network, only dataset "
     "scan/plan/pack/unpack/journal"),
    ("des_paper_paths",
     "the paper's four FOBS paths plus Table 1 TCP with LWE, 40 MB each, on "
     "the single-flow DES fast path; the TCP run takes the generic engine "
     "path"),
    ("des_fleet",
     "steady, flash-crowd and resume-storm fleet scenarios at half size, "
     "population fixed: hundreds of flows, deep heap, admission, allocator "
     "and telemetry ring always on"),
)
WORKLOAD_NAMES = tuple(name for name, _why in WORKLOADS)

#: The workloads ``BENCHMARK.json`` names, i.e. the ones the driver runs
#: and gates.  On the shared host this was built on, identical code moves
#: a 15 s run's medians by up to 18 % between runs (bursts of interference
#: a few seconds long that no in-run calibration follows), and only a
#: longer run averages them out; the driver's time limit buys 26 s runs
#: for four workloads or 15 s runs for six.  The two left out stay
#: runnable by name and in ``--all``: ``loopback_32k`` (the per-byte
#: contrast to ``loopback_1k``) and ``des_fleet`` (4 passes per 15 s run,
#: and ROADMAP 4b will legitimately change how much work a pass is).
GATED = ("loopback_1k", "daemon_mixed_1k", "dataset_sync_local",
         "des_paper_paths")

#: (name, unit, better, bound) — on every workload, never zero.
#: Ten runs of identical code on the 2-vCPU shared host this was built
#: on spread by 1-6 % of their median in a quiet hour and 6-15 % in a
#: busy one, so a 10 % bound could not tell a regression from the host;
#: the time metrics take the widest bound the driver allows.
END_TO_END = (
    ("op_s_p50", "s", "lower", 0.25),
    ("goodput_mbps", "Mb/s", "higher", 0.25),
    ("cpu_s_per_gb", "s/GB", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

_LOOPBACK = ("loopback_1k", "loopback_32k")
_DES = ("des_paper_paths", "des_fleet")

#: (name, unit, better, bound, workloads).  ``bound`` is relative unless
#: it is the string "exact" (compare with ==) or "abs:<x>" (absolute).
WORKLOAD_METRICS = (
    ("goodput_pct_of_udp_ceiling", "%", "higher", 0.25, _LOOPBACK),
    ("fetch_s_p50", "s", "lower", 0.25, ("daemon_mixed_1k",)),
    ("push_s_p50", "s", "lower", 0.25, ("daemon_mixed_1k",)),
    ("resume_s_p50", "s", "lower", 0.25, ("dataset_sync_local",)),
    ("files_per_s", "1/s", "higher", 0.25, ("dataset_sync_local",)),
    ("des_pkts_per_host_s", "1/s", "higher", 0.25, _DES),
    ("sim_goodput_pct_of_bottleneck", "%", "higher", "exact",
     ("des_paper_paths",)),
    ("sim_waste_ratio", "ratio", "lower", "exact", _DES),
    ("telemetry_overhead_ratio", "ratio", "lower", "abs:0.05",
     ("des_paper_paths",)),
    ("failed_ops_ratio", "ratio", "lower", "exact", WORKLOAD_NAMES),
)

#: Workload metrics that only a ``--trace 1`` run measures (they need
#: extra paired work that would eat the untraced run's op budget).
TRACE_ONLY = frozenset({"telemetry_overhead_ratio"})

#: (name, unit, better).  A workload that does not exercise a layer
#: reports 0 for it; ``*_us_*`` figures are thread-CPU self times from
#: the traced ops unless the name's row in README.md says "isolated".
PER_LAYER = (
    ("runtime.wire.encode_burst_us_per_pkt", "us", "lower"),
    ("runtime.wire.encode_data_us_per_pkt", "us", "lower"),
    ("runtime.wire.decode_data_us_per_pkt", "us", "lower"),
    ("runtime.wire.encode_ack_us_per_ack", "us", "lower"),
    ("runtime.wire.decode_ack_us_per_ack", "us", "lower"),
    ("runtime.wire.crc_reject_count", "count", "lower"),
    ("runtime.socket.sendto_us_per_call", "us", "lower"),
    ("runtime.socket.recv_into_us_per_call", "us", "lower"),
    ("runtime.socket.select_us_per_call", "us", "lower"),
    ("runtime.socket.syscalls_per_pkt", "ratio", "lower"),
    ("runtime.socket.recv_empty_ratio", "ratio", "lower"),
    ("core.sender.next_batch_us_per_pkt", "us", "lower"),
    ("core.sender.on_ack_us_per_ack", "us", "lower"),
    ("core.sender.acks_processed", "count", "lower"),
    ("core.sender.waste_ratio", "ratio", "lower"),
    ("core.sender.stall_events", "count", "lower"),
    ("core.receiver.on_data_us_per_pkt", "us", "lower"),
    ("core.receiver.build_ack_us_per_ack", "us", "lower"),
    ("core.receiver.duplicate_ratio", "ratio", "lower"),
    ("core.bitmap.merge_us_per_call", "us", "lower"),
    ("core.scheduling.take_batch_us_per_pkt", "us", "lower"),
    ("core.journal.record_us_per_pkt", "us", "lower"),
    ("core.journal.flush_us_per_call", "us", "lower"),
    ("core.manifest.build_mbps", "MB/s", "higher"),
    ("core.manifest.verify_mbps", "MB/s", "higher"),
    ("runtime.transfer.sender_driver_self_us_per_pkt", "us", "lower"),
    ("runtime.transfer.receiver_driver_self_us_per_pkt", "us", "lower"),
    ("runtime.transfer.sender_idle_share", "ratio", "lower"),
    ("runtime.transfer.allocs_per_pkt", "count", "lower"),
    ("runtime.files.store_write_us_per_pkt", "us", "lower"),
    ("runtime.files.verify_s", "s", "lower"),
    ("server.daemon.cpu_s_per_gb", "s/GB", "lower"),
    ("server.daemon.peak_rss_mb", "MB", "lower"),
    ("server.daemon.driver_self_share", "ratio", "lower"),
    ("server.daemon.fetch_waste_ratio", "ratio", "lower"),
    ("server.registry.lookup_us_per_datagram", "us", "lower"),
    ("server.allocator.reallocate_us_per_call", "us", "lower"),
    ("server.admission.decide_us_per_request", "us", "lower"),
    ("dataset.scan_files_per_s", "1/s", "higher"),
    ("dataset.plan_us_per_file", "us", "lower"),
    ("dataset.schedule_us_per_object", "us", "lower"),
    ("dataset.pack_mbps", "MB/s", "higher"),
    ("dataset.unpack_mbps", "MB/s", "higher"),
    ("dataset.journal.append_us_per_object", "us", "lower"),
    ("dataset.journal.replay_us_per_object", "us", "lower"),
    ("dataset.sync.driver_self_share", "ratio", "lower"),
    ("dataset.sequential_write_fraction", "ratio", "higher"),
    ("simnet.engine.events_per_host_s", "1/s", "higher"),
    ("simnet.engine.events_per_sim_pkt", "ratio", "lower"),
    ("simnet.engine.c_over_python_speedup", "ratio", "higher"),
    ("simnet.queue_drops", "count", "lower"),
    ("tcp.segments_per_host_s", "1/s", "higher"),
    ("telemetry.emit_ring_us_per_event", "us", "lower"),
    ("telemetry.emit_jsonl_us_per_event", "us", "lower"),
    ("telemetry.events_per_pkt", "ratio", "lower"),
    ("tuning.controller.epoch_us", "us", "lower"),
    ("calib.spin_mops", "1/us", "higher"),
    ("calib.crc32_mbps", "MB/s", "higher"),
    ("calib.memcpy_mbps", "MB/s", "higher"),
    ("calib.udp_ceiling_mbps_1k", "Mb/s", "higher"),
    ("calib.udp_ceiling_mbps_32k", "Mb/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: What ``--trace 1`` prints on its last line: layers, then the
#: workload-specific end-to-end numbers (0 where a workload lacks one).
TRACE_LINE = PER_LAYER + tuple(
    (name, unit, better) for name, unit, better, _b, _w in WORKLOAD_METRICS)

E2E_UNITS = {name: unit for name, unit, _b, _bd in END_TO_END}
TRACE_UNITS = {name: unit for name, unit, _b in TRACE_LINE}


def benchmark_json(run_seconds: int) -> dict:
    """The exact content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS
                      if n in GATED],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd}
            for n, u, b, bd in END_TO_END],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in TRACE_LINE],
    }
