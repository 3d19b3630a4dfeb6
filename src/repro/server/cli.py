"""``repro`` — the multi-transfer daemon and its fetch client.

Serve a directory of objects::

    repro serve ./objects --port 9900 --max-active 4 --queue-depth 8 \
        --rate-budget 200 --stats-interval 5

Fetch one object (from another process/machine)::

    repro fetch big.dat --host 10.0.0.1 --port 9900 --output big.dat \
        --max-attempts 3

Both accept ``--telemetry-out LOG.jsonl`` to record protocol events;
``repro stats LOG.jsonl`` aggregates a recording and
``repro timeline LOG.jsonl`` reconstructs per-transfer timelines
(goodput curve, phases, waste, loss attribution) from it.

The daemon admits at most ``--max-active`` concurrent transfers,
queues up to ``--queue-depth`` more (clients see an explicit QUEUED
reply), rejects the rest with a reason, and splits ``--rate-budget``
across active transfers by max-min fairness.  SIGTERM (or Ctrl-C)
drains gracefully: admissions stop, the wait queue is rejected, active
transfers finish, then the process exits; a second signal stops
immediately.  Vanilla ``fobs-xfer send`` clients can push files to the
same port.

Output discipline: one machine-readable ``key=value`` line on stdout,
progress and stats on stderr (``--quiet`` silences the latter),
nonzero exit on failure.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Optional, Sequence

from repro.core.config import FobsConfig
from repro.runtime.cli import info
from repro.runtime.transfer import SEND_BATCH
from repro.server.client import fetch_file
from repro.server.daemon import ObjectServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Concurrent FOBS object server and fetch client.")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser(
        "serve", help="serve a directory of objects to many clients")
    serve.add_argument("root", help="directory of objects to serve")
    serve.add_argument("--port", type=int, required=True)
    serve.add_argument("--bind", default="0.0.0.0")
    serve.add_argument("--max-active", type=int, default=4, metavar="N",
                       help="concurrent transfer limit (default 4)")
    serve.add_argument("--queue-depth", type=int, default=8, metavar="N",
                       help="FIFO wait-queue bound; past it requests are "
                            "rejected (default 8)")
    serve.add_argument("--per-client-max", type=int, default=None,
                       metavar="N",
                       help="max transfers (active+queued) per client host")
    serve.add_argument("--rate-budget", type=float, default=None,
                       metavar="MBPS",
                       help="host send budget in Mb/s, divided max-min "
                            "across active transfers (default: unpaced)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="max seconds to wait for active transfers "
                            "after a drain signal (default 30)")
    serve.add_argument("--stats-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print a one-line stats report to stderr "
                            "every N seconds (default: off)")
    serve.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="record protocol/admission events to a JSONL "
                            "file (replay with 'repro timeline PATH')")
    serve.add_argument("--packet-size", type=int, default=1024)
    serve.add_argument("--ack-frequency", type=int, default=32)
    serve.add_argument("--no-checksum", action="store_true",
                       help="disable per-packet CRC32 on fetches")
    serve.add_argument("--autotune", action="store_true",
                       help="adapt each send's rate and batch size per "
                            "epoch from live telemetry (docs/TUNING.md); "
                            "the max-min share becomes the controller's "
                            "rate ceiling")
    serve.add_argument("--rate-mode", default="hill",
                       choices=("hill", "vegas"),
                       help="autotune rate search: loss/slope hill "
                            "climbing (default) or delay-based vegas")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress progress output on stderr")

    fetch = sub.add_parser(
        "fetch", help="fetch one or more objects from a server")
    fetch.add_argument("names", nargs="+", metavar="name",
                       help="object name(s) under the served root")
    fetch.add_argument("--host", default="127.0.0.1")
    fetch.add_argument("--port", type=int, required=True)
    fetch.add_argument("--output", default=None,
                       help="destination path (single object only)")
    fetch.add_argument("--output-dir", default=None, metavar="DIR",
                       help="destination directory (required for "
                            "multi-object fetches; each object lands "
                            "under its own name)")
    fetch.add_argument("--timeout", type=float, default=120.0)
    fetch.add_argument("--max-attempts", type=int, default=1, metavar="N",
                       help="retry budget; retries resume from the "
                            "receiver journal")
    fetch.add_argument("--rate-cap", type=float, default=0.0, metavar="MBPS",
                       help="ask the server to cap this transfer's share "
                            "of its budget")
    fetch.add_argument("--no-checksum", action="store_true")
    fetch.add_argument("--autotune", action="store_true",
                       help="adapt the receive-side ACK frequency per "
                            "epoch from live delivery telemetry "
                            "(docs/TUNING.md)")
    fetch.add_argument("--rate-mode", default="hill",
                       choices=("hill", "vegas"),
                       help="autotune search mode (default hill)")
    fetch.add_argument("--stats-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="print a one-line progress/tuning report to "
                            "stderr every N seconds (default: off)")
    fetch.add_argument("--no-verify", action="store_true",
                       help="skip the per-chunk digest manifest; fall back "
                            "to the legacy whole-object CRC32")
    fetch.add_argument("--telemetry-out", default=None, metavar="PATH",
                       help="record protocol events to a JSONL file "
                            "(replay with 'repro timeline PATH')")
    fetch.add_argument("--quiet", action="store_true",
                       help="suppress progress output on stderr")

    verify = sub.add_parser(
        "verify",
        help="audit a file against a saved per-chunk digest manifest")
    verify.add_argument("file", help="file to audit")
    verify.add_argument("manifest",
                        help="manifest written by ChunkManifest.save()")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress the per-chunk report on stderr")

    stats = sub.add_parser(
        "stats", help="aggregate a recorded telemetry JSONL log")
    stats.add_argument("log", help="JSONL file written by --telemetry-out")

    timeline = sub.add_parser(
        "timeline",
        help="reconstruct per-transfer timelines from a recorded "
             "telemetry JSONL log")
    timeline.add_argument("log", help="JSONL file written by --telemetry-out")
    timeline.add_argument("--width", type=int, default=50,
                          help="goodput sparkline width (default 50)")

    loadtest = sub.add_parser(
        "loadtest",
        help="run a population-scale fleet scenario on the DES and "
             "print its SLO report as JSON (see docs/LOADTEST.md)")
    loadtest.add_argument("scenario", nargs="?", default=None,
                          help="scenario name (use --list to enumerate)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="master seed; same (scenario, seed) -> "
                               "byte-identical report (default 0)")
    loadtest.add_argument("--clients", type=int, default=None, metavar="N",
                          help="override the scenario's fleet size")
    loadtest.add_argument("--time-limit", type=float, default=None,
                          metavar="SECONDS",
                          help="override the simulated-time budget")
    loadtest.add_argument("--telemetry-out", default=None, metavar="PATH",
                          help="also record the full event stream as "
                               "JSONL (replay with 'repro timeline PATH')")
    loadtest.add_argument("--list", action="store_true", dest="list_scenarios",
                          help="list scenario names and exit")
    loadtest.add_argument("--quiet", action="store_true",
                          help="suppress progress output on stderr")

    sync = sub.add_parser(
        "sync",
        help="replicate a directory tree as packed/striped dataset "
             "objects (see docs/DATASET.md)")
    sync.add_argument("src", help="source directory tree")
    sync.add_argument("dest", help="destination directory (created)")
    sync.add_argument("--chunk-size", type=int, default=65536,
                      metavar="BYTES",
                      help="manifest chunk size (default 65536)")
    sync.add_argument("--object-size", type=int, default=4 * 1024 * 1024,
                      metavar="BYTES",
                      help="target object size; files larger than this "
                           "stripe into chunk objects (default 4 MiB; "
                           "must be a multiple of --chunk-size)")
    sync.add_argument("--pack-threshold", type=int, default=1024 * 1024,
                      metavar="BYTES",
                      help="files smaller than this coalesce into "
                           "packed objects (default 1 MiB)")
    sync.add_argument("--policy", default="layout",
                      choices=("layout", "fifo", "random"),
                      help="transfer-order policy (default layout: "
                           "sequential per destination file, "
                           "interleaved across files/spindles)")
    sync.add_argument("--burst", type=int, default=1, metavar="N",
                      help="objects per lane per round-robin turn "
                           "(layout policy; default 1)")
    sync.add_argument("--seed", type=int, default=0,
                      help="seed for --policy random (default 0)")
    sync.add_argument("--transport", default="local",
                      choices=("local", "loopback"),
                      help="data plane: in-process (default) or the "
                           "real-socket FOBS stack over localhost")
    sync.add_argument("--max-attempts", type=int, default=3, metavar="N",
                      help="delivery+verify attempts per object "
                           "(default 3)")
    sync.add_argument("--no-resume", action="store_true",
                      help="ignore any dataset journal; start from "
                           "scratch")
    sync.add_argument("--dry-run", action="store_true",
                      help="print the canonical JSON transfer plan to "
                           "stdout and exit without moving bytes "
                           "(byte-identical across runs on the same "
                           "tree)")
    sync.add_argument("--telemetry-out", default=None, metavar="PATH",
                      help="record dataset/protocol events to a JSONL "
                           "file (replay with 'repro stats PATH')")
    sync.add_argument("--quiet", action="store_true",
                      help="suppress progress output on stderr")
    return parser


def _telemetry_bus(args: argparse.Namespace):
    """Build a JSONL-recording bus from ``--telemetry-out`` (or None)."""
    if not getattr(args, "telemetry_out", None):
        return None
    from repro.telemetry import EventBus, JsonlSink

    return EventBus(sinks=[JsonlSink(args.telemetry_out, producer="repro")])


def _tuning_config(args: argparse.Namespace):
    """Build a TuningConfig from ``--autotune`` / ``--rate-mode``."""
    if not getattr(args, "autotune", False):
        return None
    from repro.tuning import TuningConfig

    return TuningConfig(mode=args.rate_mode,
                        packet_size=getattr(args, "packet_size", 1024))


def _cmd_serve(args: argparse.Namespace) -> int:
    config = FobsConfig(packet_size=args.packet_size,
                        ack_frequency=args.ack_frequency,
                        checksum=not args.no_checksum,
                        batch_size=SEND_BATCH)
    budget = args.rate_budget * 1e6 if args.rate_budget else None
    bus = _telemetry_bus(args)
    try:
        server = ObjectServer(
            args.root, port=args.port, bind=args.bind, config=config,
            max_active=args.max_active, queue_depth=args.queue_depth,
            per_client_max=args.per_client_max, rate_budget_bps=budget,
            drain_timeout=args.drain_timeout,
            stats_interval=args.stats_interval,
            telemetry=bus, tuning=_tuning_config(args))
    except (ValueError, OSError) as exc:
        if bus is not None:
            bus.close()
        print(f"serve FAILED: {exc}", file=sys.stderr)
        return 1

    def on_signal(signum, frame):
        del frame
        if server._draining or server._drain_requested:
            server.stop()
        else:
            info(args, f"signal {signum}: draining (active transfers "
                       f"finish, queue rejected; repeat to force stop)")
            server.request_drain()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        ready = threading.Event()

        def announce():
            ready.wait(5)
            info(args, f"serving {server.root} on tcp {server.port} "
                       f"(udp {server.udp_port}), max-active "
                       f"{args.max_active}, queue {args.queue_depth}")

        threading.Thread(target=announce, daemon=True).start()
        snapshot = server.serve_forever(ready)
    except OSError as exc:
        print(f"serve FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        if bus is not None:
            bus.close()
            info(args, f"telemetry recorded to {args.telemetry_out}")
    print(f"serve done completed={snapshot.completed} "
          f"failed={snapshot.failed} rejected={snapshot.rejected} "
          f"bytes_sent={snapshot.bytes_sent} "
          f"bytes_received={snapshot.bytes_received}")
    return 0


def _verify_failure(reason: Optional[str]) -> bool:
    """True when a fetch failure is an end-to-end integrity failure."""
    text = (reason or "").lower()
    return "verify failed" in text or "crc mismatch" in text


def _cmd_fetch(args: argparse.Namespace) -> int:
    """Fetch one or many objects.

    Output discipline (docs/DATASET.md): exactly one machine-readable
    line on stdout — the legacy per-object line for a single name, a
    ``fetch ok objects=...`` summary for a multi-object run — with all
    per-object diagnostics on stderr.  Exit codes: 0 every object
    landed and verified, 3 any object exhausted retries on an
    integrity failure, 1 any other failure, 2 usage.
    """
    import os

    multi = len(args.names) > 1
    if multi and args.output:
        print("fetch FAILED: --output is single-object; use "
              "--output-dir for multiple names", file=sys.stderr)
        return 2
    if multi and not args.output_dir:
        print("fetch FAILED: --output-dir is required when fetching "
              "multiple objects", file=sys.stderr)
        return 2
    if not args.output and not args.output_dir:
        print("fetch FAILED: one of --output / --output-dir is required",
              file=sys.stderr)
        return 2
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)

    config = FobsConfig(ack_frequency=32, checksum=not args.no_checksum)
    bus = _telemetry_bus(args)
    tuning = _tuning_config(args)
    results = []
    try:
        for name in args.names:
            output = args.output or os.path.join(
                args.output_dir, os.path.basename(name))
            result = fetch_file(
                name, args.host, args.port, output, config=config,
                timeout=args.timeout, max_attempts=args.max_attempts,
                rate_cap_bps=int(args.rate_cap * 1e6),
                checksum=not args.no_checksum,
                verify=not args.no_verify, telemetry=bus,
                tuning=tuning, stats_interval=args.stats_interval)
            results.append((name, result))
            if result.completed:
                info(args, f"fetched {name}: {result.nbytes} bytes -> "
                           f"{result.path}")
            else:
                print(f"fetch of {name} FAILED after {result.attempts} "
                      f"attempt(s): {result.failure_reason}",
                      file=sys.stderr)
                if multi:
                    break
    finally:
        if bus is not None:
            bus.close()
            info(args, f"telemetry recorded to {args.telemetry_out}")

    if not multi:
        name, result = results[0]
        if not result.completed:
            print(f"fetch FAILED after {result.attempts} attempt(s): "
                  f"{result.failure_reason}", file=sys.stderr)
            if _verify_failure(result.failure_reason):
                # Machine-readable integrity verdict: the bytes on disk
                # are NOT the object the server holds, and retries were
                # exhausted.
                print(f"fetch VERIFY_FAILED name={name} "
                      f"attempts={result.attempts} "
                      f"packets_demoted={result.packets_demoted} "
                      f"reason="
                      f"{(result.failure_reason or '').split(';')[0]!r}")
                return 3
            return 1
        repaired = (f" packets_demoted={result.packets_demoted} "
                    f"ranges_demoted={result.ranges_demoted} "
                    f"bytes_refetched={result.bytes_refetched}"
                    if result.packets_demoted else "")
        print(f"fetch ok name={name} nbytes={result.nbytes} "
              f"path={result.path} duration_s={result.duration:.3f} "
              f"throughput_mbps={result.throughput_bps / 1e6:.2f} "
              f"attempts={result.attempts} "
              f"resumed_packets={result.resumed_packets} "
              f"verify_s={result.verify_seconds:.3f}" + repaired)
        return 0

    done = [(n, r) for n, r in results if r.completed]
    bad = [(n, r) for n, r in results if not r.completed]
    nbytes = sum(r.nbytes for _, r in done)
    duration = sum(r.duration for _, r in done)
    if bad:
        name, result = bad[0]
        if _verify_failure(result.failure_reason):
            print(f"fetch VERIFY_FAILED name={name} "
                  f"objects={len(done)}/{len(args.names)} "
                  f"attempts={result.attempts} "
                  f"reason={(result.failure_reason or '').split(';')[0]!r}")
            return 3
        print(f"fetch FAILED name={name} "
              f"objects={len(done)}/{len(args.names)} "
              f"reason={(result.failure_reason or '').split(';')[0]!r}")
        return 1
    print(f"fetch ok objects={len(done)} nbytes={nbytes} "
          f"duration_s={duration:.3f} "
          f"attempts={sum(r.attempts for _, r in done)} "
          f"resumed_packets={sum(r.resumed_packets for _, r in done)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.core.manifest import ChunkManifest, ManifestCorrupt, corrupt_ranges

    try:
        manifest = ChunkManifest.load(args.manifest)
    except (OSError, ManifestCorrupt, ValueError) as exc:
        print(f"verify FAILED: bad manifest: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        size = os.path.getsize(args.file)
        if size != manifest.total_bytes:
            print(f"verify CORRUPT name={args.file} "
                  f"nbytes={size} expected={manifest.total_bytes} "
                  f"reason='size mismatch'")
            return 1
        with open(args.file, "rb") as fh:
            bad = manifest.verify_file(fh)
    except OSError as exc:
        print(f"verify FAILED: {exc}", file=sys.stderr)
        return 2
    duration = time.monotonic() - start
    if not args.quiet and len(bad):
        shown = ", ".join(str(s) for s in bad[:16])
        more = len(bad) - 16
        print(f"corrupt chunks: {shown}"
              + (f" (+{more} more)" if more > 0 else ""), file=sys.stderr)
    if not len(bad):
        print(f"verify ok name={args.file} nbytes={manifest.total_bytes} "
              f"chunks={manifest.npackets} duration_s={duration:.3f}")
        return 0
    nbytes_bad = sum(manifest.chunk_length(int(s)) for s in bad)
    print(f"verify CORRUPT name={args.file} "
          f"chunks_corrupt={len(bad)} chunks={manifest.npackets} "
          f"ranges={len(corrupt_ranges(bad))} bytes={nbytes_bad} "
          f"duration_s={duration:.3f}")
    return 1


def _cmd_sync(args: argparse.Namespace) -> int:
    """Replicate a tree as dataset objects (docs/DATASET.md).

    Exit codes: 0 the whole dataset landed and verified (or the
    ``--dry-run`` plan printed), 1 transport/storage failure, 2 usage
    (bad tree or config), 3 an object exhausted its retries on digest
    verification.  Exactly one machine-readable line goes to stdout.
    """
    import json
    import os

    from repro.dataset import (
        PackingConfig,
        SchedulerConfig,
        lane_count,
        plan_objects,
        scan_tree,
        schedule,
        sync_tree,
    )

    if not os.path.isdir(args.src):
        print(f"sync FAILED: {args.src} is not a directory",
              file=sys.stderr)
        return 2
    try:
        packing = PackingConfig(object_bytes=args.object_size,
                                pack_threshold=args.pack_threshold)
        scheduler = SchedulerConfig(policy=args.policy, burst=args.burst,
                                    seed=args.seed)
        manifest = scan_tree(args.src, args.chunk_size)
        plan = plan_objects(manifest, packing)
    except (ValueError, OSError) as exc:
        print(f"sync FAILED: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        order = schedule(plan, scheduler)
        doc = {
            "dataset_id": f"{manifest.dataset_id:016x}",
            "chunk_size": manifest.chunk_size,
            "object_bytes": packing.object_bytes,
            "pack_threshold": packing.pack_threshold,
            "policy": args.policy,
            "files": manifest.nfiles,
            "dirs": len(manifest.dirs),
            "bytes": manifest.total_bytes,
            "objects": plan.nobjects,
            "counts": plan.counts(),
            "empty_files": len(plan.empty_files),
            "wire_bytes": plan.wire_bytes(),
            "lanes": lane_count(plan, scheduler),
            "schedule": [
                {"object": o.index, "kind": o.kind_name,
                 "bytes": o.payload_bytes, "members": len(o.members),
                 "first": o.members[0].path, "stripe": o.stripe}
                for o in order
            ],
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return 0

    bus = _telemetry_bus(args)
    transport = None
    if args.transport == "loopback":
        from repro.dataset import LoopbackTransport

        transport = LoopbackTransport()
    try:
        result = sync_tree(
            args.src, args.dest, chunk_size=args.chunk_size,
            packing=packing, scheduler=scheduler, manifest=manifest,
            resume=not args.no_resume, transport=transport,
            telemetry=bus, max_object_attempts=args.max_attempts)
    finally:
        if transport is not None:
            transport.close()
        if bus is not None:
            bus.close()
            info(args, f"telemetry recorded to {args.telemetry_out}")
    if result.resumed:
        info(args, f"resumed: {result.objects_skipped} object(s) "
                   f"already landed ({result.bytes_skipped} bytes), "
                   f"{result.objects_demoted} demoted by the audit")
    if not result.completed:
        print(f"sync FAILED: {result.failure_reason}", file=sys.stderr)
        verdict = ("VERIFY_FAILED"
                   if _verify_failure(result.failure_reason) else "FAILED")
        print(f"sync {verdict} dataset_id={result.dataset_id:016x} "
              f"objects={result.objects_transferred + result.objects_skipped}"
              f"/{result.nobjects} "
              f"verify_failures={result.verify_failures} "
              f"reason={(result.failure_reason or '').split(':')[0]!r}")
        return 3 if verdict == "VERIFY_FAILED" else 1
    info(args, f"synced {result.nfiles} file(s), "
               f"{result.objects_transferred} object(s), "
               f"{result.bytes_transferred} bytes -> {args.dest}")
    print(f"sync ok dataset_id={result.dataset_id:016x} "
          f"files={result.nfiles} dirs={result.ndirs} "
          f"objects={result.nobjects} bytes={result.bytes_total} "
          f"objects_sent={result.objects_transferred} "
          f"objects_skipped={result.objects_skipped} "
          f"objects_demoted={result.objects_demoted} "
          f"verify_failures={result.verify_failures} "
          f"duration_s={result.duration:.3f} "
          f"files_per_sec={result.files_per_sec:.1f} "
          f"goodput_mbps={result.goodput_bps / 1e6:.2f}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        EV_ADMISSION,
        EV_CHUNK_DONE,
        EV_CORRUPTION,
        EV_DATASET_PACK,
        EV_DATASET_RESUME,
        EV_REPAIR,
        EV_STORAGE_FAULT,
        EV_TRANSFER_END,
        EV_TRANSFER_START,
        EV_TUNE_DECISION,
        EV_TUNE_EPOCH,
        EV_VERIFY,
        read_events,
    )

    kinds: dict[str, int] = {}
    starts = ends = completed = failed = 0
    corruptions = storage_faults = 0
    packets_demoted = bytes_refetched = 0
    verify_seconds = 0.0
    ds_objects = ds_bytes = ds_resumes = ds_demoted = ds_skipped = 0
    tune_epochs = tune_decisions = 0
    last_tune: Optional[dict] = None
    admissions: dict[str, int] = {}
    transfers: set[tuple[int, int]] = set()
    try:
        for event in read_events(args.log):
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
            if event.transfer_id or event.epoch:
                transfers.add((event.transfer_id, event.epoch))
            if event.kind == EV_TRANSFER_START:
                starts += 1
            elif event.kind == EV_TRANSFER_END:
                ends += 1
                if event.fields.get("completed"):
                    completed += 1
                else:
                    failed += 1
            elif event.kind == EV_ADMISSION:
                action = str(event.fields.get("action", "?"))
                admissions[action] = admissions.get(action, 0) + 1
            elif event.kind == EV_CORRUPTION:
                corruptions += int(event.fields.get("chunks_corrupt", 0) or 0)
            elif event.kind == EV_REPAIR:
                packets_demoted += int(
                    event.fields.get("packets_demoted", 0) or 0)
                bytes_refetched += int(
                    event.fields.get("bytes_demoted", 0) or 0)
            elif event.kind == EV_STORAGE_FAULT:
                storage_faults += 1
            elif event.kind == EV_VERIFY:
                verify_seconds += float(event.fields.get("duration", 0) or 0)
            elif event.kind == EV_CHUNK_DONE:
                ds_objects += 1
                ds_bytes += int(event.fields.get("nbytes", 0) or 0)
            elif event.kind == EV_DATASET_RESUME:
                ds_resumes += 1
                ds_demoted += int(
                    event.fields.get("objects_demoted", 0) or 0)
                ds_skipped += int(event.fields.get("objects_done", 0) or 0)
            elif event.kind == EV_TUNE_EPOCH:
                tune_epochs += 1
                last_tune = event.fields
            elif event.kind == EV_TUNE_DECISION:
                if event.fields.get("action") != "init":
                    tune_decisions += 1
    except (OSError, ValueError) as exc:
        print(f"stats FAILED: {exc}", file=sys.stderr)
        return 1
    total = sum(kinds.values())
    for kind in sorted(kinds):
        print(f"  {kind}: {kinds[kind]}", file=sys.stderr)
    admitted = " ".join(f"admission_{k}={v}"
                        for k, v in sorted(admissions.items()))
    integrity = ""
    if (corruptions or storage_faults or packets_demoted
            or kinds.get(EV_VERIFY)):
        integrity = (f" corruptions={corruptions} "
                     f"packets_demoted={packets_demoted} "
                     f"bytes_refetched={bytes_refetched} "
                     f"storage_faults={storage_faults} "
                     f"verify_s={verify_seconds:.3f}")
    dataset = ""
    if ds_objects or ds_resumes or kinds.get(EV_DATASET_PACK):
        # Chunk-done counts understate under sampling (SAMPLED_KINDS);
        # resume milestones are never sampled, so those are exact.
        dataset = (f" dataset_objects={ds_objects} "
                   f"dataset_bytes={ds_bytes} "
                   f"dataset_resumes={ds_resumes} "
                   f"dataset_objects_skipped={ds_skipped} "
                   f"dataset_objects_demoted={ds_demoted}")
    tuning = ""
    if tune_epochs:
        rate = last_tune.get("rate") if last_tune else None
        tuning = (f" tune_epochs={tune_epochs} "
                  f"tune_decisions={tune_decisions} "
                  f"tune_rate_mbps="
                  + (f"{rate / 1e6:.2f}" if rate is not None else "none")
                  + f" tune_f={last_tune.get('f')} "
                  f"tune_b={last_tune.get('b')} "
                  f"tune_waste={last_tune.get('waste')}")
    print(f"stats ok events={total} attempts={max(starts, ends)} "
          f"completed={completed} failed={failed}"
          + (f" {admitted}" if admitted else "")
          + integrity + dataset + tuning)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.analysis.timeline import reconstruct, render_timelines

    try:
        timelines = reconstruct(args.log)
    except (OSError, ValueError) as exc:
        print(f"timeline FAILED: {exc}", file=sys.stderr)
        return 1
    print(render_timelines(timelines, width=args.width), file=sys.stderr)
    done = sum(1 for tl in timelines if tl.completed)
    print(f"timeline ok attempts={len(timelines)} completed={done}")
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.loadtest import SCENARIOS, run_scenario

    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    if args.scenario is None:
        print("loadtest FAILED: scenario name required (try --list)",
              file=sys.stderr)
        return 2
    try:
        result = run_scenario(
            args.scenario, seed=args.seed, clients=args.clients,
            time_limit=args.time_limit,
            telemetry_path=args.telemetry_out)
    except ValueError as exc:
        print(f"loadtest FAILED: {exc}", file=sys.stderr)
        return 2
    report = result.report
    info(args, f"loadtest {args.scenario}: offered={report['offered']} "
               f"completed={report['transfers']['completed']} "
               f"rejected={report['admission']['rejected']} "
               f"queue_wait_p99={report['queue_wait_s']['p99']:.3f}s")
    if args.telemetry_out:
        info(args, f"telemetry recorded to {args.telemetry_out}")
    print(result.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "timeline":
        return _cmd_timeline(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "sync":
        return _cmd_sync(args)
    return _cmd_fetch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
