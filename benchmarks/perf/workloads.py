"""The six workloads: seeded inputs in, timed ops, verified outputs.

Every workload is a closed loop with one op in flight (two connections
inside a ``daemon_mixed_1k`` round) and drives only public entry
points of ``repro``.  The benchmark owns the seed: it turns ``--seed``
into object bytes, tree contents and scenario seeds, and the program
sees only those inputs.

A workload implements::

    setup(tracer)     everything before the first timed op (repeatable)
    prepare(i)        untimed: this op's seeded inputs
    run(inputs)       timed: calls into the program, nothing else
    check(in, out)    untimed: verify what was delivered -> record dict
    cleanup(inputs)   remove (dataset: empty) the op's files
    finish(records)   whole-run checks (digests agree, engines agree)
    teardown()        stop processes, final counters

``tiny=True`` shrinks every size so ``selftest.py`` runs in seconds; the
numbers it prints mean nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import zlib
from statistics import median

import numpy as np

import micro
from harness import (HERE, proc_cpu_s, proc_peak_rss_mb, self_cpu_s,
                     self_peak_rss_mb)
from metrics import WORKLOAD_NAMES

MB = 1 << 20


def _seeded_bytes(seed: int, workload: str, op: int, nbytes: int,
                  stream: int = 0) -> bytes:
    rng = np.random.default_rng(
        [seed, WORKLOAD_NAMES.index(workload), op, stream])
    return rng.integers(0, 256, size=nbytes, dtype=np.uint8).tobytes()


def _corrupt_file(path: str) -> None:
    """Flip one byte in the middle of ``path`` (selftest's fault)."""
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0xFF]))


class Workload:
    name = ""
    #: Fewest timed ops a run may report, whatever ``--seconds`` says.
    min_ops = 2

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.tracer = None
        #: selftest hook: damage what the next op delivered before it is
        #: checked, to prove the correctness check can fail.
        self.corrupt_next_output = False

    def setup(self, tracer=None) -> None:
        self.tracer = tracer

    def cpu_s(self) -> float:
        return self_cpu_s()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def cleanup(self, inputs) -> None:
        pass

    def finish(self, records) -> dict:
        return {"ok": True, "digests": {}}

    def teardown(self) -> None:
        pass

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        return {}

    def layer_counts(self, records) -> dict:
        """Per-layer figures that need no tracing (counts, ratios)."""
        return {}


# ----------------------------------------------------------------------
# loopback_1k / loopback_32k
# ----------------------------------------------------------------------
class Loopback(Workload):
    min_ops = 4

    def __init__(self, name, packet_size, nbytes, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        from repro.core.config import FobsConfig

        self.name = name
        self.packet_size = packet_size
        self.nbytes = 64 * packet_size if tiny else nbytes
        self.config = FobsConfig(packet_size=packet_size, ack_frequency=64,
                                 checksum=True, batch_size=16,
                                 max_batch_size=64)
        self.ceilings: list[float] = []

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        # The ceiling is taken in the same run, seconds before the ops it
        # normalises, so host drift cancels out of the percentage.
        self.ceilings.append(micro.udp_ceiling_mbps(
            self.packet_size, duration=0.05 if self.tiny else 0.25))
        warm = self.prepare(-1)
        self.check(warm, self.run(warm))

    def prepare(self, index: int):
        return {"data": _seeded_bytes(self.seed, self.name, index + 1,
                                      self.nbytes)}

    def run(self, inputs):
        from repro.runtime.transfer import run_loopback_transfer

        blocks = sys.getallocatedblocks()
        result = run_loopback_transfer(
            nbytes=self.nbytes, config=self.config, data=inputs["data"],
            timeout=60.0)
        return result, sys.getallocatedblocks() - blocks

    def check(self, inputs, outputs) -> dict:
        result, blocks = outputs
        if self.corrupt_next_output:
            # The delivered buffer is private to the program, so the
            # damaged output is the verdict a corrupt delivery produces.
            self.corrupt_next_output = False
            result = dataclasses.replace(result, checksum_ok=False)
        return {
            "ok": bool(result.completed and result.checksum_ok),
            "payload_bytes": self.nbytes,
            "packets_sent": result.packets_sent,
            "packets_required": self.config.npackets(self.nbytes),
            "duplicates": result.duplicates_received,
            "acks": result.acks_sent,
            "stalls": result.stall_events,
            "crc_rejects": result.corrupt_dropped,
            "alloc_blocks": blocks,
        }

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        goodput = self.nbytes * 8 / op_s_p50 / 1e6
        return {"goodput_pct_of_udp_ceiling":
                100.0 * goodput / median(self.ceilings)}

    def layer_counts(self, records) -> dict:
        sent = sum(r["packets_sent"] for r in records)
        required = sum(r["packets_required"] for r in records)
        return {
            "core.sender.waste_ratio": sent / required - 1.0,
            "core.sender.acks_processed":
                sum(r["acks"] for r in records) / len(records),
            "core.sender.stall_events":
                sum(r["stalls"] for r in records) / len(records),
            "core.receiver.duplicate_ratio":
                sum(r["duplicates"] for r in records) / required,
            "runtime.wire.crc_reject_count":
                sum(r["crc_rejects"] for r in records) / len(records),
            "runtime.transfer.allocs_per_pkt":
                sum(r["alloc_blocks"] for r in records) / sent,
        }


# ----------------------------------------------------------------------
# daemon_mixed_1k
# ----------------------------------------------------------------------
#: Session extension + data header + CRC on each daemon datagram.
_DAEMON_WIRE_OVERHEAD = 28


class DaemonMixed(Workload):
    name = "daemon_mixed_1k"
    min_ops = 4

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        from repro.core.config import FobsConfig

        self.nbytes = 64 * 1024 if tiny else 8 * MB
        self.config = FobsConfig(packet_size=1024, ack_frequency=64,
                                 checksum=True, batch_size=16,
                                 max_batch_size=64)
        self.root = os.path.join(workdir, "served")
        self.out = os.path.join(workdir, "client")
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.generation = 0
        self.daemon_peak_rss_mb = 0.0
        self.fetch_wire_bytes_required = 0
        self.daemon_bytes_sent = 0
        self.daemon_trace: dict | None = None

    # -- daemon life cycle ---------------------------------------------
    def _start_daemon(self, traced: bool) -> None:
        self.generation += 1
        tag = f"daemon-{self.generation}"
        self._stdout = os.path.join(self.workdir, tag + ".out")
        self._stderr = os.path.join(self.workdir, tag + ".err")
        self._trace_out = os.path.join(self.workdir, tag + ".trace.json")
        serve = ["serve", self.root, "--port", "0", "--bind", "127.0.0.1",
                 "--packet-size", "1024", "--ack-frequency", "64"]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "daemon_launcher.py")]
        else:
            cmd = [sys.executable, "-m", "repro"]
        env = dict(os.environ, FOBS_PERF_TRACE_OUT=self._trace_out)
        with open(self._stdout, "wb") as out, open(self._stderr, "wb") as err:
            self.proc = subprocess.Popen(cmd + serve, stdout=out, stderr=err,
                                         env=env, cwd=self.workdir)
        self._traced_daemon = traced
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(self._stderr) as fh:
                match = re.search(r"on tcp (\d+)", fh.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self._stop_daemon()
        with open(self._stderr) as fh:
            raise RuntimeError(f"daemon did not start: {fh.read()[-400:]}")

    def _stop_daemon(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            self.daemon_peak_rss_mb = max(self.daemon_peak_rss_mb,
                                          proc_peak_rss_mb(proc.pid))
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        with open(self._stdout) as fh:
            match = re.search(r"bytes_sent=(\d+)", fh.read())
        if match:
            self.daemon_bytes_sent += int(match.group(1))
        if self._traced_daemon and os.path.exists(self._trace_out):
            with open(self._trace_out) as fh:
                self.daemon_trace = json.load(fh)

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        self._stop_daemon()
        for path in (self.root, self.out):
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)
        # A subprocess, not an in-process ObjectServer: server and client
        # threads under one GIL convoy and the timings become bimodal.
        self._start_daemon(traced=tracer is not None)
        warm = self.prepare(-1)
        try:
            record = self.check(warm, self.run(warm))
        finally:
            self.cleanup(warm)
        if not record["ok"]:
            raise RuntimeError("daemon warm-up round failed")

    def teardown(self) -> None:
        self._stop_daemon()

    def cpu_s(self) -> float:
        daemon = proc_cpu_s(self.proc.pid) if self.proc is not None else 0.0
        return self_cpu_s() + daemon

    def peak_rss_mb(self) -> float:
        if self.proc is not None:
            self.daemon_peak_rss_mb = max(self.daemon_peak_rss_mb,
                                          proc_peak_rss_mb(self.proc.pid))
        return self_peak_rss_mb() + self.daemon_peak_rss_mb

    # -- one round -----------------------------------------------------
    def prepare(self, index: int):
        from repro.runtime.files import derive_transfer_id

        tag = f"{self.generation}-{index + 1}"
        fetch_blob = _seeded_bytes(self.seed, self.name, index + 1,
                                   self.nbytes, stream=0)
        push_blob = _seeded_bytes(self.seed, self.name, index + 1,
                                  self.nbytes, stream=1)
        inputs = {
            "fetch_blob": fetch_blob,
            "push_blob": push_blob,
            "fetch_name": f"obj-{tag}.bin",
            "fetch_out": os.path.join(self.out, f"got-{tag}.bin"),
            "push_src": os.path.join(self.out, f"push-{tag}.bin"),
        }
        tid = derive_transfer_id(len(push_blob), zlib.crc32(push_blob))
        inputs["push_dst"] = os.path.join(self.root, f"push-{tid:016x}.bin")
        with open(os.path.join(self.root, inputs["fetch_name"]), "wb") as fh:
            fh.write(fetch_blob)
        with open(inputs["push_src"], "wb") as fh:
            fh.write(push_blob)
        npackets = self.config.npackets(self.nbytes)
        self.fetch_wire_bytes_required += (
            self.nbytes + npackets * _DAEMON_WIRE_OVERHEAD)
        return inputs

    def run(self, inputs):
        from repro.runtime.files import send_file
        from repro.server import fetch_file

        out: dict = {}
        opener = self.tracer.opener if self.tracer is not None else open

        def fetch() -> None:
            t0 = time.perf_counter()
            out["fetch"] = fetch_file(
                inputs["fetch_name"], "127.0.0.1", self.port,
                inputs["fetch_out"], config=self.config, timeout=60.0,
                verify=True, opener=opener)
            out["fetch_s"] = time.perf_counter() - t0

        def push() -> None:
            t0 = time.perf_counter()
            out["push"] = send_file(
                inputs["push_src"], "127.0.0.1", self.port,
                config=self.config, timeout=60.0, resume=True)
            out["push_s"] = time.perf_counter() - t0

        threads = [threading.Thread(target=fetch, name="fetch-client"),
                   threading.Thread(target=push, name="push-client")]
        daemon_cpu = proc_cpu_s(self.proc.pid)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out["daemon_cpu_s"] = proc_cpu_s(self.proc.pid) - daemon_cpu
        return out

    def check(self, inputs, outputs) -> dict:
        fetch, push = outputs.get("fetch"), outputs.get("push")
        ok = bool(fetch is not None and push is not None
                  and fetch.completed and fetch.crc_ok
                  and push.completed and push.crc_ok)
        if ok and self.corrupt_next_output:
            self.corrupt_next_output = False
            _corrupt_file(inputs["fetch_out"])
        if ok:
            with open(inputs["fetch_out"], "rb") as fh:
                ok = fh.read() == inputs["fetch_blob"]
        if ok:
            with open(inputs["push_dst"], "rb") as fh:
                ok = fh.read() == inputs["push_blob"]
        npackets = self.config.npackets(self.nbytes)
        return {
            "ok": ok,
            "payload_bytes": 2 * self.nbytes,
            "fetch_s": outputs.get("fetch_s", 0.0),
            "push_s": outputs.get("push_s", 0.0),
            "packets_sent": push.packets_sent if push is not None else 0,
            "packets_required": npackets,
            "verify_s": fetch.verify_seconds if fetch is not None else 0.0,
            "daemon_cpu_s": outputs.get("daemon_cpu_s", 0.0),
        }

    def cleanup(self, inputs) -> None:
        for directory in (self.root, self.out):
            for entry in os.listdir(directory):
                os.unlink(os.path.join(directory, entry))

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        return {"fetch_s_p50": median(r["fetch_s"] for r in records),
                "push_s_p50": median(r["push_s"] for r in records)}

    def layer_counts(self, records) -> dict:
        sent = sum(r["packets_sent"] for r in records)
        required = sum(r["packets_required"] for r in records)
        gb = sum(r["payload_bytes"] for r in records) / 1e9
        out = {
            # the push direction: this process is the sender
            "core.sender.waste_ratio": sent / required - 1.0,
            "runtime.files.verify_s": median(r["verify_s"] for r in records),
            "server.daemon.peak_rss_mb": self.daemon_peak_rss_mb,
            "server.daemon.cpu_s_per_gb":
                sum(r["daemon_cpu_s"] for r in records) / gb,
        }
        if self.daemon_bytes_sent:  # known once the daemon has drained
            out["server.daemon.fetch_waste_ratio"] = (
                self.daemon_bytes_sent / self.fetch_wire_bytes_required - 1.0)
        return out


# ----------------------------------------------------------------------
# dataset_sync_local
# ----------------------------------------------------------------------
class DatasetSync(Workload):
    name = "dataset_sync_local"
    min_ops = 6

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        from repro.dataset import mixed_tree_spec

        if tiny:
            self.spec = mixed_tree_spec(
                nsmall=40, small_bytes=400, nmedium=3, medium_bytes=20_000,
                nlarge=2, large_bytes=300_000)
        else:
            self.spec = mixed_tree_spec(
                nsmall=1000, small_bytes=400, nmedium=40,
                medium_bytes=200_000, nlarge=3, large_bytes=8_000_000)
        self.src = os.path.join(workdir, "tree-src")
        self.dst = os.path.join(workdir, "tree-dst")
        self.nobjects = 0

    def _generate_tree(self) -> None:
        """Write the spec's layout with content drawn from ``--seed``.

        (``TreeSpec.generate`` seeds each file from ``hash(path)``, which
        changes from one interpreter to the next.)  A repeated set-up
        writes the same bytes over the files it finds: see :meth:`cleanup`
        for why nothing is deleted while a run lasts.
        """
        for d in self.spec.dirs:
            os.makedirs(os.path.join(self.src, d), exist_ok=True)
        self.nbytes = sum(self.spec.sizes.values())
        self.nfiles = len(self.spec.sizes)
        blob = memoryview(_seeded_bytes(self.seed, self.name, 0, self.nbytes))
        offset = 0
        made = set()
        for path in sorted(self.spec.sizes):
            full = os.path.join(self.src, path)
            parent = os.path.dirname(full)
            if parent not in made:
                os.makedirs(parent, exist_ok=True)
                made.add(parent)
            size = self.spec.sizes[path]
            with open(full, "wb") as fh:
                fh.write(blob[offset:offset + size])
            offset += size

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        self._generate_tree()
        warm = self.prepare(-1)
        self.cleanup(warm)  # a repeated set-up finds the last op's tree
        try:
            record = self.check(warm, self.run(warm))
        finally:
            self.cleanup(warm)
        if not record["ok"]:
            raise RuntimeError("dataset warm-up sync failed")
        self.nobjects = record["nobjects"]

    def prepare(self, index: int):
        # Ops 2, 5, 8, ... are killed half way and resumed; the warm-up
        # and the others are fresh syncs.
        return {"dst": self.dst, "resume": index >= 0 and index % 3 == 2}

    def run(self, inputs):
        from repro.dataset import LocalTransport, sync_tree

        if not inputs["resume"]:
            return sync_tree(self.src, inputs["dst"],
                             transport=LocalTransport()), None
        killed = sync_tree(self.src, inputs["dst"],
                           transport=LocalTransport(),
                           kill_after_objects=max(self.nobjects // 2, 1))
        t0 = time.perf_counter()
        resumed = sync_tree(self.src, inputs["dst"],
                            transport=LocalTransport())
        return resumed, (killed, time.perf_counter() - t0)

    def check(self, inputs, outputs) -> dict:
        from repro.dataset import trees_equal

        result, resume = outputs
        ok = bool(result.completed)
        if resume is not None:
            killed, _resume_s = resume
            ok = ok and killed.killed and result.objects_skipped > 0
        if ok and self.corrupt_next_output:
            self.corrupt_next_output = False
            _corrupt_file(os.path.join(
                inputs["dst"], max(self.spec.sizes, key=self.spec.sizes.get)))
        ok = ok and trees_equal(self.src, inputs["dst"])
        return {
            "ok": ok,
            "payload_bytes": self.nbytes,
            "kind": "resume" if resume is not None else "fresh",
            "resume_s": resume[1] if resume is not None else None,
            "nobjects": result.nobjects,
        }

    def cleanup(self, inputs) -> None:
        """Empty the destination tree's files; delete none of them.

        ext4 will not hand out an inode again within 5 s of its deletion
        and walks past every such inode on each create, so a loop that
        deletes a synced tree and syncs the next one pays for all the
        files it deleted in the last 5 s on every file it creates: op time
        climbed from 0.25 s to 0.6 s over a run's first seconds and then
        sat wherever the host's speed and its other deletions put it.
        Emptied files cost the program the same work (it sizes and writes
        every file) and leave the next op nothing to be found equal with.
        """
        from repro.dataset import JOURNAL_NAME

        for parent, _dirs, files in os.walk(inputs["dst"]):
            for name in files:
                path = os.path.join(parent, name)
                if name == JOURNAL_NAME:
                    os.unlink(path)
                else:
                    os.truncate(path, 0)

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        out = {"files_per_s": self.nfiles / op_s_p50}
        resumes = [r["resume_s"] for r in records if r["kind"] == "resume"]
        if resumes:
            out["resume_s_p50"] = median(resumes)
        return out

    def layer_counts(self, records) -> dict:
        from repro.dataset import (plan_objects, scan_tree, schedule,
                                   sequential_write_fraction)

        return {"dataset.sequential_write_fraction": sequential_write_fraction(
            schedule(plan_objects(scan_tree(self.src))))}


# ----------------------------------------------------------------------
# des_paper_paths / des_fleet
# ----------------------------------------------------------------------
def _engine_check(kind: str, seed: int, tiny: bool) -> dict:
    """Same small job on the default engine here and on the pure-Python
    engine in a subprocess: equal outcomes, and the ratio of the walls."""
    import pure_engine

    here = pure_engine.reference_job(kind, seed, tiny)
    env = dict(os.environ, REPRO_PURE_PYTHON="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "pure_engine.py"), kind,
         str(seed), "1" if tiny else "0"],
        env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"pure-Python engine run failed: {proc.stderr}")
    pure = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "equal": pure["outcome"] == json.loads(json.dumps(here["outcome"])),
        "c_engine": here["c_engine"],
        "speedup": pure["wall_s"] / here["wall_s"],
    }


def _queue_drops(net) -> int:
    return sum(link.queue.stats.dropped for link in net.links.values()
               if hasattr(link, "queue"))


class _DesWorkload(Workload):
    """What both simulator workloads share: each pass must reproduce the
    first one's outcome, and the engines must agree."""

    min_ops = 2
    #: Name of the outcome digest in the report.
    digest_key = ""
    engine_speedup = 0.0

    def _matches_first(self, outcome: str) -> bool:
        # A deterministic simulator must repeat itself exactly.
        self.reference = getattr(self, "reference", None) or outcome
        return outcome == self.reference

    def _digest(self, outcome: str) -> str:
        return outcome

    def finish(self, records) -> dict:
        outcomes = {r["outcome"] for r in records}
        engines = _engine_check(self.name, self.seed, self.tiny)
        if engines["c_engine"]:
            self.engine_speedup = engines["speedup"]
        return {
            "ok": len(outcomes) == 1 and engines["equal"],
            "digests": {
                self.digest_key: self._digest(records[0]["outcome"]),
                "passes_identical": len(outcomes) == 1,
                "c_equals_pure_python": engines["equal"],
                "c_engine_loaded": engines["c_engine"],
            },
        }


class DesPaperPaths(_DesWorkload):
    name = "des_paper_paths"
    digest_key = "outcome_sha256"

    def _digest(self, outcome: str) -> str:
        return hashlib.sha256(outcome.encode()).hexdigest()

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.nbytes = 400_000 if tiny else 40_000_000
        self.telemetry_pairs = 2 if tiny else 5
        self.telemetry_nbytes = 400_000 if tiny else 8_000_000

    def _transfers(self):
        import repro
        from repro.core import FobsConfig

        small = FobsConfig(packet_size=1024, ack_frequency=64)
        big = FobsConfig(packet_size=32768, ack_frequency=16)
        return (("short_haul", repro.short_haul, small),
                ("long_haul", repro.long_haul, small),
                ("contended_path", repro.contended_path, small),
                ("gigabit_path", repro.gigabit_path, big))

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        import repro
        from repro.core import FobsConfig, run_fobs_transfer

        # Loads the engine (compiling _evloop on a first run) and the
        # fast path's caches; a full pass would triple set-up for nothing.
        stats = run_fobs_transfer(
            repro.short_haul(seed=self.seed), min(self.nbytes, 4_000_000),
            FobsConfig(packet_size=1024, ack_frequency=64))
        if not stats.completed:
            raise RuntimeError("DES warm-up transfer failed")

    def prepare(self, index: int):
        return {}

    def run(self, inputs):
        import repro
        from repro.core import run_fobs_transfer
        from repro.tcp import TcpOptions, run_bulk_transfer

        runs = []
        for label, make, config in self._transfers():
            net = make(seed=self.seed)
            t0 = time.perf_counter()
            stats = run_fobs_transfer(net, self.nbytes, config)
            runs.append((label, time.perf_counter() - t0, stats, net))
        lwe = TcpOptions(window_scaling=True, sack=True)
        net = repro.long_haul(seed=self.seed)
        t0 = time.perf_counter()
        bulk = run_bulk_transfer(net, self.nbytes, sender_options=lwe,
                                 receiver_options=lwe)
        runs.append(("tcp_lwe_long_haul", time.perf_counter() - t0, bulk,
                     net))
        return runs

    def check(self, inputs, outputs) -> dict:
        ok = True
        sent = required = events = drops = 0
        outcome = []
        pct = []
        tcp_segments = tcp_wall = 0.0
        for label, wall, stats, net in outputs:
            ok = ok and bool(stats.completed)
            events += net.sim.processed
            drops += _queue_drops(net)
            pct.append(stats.percent_of_bottleneck)
            if label.startswith("tcp"):
                conn = stats.sender_stats
                sent += conn.data_segments_sent
                required += (conn.data_segments_sent
                             - conn.retransmitted_segments)
                tcp_segments, tcp_wall = conn.segments_sent, wall
                outcome.append((label, stats.duration,
                                conn.data_segments_sent,
                                conn.retransmitted_segments))
            else:
                sent += stats.packets_sent
                required += stats.npackets
                outcome.append((label, stats.duration, stats.packets_sent,
                                stats.retransmissions,
                                stats.wasted_fraction))
        if self.corrupt_next_output:
            self.corrupt_next_output = False
            outcome[0] = outcome[0][:1] + (outcome[0][1] * 2,) + outcome[0][2:]
        return {
            "ok": ok and self._matches_first(repr(outcome)),
            "payload_bytes": self.nbytes * len(outputs),
            "sim_packets": sent,
            "sim_required": required,
            "sim_events": events,
            "queue_drops": drops,
            "sim_pct": sum(pct) / len(pct),
            "tcp_segments": tcp_segments,
            "tcp_wall_s": tcp_wall,
            "outcome": repr(outcome),
        }

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        first = records[0]
        return {
            "des_pkts_per_host_s": first["sim_packets"] / op_s_p50,
            "sim_goodput_pct_of_bottleneck": first["sim_pct"],
            "sim_waste_ratio":
                first["sim_packets"] / first["sim_required"] - 1.0,
        }

    def layer_counts(self, records) -> dict:
        first = records[0]
        return {
            "simnet.engine.events_per_sim_pkt":
                first["sim_events"] / first["sim_packets"],
            "simnet.queue_drops": first["queue_drops"],
            "tcp.segments_per_host_s": median(
                r["tcp_segments"] / r["tcp_wall_s"] for r in records),
            "simnet.engine.c_over_python_speedup":
                self.engine_speedup,
        }

    def telemetry_overhead(self) -> dict:
        """Interleaved pairs of one transfer with JSONL recording on/off."""
        import repro
        from repro.core import FobsConfig, run_fobs_transfer
        from repro.telemetry import EventBus, JsonlSink

        config = FobsConfig(packet_size=1024, ack_frequency=64)
        path = os.path.join(self.workdir, "telemetry.jsonl")
        ratios = []
        keys = set()
        lines = packets = 0
        for _ in range(self.telemetry_pairs):
            walls = {}
            for mode in ("off", "jsonl"):
                bus = None
                if mode == "jsonl":
                    sink = JsonlSink(path, producer="perf")
                    bus = EventBus(sinks=[sink])
                t0 = time.perf_counter()
                stats = run_fobs_transfer(
                    repro.short_haul(seed=self.seed), self.telemetry_nbytes,
                    config, telemetry=bus)
                if bus is not None:
                    bus.close()
                    lines, packets = sink.lines_written, stats.packets_sent
                walls[mode] = time.perf_counter() - t0
                keys.add((stats.completed, stats.duration,
                          stats.packets_sent, stats.retransmissions))
            ratios.append(walls["jsonl"] / walls["off"])
        os.unlink(path)
        return {"telemetry_overhead_ratio": median(ratios),
                "telemetry.events_per_pkt": lines / packets,
                "outcome_unchanged": len(keys) == 1}


class DesFleet(_DesWorkload):
    name = "des_fleet"
    digest_key = "report_sha256"
    scenarios = ("steady", "flash-crowd", "resume-storm")
    #: The fleet is drawn from its seed (class mix, log-normal object
    #: sizes), and ten seeds moved a pass's simulated packet count by
    #: 12 % and its wall by 20 % -- as much as the regression bound.  So
    #: the population is part of the workload's definition, like an
    #: object size, and ``--seed`` does not redraw it.
    scenario_seed = 0

    def setup(self, tracer=None) -> None:
        super().setup(tracer)
        from repro.loadtest import run_scenario

        run_scenario("smoke", seed=self.seed, clients=8 if self.tiny else None)

    def prepare(self, index: int):
        return {}

    def _clients(self, name: str) -> int:
        from repro.loadtest import SCENARIOS

        # Half the named fleet: arrival rates scale with the size, so the
        # scenario keeps its shape and a pass fits the time cap three times.
        return 8 if self.tiny else SCENARIOS[name].clients // 2

    def run(self, inputs):
        from repro.loadtest import run_scenario

        return [run_scenario(name, seed=self.scenario_seed,
                             clients=self._clients(name))
                for name in self.scenarios]

    def check(self, inputs, outputs) -> dict:
        sent = required = nbytes = events = tel_events = 0
        ok = True
        for run in outputs:
            ran = [s for s in run.result.stats if s is not None]
            # A herd scenario may abort single transfers (that is what its
            # SLO report counts); a pass is wrong when the simulation did
            # not end (clock expired) or does not reproduce itself.
            ok = ok and bool(ran) and not any(s.timed_out for s in ran)
            sent += sum(s.packets_sent for s in ran)
            required += sum(s.npackets for s in ran)
            nbytes += sum(s.nbytes for s in ran)
            events += run.server.sim.processed
            tel_events += len(run.events)
        digest = hashlib.sha256(
            "\n".join(run.render() for run in outputs).encode()).hexdigest()
        if self.corrupt_next_output:
            self.corrupt_next_output = False
            digest = "0" * 64
        return {
            "ok": ok and self._matches_first(digest),
            "payload_bytes": nbytes,
            "sim_packets": sent,
            "sim_required": required,
            "sim_events": events,
            "telemetry_events": tel_events,
            "outcome": digest,
        }

    def workload_metrics(self, records, op_s_p50: float) -> dict:
        first = records[0]
        return {
            "des_pkts_per_host_s": first["sim_packets"] / op_s_p50,
            "sim_waste_ratio":
                first["sim_packets"] / first["sim_required"] - 1.0,
        }

    def layer_counts(self, records) -> dict:
        first = records[0]
        return {
            "simnet.engine.events_per_sim_pkt":
                first["sim_events"] / first["sim_packets"],
            "telemetry.events_per_pkt":
                first["telemetry_events"] / first["sim_packets"],
            "simnet.engine.c_over_python_speedup":
                self.engine_speedup,
        }


def make(name: str, seed: int, workdir: str, tiny: bool = False) -> Workload:
    if name == "loopback_1k":
        return Loopback(name, 1024, 8 * MB, seed, workdir, tiny)
    if name == "loopback_32k":
        return Loopback(name, 32768, 64 * MB, seed, workdir, tiny)
    if name == "daemon_mixed_1k":
        return DaemonMixed(seed, workdir, tiny)
    if name == "dataset_sync_local":
        return DatasetSync(seed, workdir, tiny)
    if name == "des_paper_paths":
        return DesPaperPaths(seed, workdir, tiny)
    if name == "des_fleet":
        return DesFleet(seed, workdir, tiny)
    raise ValueError(f"unknown workload {name!r}")
