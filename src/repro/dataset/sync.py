"""``sync_tree``: move a whole directory tree as scheduled objects.

The dataset pipeline, end to end::

    scan_tree ──> plan_objects ──> schedule ──> [pack → transfer →
        unpack → verify → write → journal]* ──> finalize

Each scheduled object is packed from the source tree, handed to a
*transport*, unpacked at the destination with its framing digests **and**
cross-checked against the dataset manifest, written at its members'
offsets, and only then recorded in the dataset journal
(data-before-log).  A killed sync therefore resumes at chunk-object
granularity: the journal's done-set is re-audited against the manifest
(the VERIFY discipline — never trust a claimed object whose bytes
changed), demoted objects are struck durably, and strictly the
remainder is re-sent.

Transports decouple the dataset layer from the data plane:

* :class:`LocalTransport` — in-process: the packed bytes are delivered
  directly (the pack/verify/unpack machinery still runs end to end).
  The default; used by ``repro sync`` on one host.
* :class:`LoopbackTransport` — each object rides the real-socket FOBS
  stack (:func:`repro.runtime.files.send_endpoint` and
  :func:`~repro.runtime.files.receive_endpoint`, on one thread) with
  the :class:`~repro.runtime.supervisor.TransferSupervisor` retry loop,
  per-chunk VERIFY manifests and receiver journals — the full
  object-transfer hardening, per dataset object.

The DES backend lives in :mod:`repro.dataset.sim` (the same plan and
schedule drive :class:`~repro.server.sim.SimObjectServer` specs).
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.core.manifest import ALGO_CRC32
from repro.dataset.journal import DatasetJournal
from repro.dataset.manifest import (
    DEFAULT_CHUNK_SIZE,
    DatasetManifest,
    scan_tree,
)
from repro.dataset.packing import (
    PackCorrupt,
    PackingConfig,
    TransferPlan,
    pack_object,
    plan_objects,
    unpack_object,
)
from repro.dataset.scheduler import SchedulerConfig, _lane_key, \
    default_spindle, schedule
from repro.telemetry import (
    EV_CHUNK_DONE,
    EV_CHUNK_SCHEDULED,
    EV_DATASET_PACK,
    EV_DATASET_RESUME,
    EV_DATASET_UNPACK,
    NULL_CHANNEL,
    EventBus,
)

#: Journal file name, kept inside the destination tree (and excluded
#: from any scan of it).
JOURNAL_NAME = ".repro-dataset.journal"


@dataclass
class TransportReceipt:
    """Data-plane accounting for one object delivery."""

    packets_sent: int = 0
    retransmissions: int = 0
    resumed_packets: int = 0
    attempts: int = 1
    duration: float = 0.0


class LocalTransport:
    """Deliver packed objects in-process (no sockets).

    ``packet_size`` only feeds the packets_sent accounting, for parity
    with the socket transports.
    """

    def __init__(self, packet_size: int = 1024):
        self.packet_size = packet_size

    def transfer(self, name: str, blob: bytes) -> Tuple[bytes,
                                                        TransportReceipt]:
        del name
        return blob, TransportReceipt(
            packets_sent=-(-len(blob) // self.packet_size),
            duration=1e-9)

    def close(self) -> None:
        pass


class LoopbackTransport:
    """Deliver each object through the real-socket FOBS stack.

    Every object is one resumable, VERIFY-audited session over
    localhost UDP, both ends on the calling thread: the packed object
    is sent from memory into a ``.dst`` spool file, and the
    TransferSupervisor retries on failure.  Slow next to
    :class:`LocalTransport`, but it exercises the genuine wire path —
    ``repro sync --transport loopback`` and the loopback tests use it.
    """

    def __init__(self, config=None, max_attempts: int = 2,
                 timeout: float = 60.0):
        from repro.core.config import FobsConfig

        self.config = config if config is not None else FobsConfig(
            ack_frequency=16)
        self.max_attempts = max_attempts
        self.timeout = timeout
        self._spool = tempfile.mkdtemp(prefix="repro-dataset-")

    def transfer(self, name: str, blob: bytes) -> Tuple[bytes,
                                                        TransportReceipt]:
        from repro.runtime import files as rt_files, transfer as rt_transfer

        dst = os.path.join(self._spool, name + ".dst")
        rx = rt_files.receive_endpoint(
            dst, 0, bind="127.0.0.1", timeout=self.timeout,
            max_attempts=self.max_attempts, config=self.config)
        tx = rt_files.send_endpoint(
            blob, "127.0.0.1", rx.socks[0].getsockname()[1],
            config=self.config, timeout=self.timeout,
            max_attempts=self.max_attempts)
        rt_transfer.run_endpoints([rx, tx])
        result, received = tx.result, rx.result
        if not (result.completed and received.completed):
            reason = result.failure_reason or received.failure_reason
            raise PackCorrupt(f"loopback transfer of {name} failed: {reason}")
        with open(dst, "rb") as fh:
            delivered = fh.read()
        os.remove(dst)
        return delivered, TransportReceipt(
            packets_sent=result.packets_sent,
            retransmissions=result.packets_retransmitted,
            resumed_packets=result.resumed_packets,
            attempts=result.attempts,
            duration=result.duration)

    def close(self) -> None:
        import shutil

        shutil.rmtree(self._spool, ignore_errors=True)


class SyncKilled(Exception):
    """Internal: crash injection fired (``kill_after_objects``)."""


@dataclass
class DatasetSyncResult:
    """Outcome of one :func:`sync_tree` run (one attempt epoch)."""

    completed: bool
    dataset_id: int
    failure_reason: Optional[str] = None
    #: True when crash injection ended the run (tests/benchmarks).
    killed: bool = False
    nfiles: int = 0
    ndirs: int = 0
    nobjects: int = 0
    bytes_total: int = 0
    #: Objects moved by *this* run.
    objects_transferred: int = 0
    #: Journal-claimed objects skipped after passing the resume audit.
    objects_skipped: int = 0
    #: Journal-claimed objects struck by the resume audit (re-sent).
    objects_demoted: int = 0
    bytes_transferred: int = 0
    bytes_skipped: int = 0
    wire_bytes: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    #: Deliveries that failed digest verification and were retried.
    verify_failures: int = 0
    duration: float = 0.0

    @property
    def resumed(self) -> bool:
        return self.objects_skipped > 0

    @property
    def files_per_sec(self) -> float:
        return self.nfiles / self.duration if self.duration > 0 else 0.0

    @property
    def goodput_bps(self) -> float:
        return (self.bytes_transferred * 8.0 / self.duration
                if self.duration > 0 else 0.0)


def _audit_done_objects(
    plan: TransferPlan,
    done: Set[int],
    dest_root: str,
) -> Tuple[Set[int], Set[int]]:
    """Re-verify journal-claimed objects against the dataset manifest.

    Returns ``(verified, demoted)``.  A claimed object whose
    destination bytes are missing, short, or fail their chunk digests
    is demoted — the resume never trusts the journal over the disk.
    """
    manifest = plan.manifest
    verified: Set[int] = set()
    demoted: Set[int] = set()
    by_index = {obj.index: obj for obj in plan.objects}
    for index in sorted(done):
        obj = by_index.get(index)
        if obj is None:
            demoted.add(index)
            continue
        ok = True
        for m in obj.members:
            entry = manifest.entry_for(m.path)
            path = os.path.join(dest_root, m.path.replace("/", os.sep))
            try:
                with open(path, "rb") as fh:
                    bad = entry.verify_range(fh, m.file_offset, m.length,
                                             manifest.chunk_size,
                                             manifest.algo)
            except OSError:
                ok = False
                break
            if bad:
                ok = False
                break
        (verified if ok else demoted).add(index)
    return verified, demoted


def _write_member(path: str, size: int, offset: int, payload: memoryview,
                  sized: Set[str]) -> None:
    """``pwrite`` one member's bytes into its destination file.

    The first member to reach a file sizes it to its final length (a
    stale longer file is cut back); the others only write.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        if path not in sized:
            os.ftruncate(fd, size)
            sized.add(path)
        while payload:  # a pwrite may land fewer bytes than asked
            n = os.pwrite(fd, payload, offset)
            payload = payload[n:]
            offset += n
    finally:
        os.close(fd)


def sync_tree(
    src_root: str,
    dest_root: str,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    algo: int = ALGO_CRC32,
    packing: Optional[PackingConfig] = None,
    scheduler: Optional[SchedulerConfig] = None,
    manifest: Optional[DatasetManifest] = None,
    journal_path: Optional[str] = None,
    resume: bool = True,
    transport=None,
    telemetry: Optional[EventBus] = None,
    max_object_attempts: int = 3,
    preserve_mtimes: bool = True,
    kill_after_objects: Optional[int] = None,
) -> DatasetSyncResult:
    """Replicate the tree at ``src_root`` into ``dest_root``.

    Deterministic end to end: the scan, the plan and the schedule are
    pure functions of the source tree and the configs.  Failures are
    *returned* (``completed=False`` with a ``failure_reason``), never
    raised, so callers can report them; a run ended by crash injection
    additionally sets ``killed=True``.

    ``resume`` (default) opens the dataset journal at ``journal_path``
    (default ``dest_root/.repro-dataset.journal``): claimed objects are
    re-audited against the manifest digests, demoted if the disk
    disagrees, and the rest skipped — the run transfers strictly fewer
    bytes than a fresh start whenever at least one object survived.

    ``kill_after_objects=N`` simulates SIGKILL after the Nth completed
    object of this run (the journal keeps its flushed records, exactly
    like a real crash) — the hook the resume tests and benchmarks use.
    """
    t0 = time.monotonic()
    own_transport = transport is None
    transport = transport if transport is not None else LocalTransport()
    spindle_of = ((scheduler.spindle_of if scheduler is not None else None)
                  or default_spindle)
    try:
        if manifest is None:
            manifest = scan_tree(src_root, chunk_size, algo)
        plan = plan_objects(manifest, packing)
        order = schedule(plan, scheduler)
    except (OSError, ValueError) as exc:
        if own_transport:
            transport.close()
        return DatasetSyncResult(
            completed=False, dataset_id=0,
            failure_reason=f"{type(exc).__name__}: {exc}",
            duration=max(time.monotonic() - t0, 1e-9))

    result = DatasetSyncResult(
        completed=False, dataset_id=manifest.dataset_id,
        nfiles=manifest.nfiles, ndirs=len(manifest.dirs),
        nobjects=plan.nobjects, bytes_total=manifest.total_bytes)
    if telemetry is not None and telemetry.enabled:
        channel = telemetry.channel(
            transfer_id=manifest.dataset_id & 0x7FFFFFFFFFFFFFFF,
            src="dataset")
    else:
        channel = NULL_CHANNEL

    if journal_path is None:
        journal_path = os.path.join(dest_root, JOURNAL_NAME)
    journal: Optional[DatasetJournal] = None
    try:
        # Materialize the directory skeleton and the zero-byte files
        # up front — they carry no objects, so they must not depend on
        # any transfer succeeding.  Every directory a file lands in is
        # made here, once (a caller-supplied manifest may not list it).
        os.makedirs(dest_root, exist_ok=True)
        parents = {e.path.rpartition("/")[0] for e in manifest.entries}
        for d in sorted((parents | set(manifest.dirs)) - {""}):
            os.makedirs(os.path.join(dest_root, d.replace("/", os.sep)),
                        exist_ok=True)
        for path in plan.empty_files:
            with open(os.path.join(dest_root, path.replace("/", os.sep)),
                      "wb"):
                pass

        done: Set[int] = set()
        if plan.nobjects:
            if resume:
                journal, replay = DatasetJournal.open(
                    journal_path, manifest.dataset_id, plan.nobjects)
            else:
                journal = DatasetJournal.create(
                    journal_path, manifest.dataset_id, plan.nobjects)
                replay = None
            if replay is not None and replay.done:
                verified, demoted = _audit_done_objects(
                    plan, replay.done, dest_root)
                if demoted:
                    journal.demote(demoted)
                done = verified
                result.objects_demoted = len(demoted)
                by_index = {o.index: o for o in plan.objects}
                result.bytes_skipped = sum(
                    by_index[i].payload_bytes for i in done)
                result.objects_skipped = len(done)
                if channel.enabled:
                    channel.emit(EV_DATASET_RESUME,
                                 objects_done=len(done),
                                 objects_demoted=len(demoted),
                                 objects_total=plan.nobjects,
                                 bytes_skipped=result.bytes_skipped)

        sized: Set[str] = set()
        for position, obj in enumerate(order):
            if obj.index in done:
                continue
            if channel.enabled:
                channel.emit(EV_CHUNK_SCHEDULED, object=obj.index,
                             obj_kind=obj.kind_name,
                             lane=_lane_key(obj, spindle_of),
                             position=position,
                             nbytes=obj.payload_bytes)
            try:
                blob = pack_object(obj, src_root, manifest.algo)
            except PackCorrupt as exc:
                # The source changed under the packer since the scan.
                result.failure_reason = (
                    f"pack failed: object {obj.index} ({obj.name}): {exc}")
                return result
            if channel.enabled:
                channel.emit(EV_DATASET_PACK, object=obj.index,
                             obj_kind=obj.kind_name,
                             members=len(obj.members),
                             nbytes=obj.payload_bytes,
                             wire_bytes=len(blob))
            obj_t0 = time.monotonic()
            members = None
            last_error = "unknown"
            for attempt in range(max_object_attempts):
                try:
                    delivered, receipt = transport.transfer(obj.name, blob)
                    _, members = unpack_object(delivered, manifest)
                    break
                except PackCorrupt as exc:
                    result.verify_failures += 1
                    last_error = str(exc)
                    del attempt
            if members is None:
                result.failure_reason = (
                    f"verify failed: object {obj.index} "
                    f"({obj.name}) undeliverable after "
                    f"{max_object_attempts} attempt(s): {last_error}")
                return result
            for m in members:
                _write_member(
                    os.path.join(dest_root, m.path.replace("/", os.sep)),
                    manifest.entry_for(m.path).size, m.file_offset,
                    m.payload, sized)
            if channel.enabled:
                channel.emit(EV_DATASET_UNPACK, object=obj.index,
                             members=len(members),
                             nbytes=obj.payload_bytes)
            if journal is not None:
                journal.mark_done(obj.index)
            result.objects_transferred += 1
            result.bytes_transferred += obj.payload_bytes
            result.wire_bytes += len(blob)
            result.packets_sent += receipt.packets_sent
            result.retransmissions += receipt.retransmissions
            if channel.enabled:
                channel.emit(EV_CHUNK_DONE, object=obj.index,
                             nbytes=obj.payload_bytes,
                             packets_sent=receipt.packets_sent,
                             duration=max(time.monotonic() - obj_t0, 1e-9))
            if (kill_after_objects is not None
                    and result.objects_transferred >= kill_after_objects):
                raise SyncKilled()

        # Finalize: carry source mtimes over, then retire the journal —
        # completion is the only thing that deletes it.
        if preserve_mtimes:
            for entry in manifest.entries:
                full = os.path.join(dest_root,
                                    entry.path.replace("/", os.sep))
                try:
                    os.utime(full, ns=(entry.mtime_ns, entry.mtime_ns))
                except OSError:
                    pass
        if journal is not None:
            journal.delete()
            journal = None
        result.completed = True
        return result
    except SyncKilled:
        if journal is not None:
            journal.simulate_crash()
            journal = None
        result.killed = True
        result.failure_reason = (
            f"killed by crash injection after "
            f"{result.objects_transferred} object(s)")
        return result
    except OSError as exc:
        result.failure_reason = f"{type(exc).__name__}: {exc}"
        return result
    finally:
        if journal is not None:
            journal.close()
        if own_transport:
            transport.close()
        result.duration = max(time.monotonic() - t0, 1e-9)


@dataclass
class TreeSpec:
    """Deterministic synthetic tree generator (tests and benchmarks).

    ``sizes`` maps relative paths to byte counts; ``generate`` writes
    seeded pseudo-random content so two generations are identical.
    """

    sizes: Dict[str, int] = field(default_factory=dict)
    dirs: Tuple[str, ...] = ()
    seed: int = 0

    def generate(self, root: str) -> None:
        import numpy as np

        os.makedirs(root, exist_ok=True)
        for d in self.dirs:
            os.makedirs(os.path.join(root, d.replace("/", os.sep)),
                        exist_ok=True)
        for path in sorted(self.sizes):
            nbytes = self.sizes[path]
            full = os.path.join(root, path.replace("/", os.sep))
            os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
            rng = np.random.default_rng(
                (self.seed * 0x9E3779B1 + hash(path)) & 0xFFFFFFFF)
            with open(full, "wb") as fh:
                if nbytes:
                    fh.write(rng.integers(0, 256, nbytes,
                                          dtype=np.uint8).tobytes())


def mixed_tree_spec(
    nsmall: int = 200,
    small_bytes: int = 200,
    nmedium: int = 4,
    medium_bytes: int = 40_000,
    nlarge: int = 2,
    large_bytes: int = 600_000,
    seed: int = 0,
) -> TreeSpec:
    """A mixed-size tree: many tiny files, some mid, a few huge."""
    sizes: Dict[str, int] = {}
    for i in range(nsmall):
        sizes[f"small/d{i % 10}/f{i:05d}.dat"] = small_bytes + (i % 17)
    for i in range(nmedium):
        sizes[f"medium/m{i:03d}.bin"] = medium_bytes + i * 137
    for i in range(nlarge):
        sizes[f"large/big{i}.blob"] = large_bytes + i * 4099
    sizes["empty/zero.dat"] = 0
    return TreeSpec(sizes=sizes, dirs=("empty/hollow",), seed=seed)


def trees_equal(a: str, b: str) -> bool:
    """Byte-for-byte equality of two trees (paths and contents)."""
    from repro.dataset.manifest import iter_tree

    dirs_a, files_a = iter_tree(a)
    dirs_b, files_b = iter_tree(b)
    files_b = [f for f in files_b if f != JOURNAL_NAME]
    if files_a != files_b:
        return False
    if sorted(set(dirs_a)) != sorted(set(dirs_b)):
        return False
    for rel in files_a:
        with open(os.path.join(a, rel), "rb") as fa, \
                open(os.path.join(b, rel), "rb") as fb:
            while True:
                ca, cb = fa.read(1 << 20), fb.read(1 << 20)
                if ca != cb:
                    return False
                if not ca:
                    break
    return True


__all__ = [
    "DatasetSyncResult",
    "JOURNAL_NAME",
    "LocalTransport",
    "LoopbackTransport",
    "TransportReceipt",
    "TreeSpec",
    "mixed_tree_spec",
    "sync_tree",
    "trees_equal",
]
