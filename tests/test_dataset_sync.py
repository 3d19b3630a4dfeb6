"""End-to-end dataset sync: equality, resume-after-kill, backends."""

from __future__ import annotations

import os

import pytest

from _support import rewrite_after_lstat
from repro.dataset import (
    JOURNAL_NAME,
    PackingConfig,
    SchedulerConfig,
    TreeSpec,
    mixed_tree_spec,
    plan_objects,
    run_sim_dataset,
    run_sim_naive,
    run_sim_resume,
    scan_tree,
    sync_tree,
    trees_equal,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

CHUNK = 4096
PACKING = PackingConfig(object_bytes=16 * CHUNK, pack_threshold=2 * CHUNK)


def small_mixed_spec(seed=0):
    """Small files + two files that stripe into >4 objects each."""
    sizes = {f"small/s{i:03d}": 100 + i * 7 for i in range(30)}
    sizes["mid/whole.bin"] = 10 * CHUNK
    sizes["big/a.blob"] = 80 * CHUNK + 100   # 6 stripes
    sizes["big/b.blob"] = 70 * CHUNK         # 5 stripes
    sizes["hollow/zero"] = 0
    return TreeSpec(sizes=sizes, dirs=("hollow/empty-dir",), seed=seed)


@pytest.fixture
def tree(tmp_path):
    src = str(tmp_path / "src")
    small_mixed_spec().generate(src)
    return src


class TestFullSync:
    def test_tree_equality_and_mtimes(self, tree, tmp_path):
        dest = str(tmp_path / "dest")
        result = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        assert result.completed and not result.failure_reason
        assert result.verify_failures == 0
        assert trees_equal(tree, dest)
        assert not os.path.exists(os.path.join(dest, JOURNAL_NAME))
        # mtimes carried over, empty dirs materialized
        m = scan_tree(tree, CHUNK)
        for entry in m.entries:
            assert os.stat(os.path.join(dest, entry.path)).st_mtime_ns \
                == entry.mtime_ns
        assert os.path.isdir(os.path.join(dest, "hollow", "empty-dir"))

    def test_striped_files_exceed_four_objects(self, tree):
        plan = plan_objects(scan_tree(tree, CHUNK), PACKING)
        stripes = {}
        for obj in plan.objects:
            if obj.nstripes > 1:
                stripes[obj.members[0].path] = obj.nstripes
        assert stripes["big/a.blob"] > 4
        assert stripes["big/b.blob"] > 4

    def test_accounting_adds_up(self, tree, tmp_path):
        result = sync_tree(tree, str(tmp_path / "d"), chunk_size=CHUNK,
                           packing=PACKING)
        m = scan_tree(tree, CHUNK)
        assert result.bytes_transferred == m.total_bytes
        assert result.nobjects == result.objects_transferred
        assert result.wire_bytes > result.bytes_transferred  # framing
        assert result.packets_sent > 0

    @pytest.mark.parametrize("policy", ["layout", "fifo", "random"])
    def test_all_policies_produce_equal_trees(self, tree, tmp_path, policy):
        dest = str(tmp_path / policy)
        result = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                           scheduler=SchedulerConfig(policy=policy, seed=9))
        assert result.completed and trees_equal(tree, dest)

    def test_missing_source_fails_cleanly(self, tmp_path):
        result = sync_tree(str(tmp_path / "nope"), str(tmp_path / "d"))
        assert not result.completed
        assert "NotADirectoryError" in (result.failure_reason or "")

    @pytest.mark.parametrize("victim", ["", "big"])
    def test_unreadable_directory_fails_cleanly(self, tree, tmp_path,
                                                monkeypatch, victim):
        # os.walk would leave the directory out and report success.
        denied = os.path.normpath(os.path.join(tree, victim))
        real_scandir = os.scandir

        def scandir(path):
            if os.path.normpath(path) == denied:
                raise PermissionError(13, "Permission denied", path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        result = sync_tree(tree, str(tmp_path / "d"), chunk_size=CHUNK,
                           packing=PACKING)
        assert not result.completed
        assert "PermissionError" in (result.failure_reason or "")

    def test_short_pwrites_still_land_every_byte(self, tree, tmp_path,
                                                 monkeypatch):
        real_pwrite = os.pwrite
        calls = []

        def half_pwrite(fd, data, offset):
            calls.append(len(data))
            return real_pwrite(fd, data[:max(1, len(data) // 2)], offset)

        monkeypatch.setattr(os, "pwrite", half_pwrite)
        dest = str(tmp_path / "dest")
        result = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        assert result.completed
        assert len(calls) > result.objects_transferred
        assert trees_equal(tree, dest)


class TestSourceChangesUnderThePacker:
    """The scan promised bytes the source no longer holds."""

    def test_truncated_source_fails_naming_the_member(self, tree, tmp_path):
        manifest = scan_tree(tree, CHUNK)
        with open(os.path.join(tree, "big", "a.blob"), "r+b") as fh:
            fh.truncate(20 * CHUNK + 5)
        result = sync_tree(tree, str(tmp_path / "d"), chunk_size=CHUNK,
                           packing=PACKING, manifest=manifest)
        assert not result.completed and not result.killed
        assert "big/a.blob" in result.failure_reason
        assert "shrank" in result.failure_reason

    def test_same_size_rewrite_fails_the_manifest_cross_check(
            self, tree, tmp_path):
        manifest = scan_tree(tree, CHUNK)
        path = os.path.join(tree, "mid", "whole.bin")
        with open(path, "r+b") as fh:
            fh.write(b"\x00" * 64)
        assert os.path.getsize(path) == manifest.entry_for(
            "mid/whole.bin").size
        result = sync_tree(tree, str(tmp_path / "d"), chunk_size=CHUNK,
                           packing=PACKING, manifest=manifest,
                           max_object_attempts=2)
        assert not result.completed
        assert result.verify_failures == 2
        assert result.failure_reason.startswith("verify failed")
        assert "mid/whole.bin" in result.failure_reason


    def test_file_emptied_mid_scan_syncs_as_empty(self, tree, tmp_path,
                                                  monkeypatch):
        rewrite_after_lstat(monkeypatch,
                            os.path.join(tree, "mid", "whole.bin"), b"")
        dest = str(tmp_path / "d")
        result = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        assert result.completed, result.failure_reason
        assert os.path.getsize(os.path.join(dest, "mid", "whole.bin")) == 0
        assert trees_equal(tree, dest)


class TestResume:
    def test_kill_then_resume_is_lossless(self, tree, tmp_path):
        dest = str(tmp_path / "dest")
        killed = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                           kill_after_objects=4)
        assert killed.killed and not killed.completed
        assert killed.objects_transferred == 4
        resumed = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        assert resumed.completed and resumed.resumed
        assert resumed.objects_skipped == 4
        assert resumed.objects_demoted == 0
        # strictly less re-sent than a fresh run would send
        assert resumed.objects_transferred == killed.nobjects - 4
        assert trees_equal(tree, dest)

    def test_resume_audit_demotes_corrupted_object(self, tree, tmp_path):
        dest = str(tmp_path / "dest")
        sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                  kill_after_objects=8)
        # Corrupt one byte of a file the killed run already landed.
        order = plan_objects(scan_tree(tree, CHUNK), PACKING)
        victim = None
        for obj in order.objects[:8]:
            victim = obj.members[0].path
            break
        with open(os.path.join(dest, victim), "r+b") as fh:
            fh.seek(0)
            byte = fh.read(1)
            fh.seek(0)
            fh.write(bytes([byte[0] ^ 0xFF]))
        resumed = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        assert resumed.completed
        assert resumed.objects_demoted >= 1
        assert trees_equal(tree, dest)

    def test_no_resume_starts_fresh(self, tree, tmp_path):
        dest = str(tmp_path / "dest")
        sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                  kill_after_objects=4)
        fresh = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                          resume=False)
        assert fresh.completed and fresh.objects_skipped == 0
        assert fresh.objects_transferred == fresh.nobjects
        assert trees_equal(tree, dest)

    def test_changed_source_rekeys_the_journal(self, tree, tmp_path):
        dest = str(tmp_path / "dest")
        sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                  kill_after_objects=4)
        with open(os.path.join(tree, "small", "s000"), "r+b") as fh:
            fh.write(b"CHANGED")
        resumed = sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING)
        # dataset_id changed -> stale journal ignored, full re-send
        assert resumed.completed and resumed.objects_skipped == 0
        assert trees_equal(tree, dest)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kill_at=st.integers(min_value=1, max_value=12),
           seed=st.integers(0, 99))
    def test_property_kill_at_any_chunk_never_loses_or_duplicates(
            self, kill_at, seed):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "src")
            dest = os.path.join(tmp, "dest")
            small_mixed_spec(seed=seed % 3).generate(src)
            killed = sync_tree(src, dest, chunk_size=CHUNK,
                               packing=PACKING,
                               kill_after_objects=kill_at)
            assert killed.killed
            resumed = sync_tree(src, dest, chunk_size=CHUNK,
                                packing=PACKING)
            assert resumed.completed
            # no object lost, none re-sent that already landed
            assert resumed.objects_skipped == kill_at
            assert (resumed.objects_transferred + resumed.objects_skipped
                    == resumed.nobjects)
            assert trees_equal(src, dest)


class TestDES:
    def test_packed_beats_naive_on_files_per_sec(self, tmp_path):
        from repro.simnet.topology import short_haul

        src = str(tmp_path / "src")
        mixed_tree_spec(nsmall=80, seed=11).generate(src)
        m = scan_tree(src, CHUNK)
        packed = run_sim_dataset(
            short_haul(seed=1), m,
            packing=PackingConfig(object_bytes=64 * CHUNK,
                                  pack_threshold=16 * CHUNK))
        naive = run_sim_naive(short_haul(seed=1), m)
        assert packed.all_ok and naive.all_ok
        assert packed.nsessions < naive.nsessions
        assert packed.files_per_sec > 2 * naive.files_per_sec
        assert packed.goodput_bps > naive.goodput_bps

    def test_resume_sends_strictly_fewer_packets(self, tmp_path):
        from repro.simnet.topology import short_haul

        src = str(tmp_path / "src")
        mixed_tree_spec(nsmall=40, seed=13).generate(src)
        m = scan_tree(src, CHUNK)
        resume, restart = run_sim_resume(
            lambda: short_haul(seed=2), m, kill_after_objects=3,
            packing=PackingConfig(object_bytes=64 * CHUNK,
                                  pack_threshold=16 * CHUNK))
        assert resume.all_ok and restart.all_ok
        assert resume.packets_sent < restart.packets_sent


@pytest.mark.loopback
class TestLoopback:
    def sync(self, tmp_path, during=None, monkeypatch=None):
        """A loopback sync of a three-file tree; ``during(transport)``
        runs each time a transfer loop starts."""
        from repro.dataset import LoopbackTransport
        from repro.runtime import transfer

        src = str(tmp_path / "src")
        dest = str(tmp_path / "dest")
        TreeSpec(sizes={"a/f1": 5000, "a/f2": 333, "b/big": 200_000},
                 seed=21).generate(src)
        transport = LoopbackTransport()
        if during is not None:
            run_endpoints = transfer.run_endpoints

            def watched(*args, **kwargs):
                during(transport)
                return run_endpoints(*args, **kwargs)

            monkeypatch.setattr(transfer, "run_endpoints", watched)
        try:
            result = sync_tree(src, dest, chunk_size=CHUNK,
                               packing=PackingConfig(
                                   object_bytes=16 * CHUNK,
                                   pack_threshold=2 * CHUNK),
                               transport=transport)
        finally:
            transport.close()
        assert result.completed and result.verify_failures == 0
        assert trees_equal(src, dest)
        return result

    def test_sync_over_real_sockets(self, tmp_path):
        result = self.sync(tmp_path)
        assert result.retransmissions >= 0

    def test_a_loopback_sync_starts_no_thread(self, tmp_path, monkeypatch):
        """Both ends of each object run on the calling thread."""
        import threading

        before = threading.active_count()
        counts = []
        self.sync(tmp_path, lambda _transport: counts.append(
            threading.active_count()), monkeypatch)
        assert counts and max(counts) == before

    def test_a_loopback_sync_spools_no_source_copy(self, tmp_path,
                                                   monkeypatch):
        """The sender sends the packed object from memory: no ``.src``
        file of it lands in the spool."""
        spooled = []
        self.sync(tmp_path, lambda transport: spooled.extend(
            os.listdir(transport._spool)), monkeypatch)
        assert not [name for name in spooled if name.endswith(".src")]


class TestTelemetry:
    def test_dataset_events_are_emitted(self, tree, tmp_path):
        from repro.telemetry import (
            EV_CHUNK_DONE,
            EV_CHUNK_SCHEDULED,
            EV_DATASET_PACK,
            EV_DATASET_RESUME,
            EV_DATASET_UNPACK,
            EventBus,
            RingBufferSink,
        )

        dest = str(tmp_path / "dest")
        sink = RingBufferSink()
        bus = EventBus(sinks=[sink])
        sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                  telemetry=bus, kill_after_objects=5)
        bus2 = EventBus(sinks=[sink])
        sync_tree(tree, dest, chunk_size=CHUNK, packing=PACKING,
                  telemetry=bus2)
        kinds = {e.kind for e in sink.events}
        assert {EV_DATASET_PACK, EV_DATASET_UNPACK, EV_CHUNK_SCHEDULED,
                EV_CHUNK_DONE, EV_DATASET_RESUME} <= kinds
        resume = [e for e in sink.events if e.kind == EV_DATASET_RESUME]
        assert resume[0].fields["objects_done"] == 5
