"""The record log primitive, exercised through both of its schemas.

One damage-mode suite (kill at each rewrite phase, ENOSPC during the
rewrite, stale temp file) runs over the packet journal *and* the
dataset journal; golden files written by the commit before the
primitive existed pin both on-disk formats byte for byte; a grep guard
keeps the framing written once.
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pytest

from repro.core.bitmap import PacketBitmap
from repro.core.journal import ReceiverJournal, replay_journal
from repro.core.recordlog import COMPACT_SUFFIX, RecordLog
from repro.dataset import (
    JOURNAL_NAME,
    PackingConfig,
    TreeSpec,
    plan_objects,
    scan_tree,
    sync_tree,
    trees_equal,
)
from repro.dataset.journal import DatasetJournal, replay_dataset_journal

TID = 0x0123456789ABCDEF
DID = 0xDEADBEEF12345678


class _Killed(BaseException):
    """Raised by the crash hook to model a kill -9 at an exact point."""


def kill_at(phase):
    def hook(p):
        if p == phase:
            raise _Killed(p)
    return hook


class PacketSchema:
    """Eleven packets in five runs; the facts are sequence numbers."""

    victim = 5

    @staticmethod
    def create(path):
        return ReceiverJournal.create(path, TID, 64_000, 1000, flush_every=4)

    @staticmethod
    def resume(path):
        return ReceiverJournal.resume(path, TID, 64_000, 1000)

    @staticmethod
    def populate(journal):
        for seq in (0, 1, 2, 3, 10, 11, 5):
            journal.record(seq)
        journal.record_range(20, 3)
        journal.record(40)
        journal.flush()

    @staticmethod
    def live(journal):
        return set(np.flatnonzero(journal.bitmap.array).tolist())

    @staticmethod
    def replayed(path):
        replay = replay_journal(path)
        assert replay.records_dropped == 0 and replay.torn_tail_bytes == 0
        return set(np.flatnonzero(replay.bitmap.array).tolist())

    @staticmethod
    def rewrite(journal):
        journal.compact()

    facts = rewritten_facts = {0, 1, 2, 3, 5, 10, 11, 20, 21, 22, 40}
    # Written by the parent commit (two hand-copied journals) from the
    # operations in ``populate``: five records, then ``rewrite`` of it.
    golden_records = 5
    golden_raw = bytes.fromhex(
        "f0b57a1e000100000123456789abcdef000000000000fa00000003e8f554f251"
        "0000000000000004fcb2149e0000000a00000002b5f70b32"
        "0000000500000001ab0ae2c20000001400000003ec6db51b"
        "00000028000000015f58c949")
    golden_compacted = bytes.fromhex(
        "f0b57a1e000100000123456789abcdef000000000000fa00000003e8f554f251"
        "0000000000000004fcb2149e0000000500000001ab0ae2c2"
        "0000000a00000002b5f70b320000001400000003ec6db51b"
        "00000028000000015f58c949")


class DatasetSchema:
    """Four done objects (one marked twice); the facts are indices."""

    victim = 0

    @staticmethod
    def create(path):
        return DatasetJournal.create(path, DID, 64)

    @staticmethod
    def resume(path):
        return DatasetJournal.resume(path, DID, 64)

    @staticmethod
    def populate(journal):
        for index in (5, 0, 9, 5, 63):
            journal.mark_done(index)

    @staticmethod
    def live(journal):
        return set(journal.done)

    @staticmethod
    def replayed(path):
        replay = replay_dataset_journal(path)
        assert replay.records_dropped == 0 and replay.torn_tail_bytes == 0
        return set(replay.done)

    @staticmethod
    def rewrite(journal):
        journal.demote([0])

    facts = {0, 5, 9, 63}
    rewritten_facts = {5, 9, 63}
    golden_records = 4  # as above
    golden_raw = bytes.fromhex(
        "f0b5d10600010000deadbeef12345678000000400cacdafb"
        "00000005e5a0a62f00000000af37e360000000090394553b0000003f5ebfec63")
    golden_compacted = bytes.fromhex(
        "f0b5d10600010000deadbeef12345678000000400cacdafb"
        "00000005e5a0a62f000000090394553b0000003f5ebfec63")


both_schemas = pytest.mark.parametrize(
    "schema", [PacketSchema, DatasetSchema], ids=["packet", "dataset"])


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "j.journal")


def populated(schema, path):
    journal = schema.create(path)
    schema.populate(journal)
    assert schema.live(journal) == schema.facts
    return journal


@both_schemas
class TestRewriteDamageModes:
    @pytest.mark.parametrize("phase", ["compact:tmp-synced",
                                       "compact:replaced"])
    def test_kill_at_phase_leaves_one_valid_journal(self, schema, path, phase):
        """Compaction changes the file, never the facts: whichever side
        of the rename the kill lands on, replay sees all of them."""
        journal = populated(schema, path)
        journal.crash_hook = kill_at(phase)
        with pytest.raises(_Killed):
            journal.compact()
        journal.simulate_crash()
        assert schema.replayed(path) == schema.facts

    @pytest.mark.parametrize("phase, struck", [("compact:tmp-synced", False),
                                               ("compact:replaced", True)])
    def test_killed_demotion_is_all_or_nothing(self, schema, path, phase,
                                               struck):
        """A kill before the rename keeps the old facts, after it the
        new ones — never a truncated half-rewrite."""
        journal = populated(schema, path)
        journal.crash_hook = kill_at(phase)
        with pytest.raises(_Killed):
            journal.demote([schema.victim])
        journal.simulate_crash()
        expected = schema.facts - {schema.victim} if struck else schema.facts
        assert schema.replayed(path) == expected

    def test_enospc_during_rewrite_keeps_journal_valid_and_appendable(
            self, schema, path):
        journal = populated(schema, path)

        def enospc(p):
            if p == "compact:tmp-synced":
                raise OSError(28, "injected ENOSPC")

        journal.crash_hook = enospc
        with pytest.raises(OSError):
            journal.compact()
        assert not os.path.exists(path + COMPACT_SUFFIX)
        journal.crash_hook = None
        journal.demote([schema.victim])  # the disk has room again
        journal.close()
        assert schema.replayed(path) == schema.facts - {schema.victim}

    def test_stale_rewrite_temp_is_removed_on_resume_and_delete(
            self, schema, path):
        journal = populated(schema, path)
        journal.crash_hook = kill_at("compact:tmp-synced")
        with pytest.raises(_Killed):
            journal.compact()
        journal.simulate_crash()
        assert os.path.exists(path + COMPACT_SUFFIX)
        resumed, _ = schema.resume(path)
        assert not os.path.exists(path + COMPACT_SUFFIX)
        assert schema.live(resumed) == schema.facts
        with open(path + COMPACT_SUFFIX, "wb") as fh:
            fh.write(b"left by a later kill")
        resumed.delete()
        assert glob.glob(path + "*") == []


@both_schemas
class TestGoldenBytes:
    """Files the parent commit wrote are this commit's format too."""

    def test_parent_files_replay_to_the_same_state(self, schema, path):
        for blob, facts in ((schema.golden_raw, schema.facts),
                            (schema.golden_compacted, schema.rewritten_facts)):
            with open(path, "wb") as fh:
                fh.write(blob)
            assert schema.replayed(path) == facts

    def test_writer_reproduces_parent_bytes(self, schema, path):
        populated(schema, path).close()
        with open(path, "rb") as fh:
            assert fh.read() == schema.golden_raw
        journal, _ = schema.resume(path)
        schema.rewrite(journal)
        journal.close()
        with open(path, "rb") as fh:
            assert fh.read() == schema.golden_compacted

    def test_journal_of_a_killed_parent_run_resumes(self, schema, path):
        """The parent's file plus the torn record its kill left."""
        with open(path, "wb") as fh:
            fh.write(schema.golden_raw + b"\x00\x00\x00")
        journal, replay = schema.resume(path)
        assert replay.torn_tail_bytes == 3
        assert replay.records_applied == schema.golden_records
        assert schema.live(journal) == schema.facts
        journal.close()
        assert os.path.getsize(path) == len(schema.golden_raw)


def test_auto_compaction_on_a_full_disk_never_fails_the_data_path(path):
    """The packet journal's back-off: a failed auto-compaction doubles
    the threshold instead of retrying (and failing) per record."""
    journal = ReceiverJournal.create(path, TID, 64_000, 1000,
                                     flush_every=1, compact_threshold=2)

    def enospc(p):
        raise OSError(28, "injected ENOSPC")

    journal.crash_hook = enospc
    for seq in range(0, 20, 2):
        journal.record(seq)
    assert journal.compactions == 0
    assert journal.compact_threshold >= 16
    journal.close()
    assert replay_journal(path).bitmap.count == 10


def test_replay_merges_once_not_once_per_record(path, monkeypatch):
    journal = ReceiverJournal.create(path, TID, 64_000, 1000, flush_every=1)
    for seq in range(0, 64, 2):
        journal.record(seq)
    journal.close()
    calls = []
    merge = PacketBitmap.merge
    monkeypatch.setattr(PacketBitmap, "merge",
                        lambda self, other: calls.append(1) or merge(self, other))
    replay = replay_journal(path)
    assert replay.records_applied == 32 and replay.bitmap.count == 32
    assert len(calls) == 1


def test_killed_dataset_demotion_leaves_no_foreign_file(tmp_path, monkeypatch):
    """A kill between the temp fsync and the rename used to leave
    ``.repro-dataset.journal.compact`` in the destination tree for good."""
    chunk = 4096
    packing = PackingConfig(object_bytes=16 * chunk, pack_threshold=2 * chunk)
    sizes = {f"small/s{i:02d}": 100 + i * 7 for i in range(20)}
    sizes["big/a.blob"] = 40 * chunk
    src, dest = str(tmp_path / "src"), str(tmp_path / "dest")
    TreeSpec(sizes=sizes, seed=1).generate(src)
    sync_tree(src, dest, chunk_size=chunk, packing=packing,
              kill_after_objects=3)
    done = replay_dataset_journal(os.path.join(dest, JOURNAL_NAME)).done
    landed = next(obj for obj in plan_objects(scan_tree(src, chunk),
                                              packing).objects
                  if obj.index in done).members[0]
    with open(os.path.join(dest, landed.path), "r+b") as fh:
        fh.seek(landed.file_offset)
        byte = fh.read(1)
        fh.seek(landed.file_offset)
        fh.write(bytes([byte[0] ^ 0xFF]))

    real_open = DatasetJournal.open.__func__

    def open_then_arm(cls, *args, **kwargs):
        journal, replay = real_open(cls, *args, **kwargs)
        journal.crash_hook = kill_at("compact:tmp-synced")
        return journal, replay

    with monkeypatch.context() as patched:
        patched.setattr(DatasetJournal, "open", classmethod(open_then_arm))
        with pytest.raises(_Killed):  # dies inside the audit's demote()
            sync_tree(src, dest, chunk_size=chunk, packing=packing)
    assert os.path.exists(os.path.join(dest, JOURNAL_NAME + COMPACT_SUFFIX))

    resumed = sync_tree(src, dest, chunk_size=chunk, packing=packing)
    assert resumed.completed and resumed.objects_demoted >= 1
    assert trees_equal(src, dest)
    assert glob.glob(os.path.join(dest, JOURNAL_NAME + "*")) == []


def test_the_journal_framing_is_written_once():
    """CRC framing and the crash-atomic rewrite live in the primitive;
    the two schemas reach the disk only through it."""
    root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    sources = {}
    for name in ("core/recordlog.py", "core/journal.py", "dataset/journal.py"):
        with open(os.path.join(root, name)) as fh:
            sources[name] = fh.read()
    for token in (r"zlib\.crc32\(", r"\"\.compact\"", r"os\.replace\(",
                  r"os\.fsync\(", r"\.truncate\(", r"import (os|zlib)\b",
                  r"(?<!def )(?<![\w.])open\("):
        users = [m for m, text in sources.items() if re.search(token, text)]
        assert users == ["core/recordlog.py"], (token, users)
    for schema in (ReceiverJournal, DatasetJournal):
        assert issubclass(schema, RecordLog)
        # benchmarks/perf/tracing.py patches these through __dict__.
        assert "open" in vars(schema)
    assert {"record", "flush"} <= set(vars(ReceiverJournal))
    assert "mark_done" in vars(DatasetJournal)
