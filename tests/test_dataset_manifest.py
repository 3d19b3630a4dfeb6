"""Dataset manifest: scan determinism, codec round-trips, identity."""

from __future__ import annotations

import os

import pytest

from _support import rewrite_after_lstat
from repro.core.manifest import (ALGO_CRC32, ALGO_SHA256, _digest_chunk,
                                 _digest_chunks)
from repro.dataset.manifest import (
    DatasetManifest,
    DatasetManifestCorrupt,
    FileEntry,
    iter_tree,
    manifest_from_files,
    scan_tree,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CHUNK = 1024


def make_tree(root, files, dirs=()):
    for d in dirs:
        os.makedirs(os.path.join(root, d), exist_ok=True)
    for path, payload in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full) or root, exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(payload)


SAMPLE = {
    "a.txt": b"alpha" * 100,
    "sub/b.bin": bytes(range(256)) * 9,
    "sub/deep/c.dat": b"",
    "z.raw": os.urandom(3 * CHUNK + 17),
}


class TestScan:
    def test_scan_is_deterministic_and_sorted(self, tmp_path):
        make_tree(tmp_path, SAMPLE, dirs=("hollow",))
        m1 = scan_tree(str(tmp_path), CHUNK)
        m2 = scan_tree(str(tmp_path), CHUNK)
        assert m1 == m2
        paths = [e.path for e in m1.entries]
        assert paths == sorted(paths)
        assert m1.nfiles == 4
        assert "hollow" in m1.dirs

    def test_digests_match_core_manifest(self, tmp_path):
        make_tree(tmp_path, SAMPLE)
        m = scan_tree(str(tmp_path), CHUNK)
        entry = m.entry_for("z.raw")
        data = SAMPLE["z.raw"]
        assert entry.nchunks(CHUNK) == 4
        for i in range(4):
            chunk = data[i * CHUNK:(i + 1) * CHUNK]
            assert entry.chunk_digest(i, m.algo) == _digest_chunk(
                chunk, m.algo)

    def test_symlinks_are_skipped(self, tmp_path):
        make_tree(tmp_path, {"real.txt": b"x" * 10})
        os.symlink(str(tmp_path / "real.txt"), str(tmp_path / "link.txt"))
        dirs, files = iter_tree(str(tmp_path))
        assert files == ["real.txt"]

    def test_symlinked_directories_are_skipped(self, tmp_path):
        make_tree(tmp_path, {"real/inner.txt": b"x" * 10})
        os.symlink(str(tmp_path / "real"), str(tmp_path / "alias"))
        dirs, files = iter_tree(str(tmp_path))
        assert dirs == ["real"]
        assert files == ["real/inner.txt"]
        m = scan_tree(str(tmp_path), CHUNK)
        assert m.dirs == ("real",)
        assert [e.path for e in m.entries] == ["real/inner.txt"]

    @pytest.mark.parametrize("victim", ["", "sub/deep"])
    def test_unreadable_directory_fails_the_scan(self, tmp_path, monkeypatch,
                                                 victim):
        # Monkeypatched rather than chmod-ed: root can list anything.
        make_tree(tmp_path, SAMPLE)
        denied = os.path.normpath(os.path.join(str(tmp_path), victim))
        real_scandir = os.scandir

        def scandir(path):
            if os.path.normpath(path) == denied:
                raise PermissionError(13, "Permission denied", path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        with pytest.raises(PermissionError):
            scan_tree(str(tmp_path), CHUNK)

    @pytest.mark.parametrize("change", [b"", b"grown" * 500],
                             ids=["emptied", "grown"])
    def test_file_changed_after_its_lstat_is_recorded_as_read(
            self, tmp_path, monkeypatch, change):
        make_tree(tmp_path, SAMPLE)
        rewrite_after_lstat(monkeypatch, str(tmp_path / "z.raw"), change)
        entry = scan_tree(str(tmp_path), CHUNK).entry_for("z.raw")
        assert (entry.size, entry.digests) == (
            len(change), _digest_chunks(change, CHUNK, ALGO_CRC32))

    def test_short_reads_give_the_same_manifest(self, tmp_path, monkeypatch):
        make_tree(tmp_path, SAMPLE)
        whole = scan_tree(str(tmp_path), CHUNK, ALGO_SHA256)
        real_read = os.read
        monkeypatch.setattr(os, "read",
                            lambda fd, n: real_read(fd, min(n, 1000)))
        assert scan_tree(str(tmp_path), CHUNK, ALGO_SHA256) == whole

    def test_exclude(self, tmp_path):
        make_tree(tmp_path, {"keep.txt": b"k", ".journal": b"j"})
        m = scan_tree(str(tmp_path), CHUNK, exclude=[".journal"])
        assert [e.path for e in m.entries] == ["keep.txt"]


class TestIdentity:
    def test_id_ignores_mtime(self, tmp_path):
        make_tree(tmp_path, SAMPLE)
        m1 = scan_tree(str(tmp_path), CHUNK)
        os.utime(str(tmp_path / "a.txt"), ns=(1, 1))
        m2 = scan_tree(str(tmp_path), CHUNK)
        assert m1 != m2  # mtimes differ...
        assert m1.dataset_id == m2.dataset_id  # ...identity does not

    def test_id_tracks_content(self, tmp_path):
        make_tree(tmp_path, SAMPLE)
        m1 = scan_tree(str(tmp_path), CHUNK)
        with open(tmp_path / "a.txt", "r+b") as fh:
            fh.write(b"B")
        m2 = scan_tree(str(tmp_path), CHUNK)
        assert m1.dataset_id != m2.dataset_id

    def test_id_tracks_renames(self):
        a = manifest_from_files({"x.txt": b"hello"}, CHUNK)
        b = manifest_from_files({"y.txt": b"hello"}, CHUNK)
        assert a.dataset_id != b.dataset_id


class TestCodec:
    def test_binary_round_trip(self, tmp_path):
        make_tree(tmp_path, SAMPLE, dirs=("hollow",))
        m = scan_tree(str(tmp_path), CHUNK)
        assert DatasetManifest.decode(m.encode()) == m

    def test_json_round_trip(self, tmp_path):
        make_tree(tmp_path, SAMPLE, dirs=("hollow",))
        m = scan_tree(str(tmp_path), CHUNK, algo=ALGO_SHA256)
        assert DatasetManifest.from_json(m.to_json()) == m
        # canonical: serializing twice is byte-identical
        assert m.to_json() == DatasetManifest.from_json(m.to_json()).to_json()

    def test_save_load(self, tmp_path):
        m = manifest_from_files({"f.bin": b"q" * 5000}, CHUNK)
        path = str(tmp_path / "ds.manifest")
        m.save(path)
        assert DatasetManifest.load(path) == m

    def test_every_flipped_byte_is_detected(self):
        m = manifest_from_files(
            {"a.bin": b"12345" * 40, "b/c.bin": b"x" * CHUNK * 2}, CHUNK)
        blob = bytearray(m.encode())
        # Sample positions across header, dirs, entries and trailer CRC.
        for pos in range(0, len(blob), max(1, len(blob) // 64)):
            blob[pos] ^= 0xFF
            with pytest.raises(DatasetManifestCorrupt):
                DatasetManifest.decode(bytes(blob))
            blob[pos] ^= 0xFF
        DatasetManifest.decode(bytes(blob))  # restored blob still parses

    def test_truncation_is_detected(self):
        m = manifest_from_files({"a.bin": b"z" * 100}, CHUNK)
        blob = m.encode()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(DatasetManifestCorrupt):
                DatasetManifest.decode(blob[:cut])

    @settings(max_examples=30, deadline=None)
    @given(files=st.dictionaries(
        st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                 min_size=1, max_size=3).map("/".join),
        st.binary(min_size=0, max_size=4 * CHUNK),
        min_size=0, max_size=8),
        algo=st.sampled_from([ALGO_CRC32, ALGO_SHA256]))
    def test_property_round_trip(self, files, algo):
        m = manifest_from_files(files, CHUNK, algo=algo)
        assert DatasetManifest.decode(m.encode()) == m
        assert DatasetManifest.from_json(m.to_json()) == m


class TestValidation:
    def test_rejects_unsorted_entries(self):
        entries = (
            FileEntry("b.txt", 0, 0, b""),
            FileEntry("a.txt", 0, 0, b""),
        )
        with pytest.raises(ValueError):
            DatasetManifest(CHUNK, ALGO_CRC32, (), entries)

    @pytest.mark.parametrize("path", ["/abs", "has/../dotdot", "sub\\win"])
    def test_rejects_unsafe_paths(self, path):
        with pytest.raises(ValueError):
            DatasetManifest(CHUNK, ALGO_CRC32, (),
                            (FileEntry(path, 0, 0, b""),))

    def test_entry_for_missing_path_raises(self):
        m = manifest_from_files({"a.txt": b"x"}, CHUNK)
        with pytest.raises(KeyError):
            m.entry_for("nope.txt")


class TestVerifyRange:
    def test_detects_in_place_corruption(self, tmp_path):
        payload = os.urandom(3 * CHUNK + 50)
        make_tree(tmp_path, {"v.bin": payload})
        m = scan_tree(str(tmp_path), CHUNK)
        entry = m.entry_for("v.bin")
        with open(tmp_path / "v.bin", "r+b") as fh:
            assert entry.verify_range(fh, 0, entry.size, CHUNK, m.algo) == []
            fh.seek(CHUNK + 5)
            fh.write(b"\x00\x01")
            fh.flush()
            assert entry.verify_range(
                fh, 0, entry.size, CHUNK, m.algo) == [1]
            # a range not covering chunk 1 still passes
            assert entry.verify_range(fh, 2 * CHUNK, CHUNK, CHUNK,
                                      m.algo) == []

    def test_short_file_counts_as_corrupt(self, tmp_path):
        make_tree(tmp_path, {"s.bin": b"a" * (2 * CHUNK)})
        m = scan_tree(str(tmp_path), CHUNK)
        entry = m.entry_for("s.bin")
        with open(tmp_path / "s.bin", "r+b") as fh:
            fh.truncate(CHUNK + 10)
        with open(tmp_path / "s.bin", "rb") as fh:
            assert 1 in entry.verify_range(fh, 0, entry.size, CHUNK, m.algo)

    def test_torn_tail_chunk_is_corrupt(self, tmp_path):
        payload = os.urandom(3 * CHUNK + 50)
        make_tree(tmp_path, {"t.bin": payload})
        m = scan_tree(str(tmp_path), CHUNK)
        entry = m.entry_for("t.bin")
        # The tail chunk lost 20 of its 50 bytes; its first 30 are intact.
        with open(tmp_path / "t.bin", "r+b") as fh:
            fh.truncate(3 * CHUNK + 30)
        with open(tmp_path / "t.bin", "rb") as fh:
            assert entry.verify_range(fh, 0, entry.size, CHUNK,
                                      m.algo) == [3]
            assert entry.verify_range(fh, 2 * CHUNK, CHUNK + 50, CHUNK,
                                      m.algo) == [3]
            assert entry.verify_range(fh, 0, 3 * CHUNK, CHUNK, m.algo) == []
