"""Tests for the per-chunk digest manifest (PROTOCOL.md §10).

The manifest is the trust root for storage-chaos repair: a corrupt
manifest must never demote good data or bless bad data, so beyond the
round-trip/audit behaviour the key property here is that *any*
single-byte flip anywhere in an encoded manifest fails decode loudly
(``ManifestCorrupt``) instead of yielding a usable-but-wrong manifest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.manifest import (
    ALGO_CRC32,
    ALGO_SHA256,
    MANIFEST_HEADER_BYTES,
    ChunkManifest,
    ManifestCorrupt,
    VerifyStats,
    corrupt_ranges,
)

NBYTES = 10_000
PACKET_SIZE = 1024


def blob(seed: int = 11, nbytes: int = NBYTES) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


class TestConstruction:
    def test_from_data_counts_chunks_with_short_tail(self):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE)
        assert m.npackets == 10
        assert m.chunk_length(9) == NBYTES - 9 * PACKET_SIZE
        assert m.chunk_length(0) == PACKET_SIZE
        assert len(m.digests) == 10 * m.digest_size

    def test_from_file_matches_from_data(self, tmp_path):
        data = blob(3)
        path = tmp_path / "obj.bin"
        path.write_bytes(data)
        assert (ChunkManifest.from_file(str(path), PACKET_SIZE)
                == ChunkManifest.from_data(data, PACKET_SIZE))

    def test_empty_object_rejected(self):
        with pytest.raises(ValueError):
            ChunkManifest.from_data(b"", PACKET_SIZE)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            ChunkManifest.from_data(blob(), PACKET_SIZE, algo=99)

    @pytest.mark.parametrize("algo", [ALGO_CRC32, ALGO_SHA256])
    def test_both_algorithms_round_trip(self, algo):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE, algo=algo)
        assert ChunkManifest.decode(m.encode()) == m


class TestCodec:
    def test_encode_decode_round_trip(self):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE)
        out = ChunkManifest.decode(m.encode())
        assert out == m
        assert out.encoded_size == MANIFEST_HEADER_BYTES + len(m.digests)

    def test_save_load_round_trip(self, tmp_path):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE)
        path = str(tmp_path / "obj.manifest")
        m.save(path)
        assert ChunkManifest.load(path) == m

    def test_truncated_blob_rejected(self):
        enc = ChunkManifest.from_data(blob(), PACKET_SIZE).encode()
        with pytest.raises(ManifestCorrupt):
            ChunkManifest.decode(enc[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(ManifestCorrupt):
            ChunkManifest.decode(b"\x00" * (MANIFEST_HEADER_BYTES - 1))


class TestVerification:
    def test_clean_object_audits_clean(self):
        data = blob()
        m = ChunkManifest.from_data(data, PACKET_SIZE)
        assert len(m.verify_blob(data)) == 0

    def test_flipped_chunk_detected_and_localised(self):
        data = bytearray(blob())
        m = ChunkManifest.from_data(bytes(data), PACKET_SIZE)
        data[3 * PACKET_SIZE + 7] ^= 0x01
        bad = m.verify_blob(bytes(data))
        assert list(bad) == [3]

    def test_seqs_restricts_the_audit(self):
        data = bytearray(blob())
        m = ChunkManifest.from_data(bytes(data), PACKET_SIZE)
        data[3 * PACKET_SIZE] ^= 0xFF
        assert list(m.verify_blob(bytes(data), seqs=[0, 1, 2])) == []
        assert list(m.verify_blob(bytes(data), seqs=[2, 3, 4])) == [3]

    def test_verify_file_matches_verify_blob(self, tmp_path):
        data = bytearray(blob())
        m = ChunkManifest.from_data(bytes(data), PACKET_SIZE)
        data[0] ^= 0x80
        data[9 * PACKET_SIZE] ^= 0x80
        path = tmp_path / "obj.bin"
        path.write_bytes(bytes(data))
        with open(path, "rb") as fh:
            from_file = list(m.verify_file(fh))
        assert from_file == list(m.verify_blob(bytes(data))) == [0, 9]

    def test_short_file_counts_tail_as_corrupt(self, tmp_path):
        data = blob()
        m = ChunkManifest.from_data(data, PACKET_SIZE)
        path = tmp_path / "obj.bin"
        path.write_bytes(data[:NBYTES - 100])
        with open(path, "rb") as fh:
            assert list(m.verify_file(fh)) == [9]

    def test_check_chunk_bounds(self):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE)
        with pytest.raises(IndexError):
            m.check_chunk(m.npackets, b"x")
        assert not m.check_chunk(0, b"short")

    def test_corrupt_ranges_coalesces_runs(self):
        assert corrupt_ranges([]) == []
        assert corrupt_ranges([4]) == [(4, 1)]
        assert corrupt_ranges([5, 3, 4, 9, 1]) == [(1, 1), (3, 3), (9, 1)]

    def test_verify_stats_merge(self):
        a = VerifyStats(phase="resume", chunks_checked=5, chunks_corrupt=1,
                        ranges_demoted=1, bytes_demoted=1024, duration=0.5,
                        corrupt_seqs=[2])
        b = VerifyStats(phase="complete", chunks_checked=10, corrupt_seqs=[])
        a.merge(b)
        assert a.chunks_checked == 15
        assert a.chunks_corrupt == 1
        assert not a.clean
        assert b.clean


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class TestOneByteFlipProperty:
    @given(
        seed=st.integers(0, 2**16),
        nbytes=st.integers(1, 4096),
        packet_size=st.sampled_from([64, 256, 1000, 1024]),
        offset_frac=st.floats(0.0, 1.0, exclude_max=True),
        mask=st.integers(1, 255),
    )
    @settings(max_examples=80, deadline=None)
    def test_single_byte_flip_never_decodes_cleanly(
        self, seed, nbytes, packet_size, offset_frac, mask
    ):
        """Any one-byte flip in an encoded manifest is rejected.

        If a flipped manifest decoded successfully it could demote
        intact chunks (wasted re-fetch) or — worse — carry a doctored
        digest that blesses corrupt data.  The whole-frame CRC32 makes
        every single-byte change detectable.
        """
        data = np.random.default_rng(seed).integers(
            0, 256, nbytes, dtype=np.uint8).tobytes()
        enc = bytearray(ChunkManifest.from_data(data, packet_size).encode())
        enc[int(offset_frac * len(enc))] ^= mask
        with pytest.raises(ManifestCorrupt):
            ChunkManifest.decode(bytes(enc))

    @given(seed=st.integers(0, 2**16), extra=st.integers(1, 64))
    @settings(max_examples=20, deadline=None)
    def test_trailing_garbage_is_ignored_not_trusted(self, seed, extra):
        """Decode reads exactly the declared blob; suffix bytes after it
        do not change the result (the VERIFY frame may be padded)."""
        data = np.random.default_rng(seed).integers(
            0, 256, 2048, dtype=np.uint8).tobytes()
        m = ChunkManifest.from_data(data, 256)
        enc = m.encode() + bytes(extra)
        assert ChunkManifest.decode(enc) == m


class TestFastPathIsTheCheckChunkFold:
    """CRC32 manifests are built and audited over an unpacked column
    of ints; ``check_chunk`` / ``_digest_chunk`` stay the reference."""

    @given(
        seed=st.integers(0, 2**16),
        nbytes=st.integers(1, 6000),
        packet_size=st.sampled_from([64, 256, 1000, 1024]),
        algo=st.sampled_from([ALGO_CRC32, ALGO_SHA256]),
        flips=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4),
        keep=st.floats(0.0, 1.0),
        subset=st.one_of(st.none(), st.lists(st.floats(
            0.0, 1.0, exclude_max=True), max_size=12)),
        window=st.sampled_from([1, 300, 1 << 20]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_digests_and_same_corrupt_indices(
        self, seed, nbytes, packet_size, algo, flips, keep, subset, window
    ):
        from unittest import mock

        from repro.core import manifest as module

        data = np.random.default_rng(seed).integers(
            0, 256, nbytes, dtype=np.uint8).tobytes()
        m = ChunkManifest.from_data(data, packet_size, algo)
        assert m.digests == b"".join(
            module._digest_chunk(data[off:off + packet_size], algo)
            for off in range(0, nbytes, packet_size))
        # Flipped bytes, then a file cut short (or not at all).
        stored = bytearray(data)
        for frac in flips:
            stored[int(frac * nbytes)] ^= 0x10
        stored = bytes(stored[:int(keep * nbytes)] if keep < 0.9 else stored)
        seqs = (None if subset is None else
                [int(frac * m.npackets) for frac in subset])
        expected = sorted(
            seq for seq in (range(m.npackets) if seqs is None else seqs)
            if not m.check_chunk(
                seq, stored[seq * packet_size:(seq + 1) * packet_size]))
        # Windows of one chunk, of a few, and of everything at once.
        with mock.patch.object(module, "VERIFY_READ_BYTES", window):
            assert m.verify_blob(stored, seqs).tolist() == expected

    def test_a_seq_outside_the_object_is_an_error_not_a_pass(self):
        m = ChunkManifest.from_data(blob(), PACKET_SIZE)
        for seqs in ([m.npackets], [3, m.npackets + 5], [-1]):
            with pytest.raises(IndexError):
                m.verify_blob(blob(), seqs)
