"""Packer/splitter: plan invariants, framing round-trips, tamper detection."""

from __future__ import annotations

import os
import random
import struct
import zlib
from typing import List, Tuple

import pytest

from repro.core.manifest import (ALGO_CRC32, ALGO_SHA256, _digest_chunk,
                                 _digest_chunks)
from repro.dataset.manifest import manifest_from_files
from repro.dataset.packing import (
    _ALGO_SIZES,
    _CRC,
    _FOLD_MIN,
    _MEMBER,
    _OBJ_HEADER,
    KIND_NAMES,
    KIND_PACKED,
    KIND_STRIPE,
    KIND_WHOLE,
    OBJECT_MAGIC,
    OBJECT_VERSION,
    PackCorrupt,
    PackingConfig,
    UnpackedMember,
    _crc32_combine,
    _joined_crc,
    pack_object,
    plan_objects,
    unpack_object,
    verify_members_against_manifest,
)
from repro.dataset.sync import mixed_tree_spec, sync_tree, trees_equal

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

CHUNK = 512
CFG = PackingConfig(object_bytes=4 * CHUNK, pack_threshold=CHUNK)


def coverage_map(plan):
    """(path, offset) -> length for every member of every object."""
    cover = {}
    for obj in plan.objects:
        for m in obj.members:
            key = (m.path, m.file_offset)
            assert key not in cover, "byte range covered twice"
            cover[key] = m.length
    return cover


class TestPlan:
    def test_every_byte_covered_exactly_once(self):
        files = {
            "tiny1": b"a" * 10,
            "tiny2": b"b" * 100,
            "mid": b"c" * (2 * CHUNK),
            "huge": b"d" * (9 * CHUNK + 7),
            "empty": b"",
        }
        m = manifest_from_files(files, CHUNK)
        plan = plan_objects(m, CFG)
        cover = coverage_map(plan)
        for path, data in files.items():
            got = sum(length for (p, _), length in cover.items()
                      if p == path)
            assert got == len(data)
        assert plan.empty_files == ("empty",)
        assert plan.payload_bytes == m.total_bytes

    def test_kind_classification(self):
        m = manifest_from_files({
            "small": b"s" * 10,            # < pack_threshold -> packed
            "whole": b"w" * (3 * CHUNK),   # <= object_bytes  -> whole
            "big": b"b" * (10 * CHUNK),    # > object_bytes   -> striped
        }, CHUNK)
        plan = plan_objects(m, CFG)
        kinds = {}
        for obj in plan.objects:
            for mem in obj.members:
                kinds.setdefault(mem.path, obj.kind)
        assert kinds == {"small": KIND_PACKED, "whole": KIND_WHOLE,
                         "big": KIND_STRIPE}
        # 10 chunks at 4-chunk objects -> stripes of 4, 4, 2 chunks
        stripes = [o for o in plan.objects if o.kind == KIND_STRIPE]
        assert [o.payload_bytes for o in stripes] == [
            4 * CHUNK, 4 * CHUNK, 2 * CHUNK]
        assert [o.stripe for o in stripes] == [0, 1, 2]
        assert all(o.nstripes == 3 for o in stripes)

    def test_stripe_members_are_chunk_aligned(self):
        m = manifest_from_files({"big": b"x" * (11 * CHUNK + 3)}, CHUNK)
        plan = plan_objects(m, CFG)
        for obj in plan.objects:
            assert obj.members[0].file_offset % CHUNK == 0

    def test_packed_objects_close_at_object_bytes(self):
        # 20 files of half an object each can never fit 3 to an object.
        m = manifest_from_files(
            {f"f{i:02d}": bytes([i]) * (2 * CHUNK - CHUNK // 2)
             for i in range(20)}, CHUNK,
        )
        plan = plan_objects(m, PackingConfig(object_bytes=4 * CHUNK,
                                             pack_threshold=4 * CHUNK))
        for obj in plan.objects:
            assert obj.payload_bytes <= 4 * CHUNK
            assert obj.kind == KIND_PACKED
            assert len(obj.members) <= 2

    def test_plan_is_deterministic(self):
        files = {f"d{i % 3}/f{i}": os.urandom(i * 37 % (3 * CHUNK))
                 for i in range(30)}
        m = manifest_from_files(files, CHUNK)
        p1, p2 = plan_objects(m, CFG), plan_objects(m, CFG)
        assert [(o.index, o.kind, o.members) for o in p1.objects] == \
               [(o.index, o.kind, o.members) for o in p2.objects]

    def test_object_bytes_must_align_to_chunk(self):
        m = manifest_from_files({"a": b"x"}, CHUNK)
        with pytest.raises(ValueError):
            plan_objects(m, PackingConfig(object_bytes=CHUNK + 1,
                                          pack_threshold=CHUNK))


def roundtrip(files, algo=ALGO_CRC32):
    m = manifest_from_files(files, CHUNK, algo=algo)
    plan = plan_objects(m, CFG)
    out = {path: bytearray(len(data)) for path, data in files.items()}
    for obj in plan.objects:
        blob = pack_object(obj, root="", algo=algo, data=files)
        kind, members = unpack_object(blob)
        assert kind == obj.kind
        assert verify_members_against_manifest(members, m) == []
        for mem in members:
            out[mem.path][mem.file_offset:mem.file_offset
                          + len(mem.payload)] = mem.payload
    for path in plan.empty_files:
        assert files[path] == b""
    return {p: bytes(b) for p, b in out.items()}


class TestPackUnpack:
    def test_byte_equality(self):
        files = {
            "a/one": os.urandom(77),
            "a/two": os.urandom(2 * CHUNK),
            "b/three": os.urandom(6 * CHUNK + 13),
            "zero": b"",
        }
        assert roundtrip(files) == files

    def test_wire_bytes_is_exact(self):
        files = {"x": os.urandom(300), "y": os.urandom(5 * CHUNK)}
        m = manifest_from_files(files, CHUNK, algo=ALGO_SHA256)
        plan = plan_objects(m, CFG)
        for obj in plan.objects:
            blob = pack_object(obj, root="", algo=ALGO_SHA256, data=files)
            assert len(blob) == obj.wire_bytes(ALGO_SHA256)

    def test_pack_from_disk_matches_memory(self, tmp_path):
        files = {"d/f1": os.urandom(900), "d/f2": os.urandom(3 * CHUNK)}
        for path, payload in files.items():
            full = tmp_path / path
            full.parent.mkdir(parents=True, exist_ok=True)
            full.write_bytes(payload)
        m = manifest_from_files(files, CHUNK)
        plan = plan_objects(m, CFG)
        for obj in plan.objects:
            assert pack_object(obj, str(tmp_path), ALGO_CRC32) == \
                   pack_object(obj, "", ALGO_CRC32, data=files)

    def test_shrunken_source_raises(self, tmp_path):
        (tmp_path / "f").write_bytes(b"q" * (2 * CHUNK))
        m = manifest_from_files({"f": b"q" * (2 * CHUNK)}, CHUNK)
        plan = plan_objects(m, CFG)
        (tmp_path / "f").write_bytes(b"q" * 10)
        with pytest.raises(PackCorrupt):
            pack_object(plan.objects[0], str(tmp_path), ALGO_CRC32)

    @settings(max_examples=25, deadline=None)
    @given(files=st.dictionaries(
        st.text(alphabet="xyz", min_size=1, max_size=6),
        st.binary(min_size=0, max_size=6 * CHUNK),
        min_size=1, max_size=6),
        algo=st.sampled_from([ALGO_CRC32, ALGO_SHA256]))
    def test_property_byte_equality(self, files, algo):
        assert roundtrip(files, algo) == files


class TestTamper:
    def test_every_single_byte_flip_is_detected(self):
        files = {"p1": b"alpha" * 30, "p2": b"beta" * 40}
        m = manifest_from_files(files, CHUNK)
        plan = plan_objects(m, CFG)
        blob = bytearray(pack_object(plan.objects[0], "", ALGO_CRC32,
                                     data=files))
        for pos in range(len(blob)):
            blob[pos] ^= 0x01
            try:
                kind, members = unpack_object(bytes(blob))
                # Framing CRC may miss nothing, but if it ever parsed,
                # the manifest cross-check must catch payload damage.
                assert verify_members_against_manifest(members, m) != []
            except PackCorrupt:
                pass
            blob[pos] ^= 0x01
        unpack_object(bytes(blob))  # restored blob is valid again

    def test_truncation_raises(self):
        files = {"t": b"data" * 100}
        m = manifest_from_files(files, CHUNK)
        blob = pack_object(plan_objects(m, CFG).objects[0], "",
                           ALGO_CRC32, data=files)
        for cut in (0, 3, len(blob) // 2, len(blob) - 1):
            with pytest.raises(PackCorrupt):
                unpack_object(blob[:cut])

    def test_foreign_member_fails_manifest_check(self):
        files = {"known": b"k" * 100}
        other = {"stranger": b"s" * 100}
        m = manifest_from_files(files, CHUNK)
        mo = manifest_from_files(other, CHUNK)
        blob = pack_object(plan_objects(mo, CFG).objects[0], "",
                           ALGO_CRC32, data=other)
        _, members = unpack_object(blob)
        assert verify_members_against_manifest(members, m) == ["stranger"]


class TestCombine:
    @settings(deadline=None)
    @given(a=st.binary(max_size=300),
           len_b=st.one_of(
               st.sampled_from([0, 1, 63, 65535, 65536, 65537]),
               st.integers(0, 1 << 17),
               st.integers(1 << 21, 6 << 20)),
           seed=st.integers(0, 2**32 - 1))
    def test_combine_is_the_crc_of_the_concatenation(self, a, len_b, seed):
        b = random.Random(seed).randbytes(len_b)
        assert _crc32_combine(zlib.crc32(a), zlib.crc32(b), len_b) == \
            zlib.crc32(a + b)

    @settings(deadline=None)
    @given(chunk=st.sampled_from([4096, 65536]), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_joined_chunk_crcs_are_the_crc_of_the_payload(self, chunk, data,
                                                         seed):
        length = data.draw(st.one_of(
            st.builds(lambda n, d: n * chunk + d,  # around 1-3 boundaries
                      st.integers(1, 3), st.integers(-2, 2)),
            st.integers(1, 3 * chunk)))  # mostly a partial last chunk
        payload = random.Random(seed).randbytes(length)
        crcs = _digest_chunks(payload, chunk, ALGO_CRC32)
        assert _joined_crc(crcs, length, chunk) == zlib.crc32(payload)


def _parent_unpack_object(blob: bytes) -> Tuple[int, List[UnpackedMember]]:
    """``unpack_object`` as it was with one plain CRC pass over the body
    (verbatim): the reference for every verdict and its order."""
    if len(blob) < _OBJ_HEADER.size + _CRC.size:
        raise PackCorrupt("object shorter than its header")
    view = memoryview(blob)
    body = view[:-_CRC.size]
    if zlib.crc32(body) != _CRC.unpack_from(view, len(body))[0]:
        raise PackCorrupt("object failed CRC32 verification")
    magic, version, algo, kind, nmembers = _OBJ_HEADER.unpack_from(body)
    if magic != OBJECT_MAGIC:
        raise PackCorrupt(f"bad object magic {magic:#x}")
    if version != OBJECT_VERSION:
        raise PackCorrupt(f"unsupported object version {version}")
    dsize = _ALGO_SIZES.get(algo)
    if dsize is None:
        raise PackCorrupt(f"unknown digest algorithm {algo}")
    if kind not in KIND_NAMES:
        raise PackCorrupt(f"unknown object kind {kind}")
    off = _OBJ_HEADER.size
    members: List[UnpackedMember] = []
    try:
        for _ in range(nmembers):
            plen, _rsvd, file_offset, length = _MEMBER.unpack_from(body, off)
            off += _MEMBER.size
            path = str(body[off:off + plen], "utf-8")
            off += plen
            digest = body[off:off + dsize]
            off += dsize
            payload = body[off:off + length]
            off += length
            if len(payload) != length:
                raise PackCorrupt(f"{path}: member payload truncated")
            if _digest_chunk(payload, algo) != digest:
                raise PackCorrupt(f"{path}: member digest mismatch at "
                                  f"offset {file_offset}")
            members.append(UnpackedMember(path=path, file_offset=file_offset,
                                          payload=payload))
    except (struct.error, UnicodeDecodeError) as exc:
        raise PackCorrupt(f"object framing undecodable: {exc}") from exc
    if off != len(body):
        raise PackCorrupt(f"{len(body) - off} trailing bytes after last "
                          f"member")
    return kind, members


#: Members on both sides of the fold size: packed (< 2 * _FOLD_MIN),
#: whole (< 4 * _FOLD_MIN) and striped objects.
FOLD_CFG = PackingConfig(object_bytes=4 * _FOLD_MIN,
                         pack_threshold=2 * _FOLD_MIN)
_SIZES = st.one_of(st.integers(0, 600),
                   st.integers(_FOLD_MIN - 2, 2 * _FOLD_MIN + 2),
                   st.integers(4 * _FOLD_MIN - 1, 5 * _FOLD_MIN))


def _seeded_files(sizes, seed):
    rng = random.Random(seed)
    return {f"d/f{i}": rng.randbytes(n) for i, n in enumerate(sizes)}


def _member_offsets(obj, algo):
    """Where each member's header starts in the packed object."""
    offsets, off = [], _OBJ_HEADER.size
    for m in obj.members:
        offsets.append(off)
        off += (_MEMBER.size + len(m.path.encode()) + _ALGO_SIZES[algo]
                + m.length)
    return offsets


@st.composite
def damaged_objects(draw, with_files=False):
    """A packed object, maybe damaged, maybe resealed with a trailer
    that matches the damage so the checks after the CRC see it.
    ``with_files`` also returns the files it was packed from, and the
    digest algorithm."""
    algo = draw(st.sampled_from([ALGO_CRC32, ALGO_SHA256]))
    files = _seeded_files(draw(st.lists(_SIZES, min_size=1, max_size=4)),
                          draw(st.integers(0, 2**32 - 1)))
    plan = plan_objects(manifest_from_files(files, CHUNK, algo), FOLD_CFG)
    if not plan.objects:
        files["d/one"] = b"1"
        plan = plan_objects(manifest_from_files(files, CHUNK, algo), FOLD_CFG)
    obj = draw(st.sampled_from(plan.objects))
    blob = bytearray(pack_object(obj, "", algo, data=files))
    at = draw(st.sampled_from(_member_offsets(obj, algo)))
    how = draw(st.sampled_from(["none", "flip", "trailer", "truncate",
                                "extend", "length", "nmembers", "algo",
                                "path_len"]))
    if how in ("flip", "trailer"):
        pos = draw(st.one_of(st.integers(0, min(len(blob), 64) - 1),
                             st.integers(0, len(blob) - 1))
                   if how == "flip" else st.integers(len(blob) - 4,
                                                     len(blob) - 1))
        blob[pos] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif how == "extend":
        blob += draw(st.binary(min_size=1, max_size=8))
    elif how == "length":
        old = struct.unpack_from("!Q", blob, at + 12)[0]
        struct.pack_into("!Q", blob, at + 12, draw(st.one_of(
            st.integers(max(old - 64, 0), old + 64),
            st.integers(0, 2**64 - 1))))
    elif how == "nmembers":
        struct.pack_into("!I", blob, 8, draw(st.one_of(
            st.integers(0, len(obj.members) + 2),
            st.integers(0, 2**32 - 1))))
    elif how == "algo":
        blob[6] = draw(st.integers(0, 255))
    elif how == "path_len":
        struct.pack_into("!H", blob, at, draw(st.integers(0, 65535)))
    if len(blob) >= _CRC.size and draw(st.booleans()):
        _CRC.pack_into(blob, len(blob) - _CRC.size,
                       zlib.crc32(blob[:-_CRC.size]))
    return (bytes(blob), files, algo) if with_files else bytes(blob)


@st.composite
def cross_checked_objects(draw):
    """A ``damaged_objects`` blob and a dataset manifest to check it
    against: the one it was packed from, or one under the other digest,
    a coarser chunk, a rewritten file or a missing file."""
    blob, files, algo = draw(damaged_objects(with_files=True))
    how = draw(st.sampled_from(["same", "algo", "chunk", "rewrite",
                                "missing"]))
    chunk = 4 * CHUNK if how == "chunk" else CHUNK
    if how == "algo":
        algo = ALGO_SHA256 if algo == ALGO_CRC32 else ALGO_CRC32
    path = draw(st.sampled_from(sorted(files)))
    if how == "missing":
        del files[path]
    elif how == "rewrite" and files[path]:
        data = bytearray(files[path])
        data[draw(st.integers(0, len(data) - 1))] ^= 0x5A
        files[path] = bytes(data)
    return blob, manifest_from_files(files, chunk, algo)


def _unpack_then_cross_check(manifest):
    """``unpack_object`` followed by ``verify_members_against_manifest``,
    as two passes: the reference for the manifest-aware unpack."""
    def unpack(blob):
        kind, members = unpack_object(blob)
        bad = verify_members_against_manifest(members, manifest)
        if bad:
            raise PackCorrupt(
                f"member(s) {bad} do not match the dataset manifest")
        return kind, members
    return unpack


def _outcome(unpack, blob):
    try:
        kind, members = unpack(blob)
    except Exception as exc:  # the verdict itself is under test
        return type(exc), str(exc)
    return kind, [(m.path, m.file_offset, bytes(m.payload)) for m in members]


class TestFoldedTrailer:
    @settings(deadline=None)
    @given(blob=damaged_objects())
    def test_unpack_gives_the_plain_pass_verdict(self, blob):
        assert _outcome(unpack_object, blob) == \
            _outcome(_parent_unpack_object, blob)

    @settings(deadline=None)
    @given(case=cross_checked_objects())
    def test_manifest_aware_unpack_gives_the_two_pass_verdict(self, case):
        blob, manifest = case
        assert _outcome(lambda b: unpack_object(b, manifest), blob) == \
            _outcome(_unpack_then_cross_check(manifest), blob)

    @pytest.mark.parametrize("algo", [ALGO_CRC32, ALGO_SHA256])
    def test_objects_are_the_plain_pass_bytes(self, algo):
        files = _seeded_files([300, _FOLD_MIN - 1, _FOLD_MIN, 2 * _FOLD_MIN,
                               3 * _FOLD_MIN + 7, 9 * _FOLD_MIN + 5], 7)
        plan = plan_objects(manifest_from_files(files, CHUNK, algo), FOLD_CFG)
        for obj in plan.objects:
            blob = pack_object(obj, "", algo, data=files)
            assert _CRC.unpack_from(blob, len(blob) - _CRC.size)[0] == \
                zlib.crc32(blob[:-_CRC.size])
            assert _outcome(unpack_object, bytes(blob)) == \
                _outcome(_parent_unpack_object, bytes(blob))


@pytest.fixture
def crc_bytes(monkeypatch):
    """Bytes passed to ``zlib.crc32`` since the last reset."""
    counted = [0]
    real = zlib.crc32

    def spy(data, value=0):
        counted[0] += len(data)
        return real(data, value)

    monkeypatch.setattr(zlib, "crc32", spy)
    return counted


class TestCrcBudget:
    """A CRC-32 object's payload is CRC'd once on each side (a plain
    trailer pass CRC'd it twice); members under ``_FOLD_MIN`` twice.
    Unpacked against the dataset manifest, the cross-check's chunk CRCs
    give the member digests, so the receiver still CRCs a byte once."""

    def test_pack_and_unpack_each_crc_a_payload_once(self, crc_bytes):
        files = _seeded_files([_FOLD_MIN, 3 * _FOLD_MIN // 2,
                               3 * _FOLD_MIN, 9 * _FOLD_MIN + 5], 3)
        plan = plan_objects(manifest_from_files(files, CHUNK), FOLD_CFG)
        assert {o.kind for o in plan.objects} == {
            KIND_PACKED, KIND_WHOLE, KIND_STRIPE}
        for obj in plan.objects:
            framing = obj.wire_bytes() - obj.payload_bytes
            crc_bytes[0] = 0
            blob = pack_object(obj, "", ALGO_CRC32, data=files)
            assert crc_bytes[0] <= obj.payload_bytes + framing
            crc_bytes[0] = 0
            unpack_object(blob)
            assert crc_bytes[0] <= obj.payload_bytes + framing

    def test_members_under_the_fold_size_are_crcd_twice(self, crc_bytes):
        files = _seeded_files([100, 300, _FOLD_MIN - 1, _FOLD_MIN], 5)
        (obj,) = plan_objects(manifest_from_files(files, CHUNK),
                              FOLD_CFG).objects
        small = sum(m.length for m in obj.members if m.length < _FOLD_MIN)
        framing = obj.wire_bytes() - obj.payload_bytes
        crc_bytes[0] = 0
        blob = pack_object(obj, "", ALGO_CRC32, data=files)
        assert crc_bytes[0] <= obj.payload_bytes + framing + small
        crc_bytes[0] = 0
        unpack_object(blob)
        assert crc_bytes[0] <= obj.payload_bytes + framing + small

    def test_manifest_aware_unpack_crcs_a_payload_once(self, crc_bytes):
        files = _seeded_files([100, 300, _FOLD_MIN, 3 * _FOLD_MIN,
                               9 * _FOLD_MIN + 5], 9)
        manifest = manifest_from_files(files, CHUNK)
        for obj in plan_objects(manifest, FOLD_CFG).objects:
            small = sum(m.length for m in obj.members
                        if m.length < _FOLD_MIN)
            framing = obj.wire_bytes() - obj.payload_bytes
            blob = pack_object(obj, "", ALGO_CRC32, data=files)
            crc_bytes[0] = 0
            unpack_object(blob, manifest)
            assert crc_bytes[0] <= obj.payload_bytes + framing + small

    @pytest.mark.guard
    def test_a_sync_crcs_each_byte_three_times(self, tmp_path, crc_bytes):
        """Scan, pack, and unpack with its manifest cross-check: one pass
        each (the cross-check as a second receive pass made it four, a
        plain trailer pass six).  An exact count that repeats, so a
        fourth pass fails it at once."""
        src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
        spec = mixed_tree_spec(nsmall=100, small_bytes=400, nmedium=6,
                               medium_bytes=200_000, nlarge=1,
                               large_bytes=5_000_000)
        spec.generate(src)
        crc_bytes[0] = 0
        assert sync_tree(src, dst).completed
        assert crc_bytes[0] <= 3.05 * sum(spec.sizes.values())
        assert trees_equal(src, dst)
