"""Dataset formats pinned byte for byte.

The packed-object framing, both manifest encodings and the
``repro sync --dry-run`` plan are wire and CLI contracts: a change to
how the bytes are *produced* (buffers, views, syscalls) must not move a
single one of them.  The expected values below were written by the
implementation that built every object with ``b"".join`` and scanned
the tree with ``os.walk``, on the fixed tree this module builds.
"""

from __future__ import annotations

import os

import pytest

from repro.core.manifest import ALGO_CRC32, ALGO_SHA256
from repro.dataset.manifest import scan_tree
from repro.dataset.packing import (
    KIND_PACKED,
    KIND_STRIPE,
    KIND_WHOLE,
    PackingConfig,
    pack_object,
    plan_objects,
)

CHUNK = 16
PACKING = PackingConfig(object_bytes=2 * CHUNK, pack_threshold=CHUNK)
FILES = {
    "a/one.txt": bytes(range(5)),                           # packed
    "a/two.txt": b"golden",                                 # packed
    "mid.bin": bytes(range(100, 130)),                      # whole
    "z/big.bin": bytes((i * 7) % 251 for i in range(70)),   # 3 stripes
    "z/empty": b"",
}
DIRS = ("hollow",)
MTIME_NS = 1_600_000_000_123_456_789
SYNC_OPTS = ["--chunk-size", str(CHUNK), "--object-size", str(2 * CHUNK),
             "--pack-threshold", str(CHUNK), "--quiet"]


def make_tree(root: str) -> str:
    for d in DIRS:
        os.makedirs(os.path.join(root, d), exist_ok=True)
    for path, payload in FILES.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "wb") as fh:
            fh.write(payload)
        os.utime(full, ns=(MTIME_NS, MTIME_NS))
    return root


def pinned_objects(root: str, algo: int) -> dict:
    """One packed, one whole and the middle stripe, packed from disk."""
    plan = plan_objects(scan_tree(root, CHUNK, algo), PACKING)
    return {
        "packed": next(o for o in plan.objects if o.kind == KIND_PACKED),
        "whole": next(o for o in plan.objects if o.kind == KIND_WHOLE),
        "stripe": next(o for o in plan.objects
                       if o.kind == KIND_STRIPE and o.stripe == 1),
    }


GOLDEN_OBJECTS = {
    ("packed", ALGO_CRC32): (
        "f0b50b7e00010101000000020009000000000000000000000000000000000005"
        "612f6f6e652e747874515ad3cc00010203040009000000000000000000000000"
        "000000000006612f74776f2e74787433ff8627676f6c64656e8e5e5e0e"),
    ("whole", ALGO_CRC32): (
        "f0b50b7e0001010200000001000700000000000000000000000000000000001e"
        "6d69642e62696e0dd2b2456465666768696a6b6c6d6e6f707172737475767778"
        "797a7b7c7d7e7f808139e2a32b"),
    ("stripe", ALGO_CRC32): (
        "f0b50b7e00010103000000010009000000000000000000200000000000000020"
        "7a2f6269672e62696e8e37b42ee0e7eef501080f161d242b323940474e555c63"
        "6a71787f868d949ba2a9b0b7be0bc1a6ac"),
    ("packed", ALGO_SHA256): (
        "f0b50b7e00010201000000020009000000000000000000000000000000000005"
        "612f6f6e652e74787408bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db4"
        "14871f51c9cb35283d0001020304000900000000000000000000000000000000"
        "0006612f74776f2e747874dd56de4137951d9c92681b03416ec15f886b4482a2"
        "7e3a517d32f085244cbe5d676f6c64656e3bd81eb6"),
    ("whole", ALGO_SHA256): (
        "f0b50b7e0001020200000001000700000000000000000000000000000000001e"
        "6d69642e62696ecae03670ec67366a1cb062f999c719a2b9619878cbf604fd3e"
        "eb3f2cf0ff9ed76465666768696a6b6c6d6e6f707172737475767778797a7b7c"
        "7d7e7f80813c23bf5b"),
    ("stripe", ALGO_SHA256): (
        "f0b50b7e00010203000000010009000000000000000000200000000000000020"
        "7a2f6269672e62696e206031ea3f1d49802a3241c4b4a6898e6304858edec981"
        "331035ed2b66eaf1b6e0e7eef501080f161d242b323940474e555c636a71787f"
        "868d949ba2a9b0b7be6ab2ed95"),
}
GOLDEN_ENCODE = {
    ALGO_CRC32: (
        "f0b5d5e700010100000000100000000500000000000000030001610006686f6c"
        "6c6f7700017a0009000000000000000516345785dffbcd15612f6f6e652e7478"
        "74515ad3cc0009000000000000000616345785dffbcd15612f74776f2e747874"
        "33ff86270007000000000000001e16345785dffbcd156d69642e62696ec469df"
        "41fb7f6afa0009000000000000004616345785dffbcd157a2f6269672e62696e"
        "54126ba2f604c8ee6baf2b2b645b3abf81492508000700000000000000001634"
        "5785dffbcd157a2f656d70747900ae3d71"),
    ALGO_SHA256: (
        "f0b5d5e700010200000000100000000500000000000000030001610006686f6c"
        "6c6f7700017a0009000000000000000516345785dffbcd15612f6f6e652e7478"
        "7408bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db414871f51c9cb3528"
        "3d0009000000000000000616345785dffbcd15612f74776f2e747874dd56de41"
        "37951d9c92681b03416ec15f886b4482a27e3a517d32f085244cbe5d00070000"
        "00000000001e16345785dffbcd156d69642e62696e076f819029f2523b31e8da"
        "c8270fa3d2ce28c9fcb9eadd96369002499b02e51684ebb640ece13c67657e75"
        "b194978dcae1c277c5295326a6b0c557087f41659a0009000000000000004616"
        "345785dffbcd157a2f6269672e62696ef7bc6c13e813d37799484d9cd24d1570"
        "d3e943fe0fe6e8f64925faabce0af40da0e1eb3e5559fa89eb0529f7256894a3"
        "4b40a6179bec27629d66f299f76de39b6777ee29fe3a63601d28d39357fb159c"
        "f53a918c7d6e996780efb305dbb6c06df828db8fc7e95161eae0e8352d82e691"
        "2779b8d2a6a8057a7dfe65d07e74f94de7079c4fb969d51d484d3e3bfc0a9c31"
        "c19817d27e87b2def996d18dab584d190007000000000000000016345785dffb"
        "cd157a2f656d707479a525461f"),
}
GOLDEN_JSON = (
    '{"algo":"crc32","chunk_size":16,"dataset_id":"ef52e674b7a82715",'
    '"dirs":["a","hollow","z"],"entries":[{"digests":"515ad3cc","mtim'
    'e_ns":1600000000123456789,"path":"a/one.txt","size":5},{"digests'
    '":"33ff8627","mtime_ns":1600000000123456789,"path":"a/two.txt","'
    'size":6},{"digests":"c469df41fb7f6afa","mtime_ns":16000000001234'
    '56789,"path":"mid.bin","size":30},{"digests":"54126ba2f604c8ee6b'
    'af2b2b645b3abf81492508","mtime_ns":1600000000123456789,"path":"z'
    '/big.bin","size":70},{"digests":"","mtime_ns":160000000012345678'
    '9,"path":"z/empty","size":0}],"nfiles":5,"schema":1,"total_bytes'
    '":111}')
GOLDEN_DRY_RUN = (
    '{"bytes":111,"chunk_size":16,"counts":{"packed":1,"stripe":3,"wh'
    'ole":1},"dataset_id":"ef52e674b7a82715","dirs":3,"empty_files":1'
    ',"files":5,"lanes":3,"object_bytes":32,"objects":5,"pack_thresho'
    'ld":16,"policy":"layout","schedule":[{"bytes":30,"first":"mid.bi'
    'n","kind":"whole","members":1,"object":0,"stripe":0},{"bytes":32'
    ',"first":"z/big.bin","kind":"stripe","members":1,"object":1,"str'
    'ipe":0},{"bytes":11,"first":"a/one.txt","kind":"packed","members'
    '":2,"object":4,"stripe":0},{"bytes":32,"first":"z/big.bin","kind'
    '":"stripe","members":1,"object":2,"stripe":1},{"bytes":6,"first"'
    ':"z/big.bin","kind":"stripe","members":1,"object":3,"stripe":2}]'
    ',"wire_bytes":387}\n')


@pytest.fixture
def tree(tmp_path):
    return make_tree(str(tmp_path / "tree"))


@pytest.mark.parametrize("algo", [ALGO_CRC32, ALGO_SHA256])
@pytest.mark.parametrize("kind", ["packed", "whole", "stripe"])
def test_packed_objects_are_byte_identical(tree, algo, kind):
    obj = pinned_objects(tree, algo)[kind]
    want = GOLDEN_OBJECTS[(kind, algo)]
    assert bytes(pack_object(obj, tree, algo)).hex() == want
    assert bytes(pack_object(obj, "", algo, data=FILES)).hex() == want


@pytest.mark.parametrize("algo", [ALGO_CRC32, ALGO_SHA256])
def test_scanned_manifest_encoding_is_byte_identical(tree, algo):
    assert scan_tree(tree, CHUNK, algo).encode().hex() == GOLDEN_ENCODE[algo]


def test_scanned_manifest_json_is_byte_identical(tree):
    assert scan_tree(tree, CHUNK).to_json() == GOLDEN_JSON


def test_dry_run_plan_is_byte_identical(tree, tmp_path, capsys):
    from repro.server.cli import main

    rc = main(["sync", tree, str(tmp_path / "out"), "--dry-run",
               *SYNC_OPTS])
    assert rc == 0
    assert capsys.readouterr().out == GOLDEN_DRY_RUN
