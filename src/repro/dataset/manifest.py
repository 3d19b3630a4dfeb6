"""Dataset manifest: a deterministic, verifiable index of a directory tree.

A *dataset* is a whole tree of files moved as one logical transfer.
The manifest is its contract: one entry per regular file (relative
POSIX path, size, mtime, and per-chunk digests computed with the same
digest functions as :mod:`repro.core.manifest`), plus the sorted list
of directories so empty directories survive the trip.  Everything
downstream hangs off it — the packer plans objects over manifest
entries, the dataset journal is keyed by the manifest's content-derived
``dataset_id``, and resume audits re-check destination bytes against
the manifest digests before trusting them.

Two codecs produce the same logical manifest:

* **binary** (``encode``/``decode``) — compact, CRC32-protected tail so
  any single-byte flip is detected and the manifest rejected
  (:class:`DatasetManifestCorrupt`), mirroring the core manifest's
  "never demote or bless on a damaged digest list" rule;
* **JSON** (``to_json``/``from_json``) — canonical (sorted keys,
  compact separators), byte-deterministic for the same tree, which is
  what ``repro sync --dry-run`` prints and CI ``cmp``-checks.

Layout of the binary form (all integers big-endian)::

    HEADER  !IHBBIIQ   magic, version, algo, reserved, chunk_size,
                       nentries, ndirs
    DIR     !H + path  (repeated ndirs times, sorted)
    ENTRY   !HQQ       path_len, size, mtime_ns; then path bytes, then
                       nchunks x digest_size raw digests
    TRAILER !I         crc32 over every preceding byte

``scan_tree`` is the deterministic walk: one ``os.scandir`` pass, one
``lstat`` per file, paths sorted, symlinks skipped, an unreadable
directory an error rather than a silent gap, and chunk digests reuse
the file-digest loop of :meth:`repro.core.manifest.ChunkManifest.from_file`
(``os.read`` windows, no file object and no ``ChunkManifest`` per file) so
the dataset layer and the per-object VERIFY layer can never disagree about
what a chunk's digest is.  Each entry records the file as its read found
it, so a file that grew or was emptied after its ``lstat`` is still one
consistent entry.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import (
    BinaryIO,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.manifest import (
    ALGO_CRC32,
    ALGO_NAMES,
    ALGO_SHA256,
    VERIFY_READ_BYTES,
    _digest_chunks,
    _file_digests,
)

DATASET_MAGIC = 0xF0B5D5E7
DATASET_VERSION = 1
_HEADER = struct.Struct("!IHBBIIQ")
_DIR = struct.Struct("!H")
_ENTRY = struct.Struct("!HQQ")
_CRC = struct.Struct("!I")
DATASET_HEADER_BYTES = _HEADER.size

_ALGO_SIZES = {ALGO_CRC32: 4, ALGO_SHA256: 32}
_ALGO_BY_NAME = {name: algo for algo, name in ALGO_NAMES.items()}

#: Default digest granularity: 64 KiB.  Object/stripe sizes must be a
#: multiple of this so member boundaries align with digest boundaries.
DEFAULT_CHUNK_SIZE = 65536


class DatasetManifestCorrupt(ValueError):
    """The manifest bytes are unusable (short, bad magic/CRC, or an
    unknown digest algorithm).  Nothing downstream may trust them."""


@dataclass(frozen=True)
class FileEntry:
    """One regular file of the dataset."""

    #: Relative POSIX path ("a/b/c.dat") — never absolute, never "..".
    path: str
    size: int
    #: Modification time in integer nanoseconds (0 if unknown).
    mtime_ns: int
    #: ``nchunks * digest_size`` raw digests, chunk order (empty for a
    #: zero-byte file).
    digests: bytes

    def nchunks(self, chunk_size: int) -> int:
        return -(-self.size // chunk_size) if self.size else 0

    def chunk_digest(self, index: int, algo: int) -> bytes:
        size = _ALGO_SIZES[algo]
        return self.digests[index * size:(index + 1) * size]

    def chunk_length(self, index: int, chunk_size: int) -> int:
        if index == self.nchunks(chunk_size) - 1:
            return self.size - index * chunk_size
        return chunk_size

    def verify_range(
        self,
        fh: BinaryIO,
        offset: int,
        length: int,
        chunk_size: int,
        algo: int,
    ) -> List[int]:
        """Audit the chunks covering ``[offset, offset+length)``.

        ``offset`` must sit on a chunk boundary (the packer guarantees
        member ranges do).  Returns the corrupt chunk indices among
        those covered; a short read (torn file) counts as corrupt.
        Reads :data:`~repro.core.manifest.VERIFY_READ_BYTES` windows and
        digests views of them, as ``ChunkManifest.verify_file`` does.
        """
        if offset % chunk_size:
            raise ValueError(f"offset {offset} not chunk-aligned")
        dsize = _ALGO_SIZES[algo]
        first = offset // chunk_size
        last = -(-(offset + length) // chunk_size)
        window = max(1, VERIFY_READ_BYTES // chunk_size)
        bad: List[int] = []
        for start in range(first, last, window):
            stop = min(start + window, last)
            want = max(min(stop * chunk_size, self.size)
                       - start * chunk_size, 0)
            fh.seek(start * chunk_size)
            data = fh.read(want)
            got = _digest_chunks(data, chunk_size, algo)
            expect = self.digests[start * dsize:stop * dsize]
            if len(data) == want and got == expect:
                continue
            for k, index in enumerate(range(start, stop)):
                end = k * chunk_size + self.chunk_length(index, chunk_size)
                if (end > len(data) or got[k * dsize:(k + 1) * dsize]
                        != expect[k * dsize:(k + 1) * dsize]):
                    bad.append(index)
        return bad


def _check_rel_path(path: str) -> str:
    if not path or path.startswith("/") or "\\" in path:
        raise ValueError(f"not a relative POSIX path: {path!r}")
    parts = path.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"unsafe path component in {path!r}")
    return path


@dataclass(frozen=True)
class DatasetManifest:
    """A verifiable snapshot of one directory tree."""

    chunk_size: int
    algo: int
    #: Sorted relative paths of every directory (so empty directories
    #: are materialized at the destination).
    dirs: Tuple[str, ...]
    #: Sorted-by-path file entries.
    entries: Tuple[FileEntry, ...]

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.algo not in _ALGO_SIZES:
            raise ValueError(f"unknown digest algorithm {self.algo}")
        size = _ALGO_SIZES[self.algo]
        for entry in self.entries:
            _check_rel_path(entry.path)
            if entry.size < 0:
                raise ValueError(f"{entry.path}: negative size")
            want = entry.nchunks(self.chunk_size) * size
            if len(entry.digests) != want:
                raise ValueError(
                    f"{entry.path}: digest blob is {len(entry.digests)}B, "
                    f"expected {want}B")
        for d in self.dirs:
            _check_rel_path(d)
        paths = [e.path for e in self.entries]
        if paths != sorted(paths) or len(set(paths)) != len(paths):
            raise ValueError("entries must be sorted by path and unique")
        if list(self.dirs) != sorted(set(self.dirs)):
            raise ValueError("dirs must be sorted and unique")

    # ------------------------------------------------------------------
    @property
    def nfiles(self) -> int:
        return len(self.entries)

    @property
    def total_bytes(self) -> int:
        return sum(e.size for e in self.entries)

    @property
    def total_chunks(self) -> int:
        return sum(e.nchunks(self.chunk_size) for e in self.entries)

    @property
    def digest_size(self) -> int:
        return _ALGO_SIZES[self.algo]

    @property
    def algo_name(self) -> str:
        return ALGO_NAMES[self.algo]

    @cached_property
    def dataset_id(self) -> int:
        """Content-derived 64-bit identity.

        Computed over paths, sizes and digests — *not* mtimes — so the
        journal of a killed sync still matches after a re-scan, while
        any content change yields a new id and stale journals are
        rejected by their header check.
        """
        h = zlib.crc32(struct.pack("!II", self.chunk_size, self.algo))
        g = zlib.crc32(b"dataset")
        for entry in self.entries:
            raw = entry.path.encode("utf-8") + struct.pack("!Q", entry.size)
            h = zlib.crc32(raw, h)
            h = zlib.crc32(entry.digests, h)
            g = zlib.crc32(entry.digests, zlib.crc32(raw[::-1], g))
        return ((h & 0xFFFFFFFF) << 32) | (g & 0xFFFFFFFF)

    @cached_property
    def entry_for(self) -> Callable[[str], FileEntry]:
        """``path -> FileEntry`` (``KeyError`` if absent): one dict lookup."""
        return {entry.path: entry for entry in self.entries}.__getitem__

    # ------------------------------------------------------------------
    # Binary codec
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        parts = [_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, self.algo, 0,
                              self.chunk_size, len(self.entries),
                              len(self.dirs))]
        for d in self.dirs:
            raw = d.encode("utf-8")
            parts.append(_DIR.pack(len(raw)))
            parts.append(raw)
        for entry in self.entries:
            raw = entry.path.encode("utf-8")
            parts.append(_ENTRY.pack(len(raw), entry.size,
                                     max(entry.mtime_ns, 0)))
            parts.append(raw)
            parts.append(entry.digests)
        body = b"".join(parts)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, data: bytes) -> "DatasetManifest":
        if len(data) < DATASET_HEADER_BYTES + _CRC.size:
            raise DatasetManifestCorrupt("dataset manifest truncated")
        body, crc_bytes = data[:-_CRC.size], data[-_CRC.size:]
        if zlib.crc32(body) != _CRC.unpack(crc_bytes)[0]:
            raise DatasetManifestCorrupt(
                "dataset manifest failed CRC32 verification")
        magic, version, algo, _rsvd, chunk_size, nentries, ndirs = \
            _HEADER.unpack_from(body)
        if magic != DATASET_MAGIC:
            raise DatasetManifestCorrupt(f"bad manifest magic {magic:#x}")
        if version != DATASET_VERSION:
            raise DatasetManifestCorrupt(
                f"unsupported manifest version {version}")
        if algo not in _ALGO_SIZES:
            raise DatasetManifestCorrupt(f"unknown digest algorithm {algo}")
        if chunk_size <= 0:
            raise DatasetManifestCorrupt("degenerate chunk size")
        dsize = _ALGO_SIZES[algo]
        off = DATASET_HEADER_BYTES
        try:
            dirs: List[str] = []
            for _ in range(ndirs):
                (plen,) = _DIR.unpack_from(body, off)
                off += _DIR.size
                dirs.append(body[off:off + plen].decode("utf-8"))
                off += plen
            entries: List[FileEntry] = []
            for _ in range(nentries):
                plen, size, mtime_ns = _ENTRY.unpack_from(body, off)
                off += _ENTRY.size
                path = body[off:off + plen].decode("utf-8")
                if len(path.encode("utf-8")) != plen:
                    raise DatasetManifestCorrupt("entry path truncated")
                off += plen
                nchunks = -(-size // chunk_size) if size else 0
                blob = body[off:off + nchunks * dsize]
                if len(blob) != nchunks * dsize:
                    raise DatasetManifestCorrupt("entry digests truncated")
                off += nchunks * dsize
                entries.append(FileEntry(path=path, size=size,
                                         mtime_ns=mtime_ns,
                                         digests=bytes(blob)))
            if off != len(body):
                raise DatasetManifestCorrupt(
                    f"{len(body) - off} trailing bytes after last entry")
            return cls(chunk_size=chunk_size, algo=algo, dirs=tuple(dirs),
                       entries=tuple(entries))
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            if isinstance(exc, DatasetManifestCorrupt):
                raise
            raise DatasetManifestCorrupt(
                f"dataset manifest undecodable: {exc}") from exc

    @property
    def encoded_size(self) -> int:
        return len(self.encode())

    def save(self, path: str) -> None:
        """Write the binary manifest (atomic via rename)."""
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(self.encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "DatasetManifest":
        with open(path, "rb") as fh:
            return cls.decode(fh.read())

    # ------------------------------------------------------------------
    # Canonical JSON codec (byte-deterministic for the same tree)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        record = {
            "schema": DATASET_VERSION,
            "algo": self.algo_name,
            "chunk_size": self.chunk_size,
            "dataset_id": f"{self.dataset_id:016x}",
            "total_bytes": self.total_bytes,
            "nfiles": self.nfiles,
            "dirs": list(self.dirs),
            "entries": [
                {"path": e.path, "size": e.size, "mtime_ns": e.mtime_ns,
                 "digests": e.digests.hex()}
                for e in self.entries
            ],
        }
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DatasetManifest":
        try:
            record = json.loads(text)
            algo = _ALGO_BY_NAME[record["algo"]]
            entries = tuple(
                FileEntry(path=e["path"], size=int(e["size"]),
                          mtime_ns=int(e["mtime_ns"]),
                          digests=bytes.fromhex(e["digests"]))
                for e in record["entries"])
            manifest = cls(chunk_size=int(record["chunk_size"]), algo=algo,
                           dirs=tuple(record["dirs"]), entries=entries)
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetManifestCorrupt(
                f"dataset manifest JSON undecodable: {exc}") from exc
        declared = record.get("dataset_id")
        if (declared is not None
                and declared != f"{manifest.dataset_id:016x}"):
            raise DatasetManifestCorrupt(
                "dataset manifest JSON dataset_id does not match entries")
        return manifest


def _walk(root: str) -> Tuple[List[str], List[Tuple[str, os.DirEntry]]]:
    """One ``os.scandir`` pass over ``root``: sorted directory rel paths
    and sorted ``(rel path, entry)`` of every regular file.

    Symlinks (to files or directories) are skipped — a dataset is the
    bytes it holds, not the graph it aliases.  A directory that cannot
    be listed raises (``os.walk`` would silently leave it out).
    """
    dirs: List[str] = []
    files: List[Tuple[str, os.DirEntry]] = []
    pending = [""]
    while pending:
        prefix = pending.pop()
        with os.scandir(os.path.join(root, prefix) if prefix else root) as it:
            for entry in it:
                rel = prefix + entry.name
                if entry.is_dir(follow_symlinks=False):
                    dirs.append(rel)
                    pending.append(rel + "/")
                elif entry.is_file(follow_symlinks=False):
                    files.append((rel, entry))
    dirs.sort()
    files.sort(key=lambda pair: pair[0])
    return dirs, files


def iter_tree(root: str) -> Tuple[List[str], List[str]]:
    """Deterministic walk of ``root``: sorted (dirs, files) rel paths.

    Symlinks are skipped; an unreadable directory raises ``OSError``.
    """
    dirs, files = _walk(root)
    return dirs, [rel for rel, _ in files]


def scan_tree(
    root: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    algo: int = ALGO_CRC32,
    exclude: Optional[Sequence[str]] = None,
) -> DatasetManifest:
    """Build the manifest of the tree rooted at ``root``.

    The walk is deterministic (sorted directories and files), so the
    same tree always yields byte-identical ``encode()``/``to_json()``
    output — the property ``repro sync --dry-run`` leans on.
    ``exclude`` names exact relative paths to skip (e.g. a journal file
    living inside the tree).
    """
    if not os.path.isdir(root):
        raise NotADirectoryError(root)
    skip = frozenset(exclude or ())
    dirs, files = _walk(root)
    entries: List[FileEntry] = []
    for rel, dirent in files:
        if rel in skip:
            continue
        st = dirent.stat(follow_symlinks=False)
        size, digests = (_file_digests(dirent.path, chunk_size, algo)
                         if st.st_size else (0, b""))
        entries.append(FileEntry(path=rel, size=size,
                                 mtime_ns=st.st_mtime_ns, digests=digests))
    return DatasetManifest(chunk_size=chunk_size, algo=algo,
                           dirs=tuple(d for d in dirs if d not in skip),
                           entries=tuple(entries))


def manifest_from_files(
    files: Iterable[Tuple[str, bytes]],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    algo: int = ALGO_CRC32,
    dirs: Sequence[str] = (),
) -> DatasetManifest:
    """Build a manifest from in-memory ``(path, data)`` pairs (tests).

    Accepts a mapping or an iterable of pairs.
    """
    entries = []
    if isinstance(files, Mapping):
        files = files.items()
    for path, data in sorted(files):
        entries.append(FileEntry(path=path, size=len(data), mtime_ns=0,
                                 digests=_digest_chunks(data, chunk_size,
                                                        algo)))
    return DatasetManifest(chunk_size=chunk_size, algo=algo,
                           dirs=tuple(sorted(set(dirs))),
                           entries=tuple(entries))


__all__ = [
    "DATASET_MAGIC",
    "DATASET_VERSION",
    "DEFAULT_CHUNK_SIZE",
    "DatasetManifest",
    "DatasetManifestCorrupt",
    "FileEntry",
    "iter_tree",
    "manifest_from_files",
    "scan_tree",
]
