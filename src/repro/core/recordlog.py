"""One record log: the CRC-framed, append-only, crash-atomic journal file.

The only state FOBS needs to survive a crash is a set of idempotent
"this is received and durable" facts — packet ranges of one object
(:mod:`repro.core.journal`), done objects of one dataset
(:mod:`repro.dataset.journal`).  This module owns what such a file
looks like and how it survives a kill; the two journals are schemas
over it: a :class:`LogHeader` dataclass carrying the format constants,
the in-memory state and how records map onto it.

File layout (all integers big-endian)::

    HEADER   !IHHQ     magic, version, reserved, id64,
             <identity fields>, crc32(all preceding header bytes)
    RECORD   <record fields>, crc32(record fields || id64)
    ...      (records repeat; fixed-size framing)

Fixed-size records make every failure mode recoverable:

* **torn final record** — a crash mid-append leaves a trailing fragment
  shorter than one record; replay discards it, resume truncates it;
* **corrupted entry** — a record whose CRC does not verify is skipped
  (framing is positional, so one bad record cannot desynchronize the
  rest); it is *never* applied, so corruption can drop information but
  cannot fabricate a fact;
* **truncated / foreign file** — a header that is short, has a bad
  magic/CRC, or names a different id raises the schema's
  :class:`LogCorrupt`; the caller starts over.

Records are set-union facts, so replay order does not matter and
duplicates are harmless; callers append one only *after* the bytes it
describes are on stable storage (data-before-log).  Facts are only ever
removed by :meth:`RecordLog._rewrite`, the one crash-atomic rewrite
(temp file, fsync, rename) behind both compaction and demotion.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import astuple, dataclass, field
from typing import Callable, ClassVar, Iterable, List, Optional, Tuple

VERSION = 1
COMPACT_SUFFIX = ".compact"
_PREFIX = struct.Struct("!IHHQ")
_CRC = struct.Struct("!I")
_ID = struct.Struct("!Q")


class LogCorrupt(ValueError):
    """The log header is unusable (short, bad magic/CRC, or it names a
    different id).  Resume is impossible; start from an empty state."""


class LogHeader:
    """Identity of what a log belongs to, and the format of its file.

    Subclasses are frozen dataclasses — first field the 64-bit id, the
    rest packed by ``IDENTITY`` — that set the four format constants
    and whose ``admits(*record_fields)`` says which records can be true.
    """

    MAGIC: ClassVar[int]
    IDENTITY: ClassVar[struct.Struct]  # header fields after the id
    RECORD: ClassVar[struct.Struct]  # record fields before the CRC
    CORRUPT: ClassVar[type]  # the LogCorrupt subclass decode raises

    @classmethod
    def header_bytes(cls) -> int:
        return _PREFIX.size + cls.IDENTITY.size + _CRC.size

    @classmethod
    def record_bytes(cls) -> int:
        return cls.RECORD.size + _CRC.size

    @classmethod
    def encode_record(cls, ident: int, *fields: int) -> bytes:
        body = cls.RECORD.pack(*fields)
        # Salt with the id so a record from another log can never
        # verify against this one.
        return body + _CRC.pack(zlib.crc32(body + _ID.pack(ident)))

    def encode(self) -> bytes:
        ident, *rest = astuple(self)
        body = _PREFIX.pack(self.MAGIC, VERSION, 0, ident) + self.IDENTITY.pack(*rest)
        return body + _CRC.pack(zlib.crc32(body))

    @classmethod
    def decode(cls, data: bytes) -> "LogHeader":
        if len(data) < cls.header_bytes():
            raise cls.CORRUPT("journal shorter than its header")
        magic, version, _rsvd, ident = _PREFIX.unpack_from(data)
        if magic != cls.MAGIC:
            raise cls.CORRUPT(f"bad journal magic {magic:#x}")
        if version != VERSION:
            raise cls.CORRUPT(f"unsupported journal version {version}")
        end = cls.header_bytes() - _CRC.size
        if zlib.crc32(data[:end]) != _CRC.unpack_from(data, end)[0]:
            raise cls.CORRUPT("journal header failed CRC32 verification")
        try:
            return cls(ident, *cls.IDENTITY.unpack_from(data, _PREFIX.size))
        except ValueError as exc:
            raise cls.CORRUPT(f"journal header invalid: {exc}") from exc


@dataclass
class LogReplay:
    """What replaying a log file recovered.  Schema subclasses set
    ``HEADER`` and derive their state from ``records`` after init."""

    HEADER: ClassVar[type]

    header: LogHeader
    #: Field tuples of the records applied, in file order.
    records: List[Tuple[int, ...]] = field(repr=False)
    #: Entries that failed their CRC or that the header does not admit
    #: — detected and dropped.
    records_dropped: int = 0
    #: Bytes of a torn (partially written) final record, discarded.
    torn_tail_bytes: int = 0

    @property
    def records_applied(self) -> int:
        return len(self.records)

    @classmethod
    def load(cls, path: str, expect: Optional[LogHeader] = None):
        """Read ``path`` back.  ``expect``, when given, asserts the log
        belongs to exactly that identity; a mismatch raises the
        schema's :class:`LogCorrupt`, so a stale log can never seed a
        resume of something else."""
        with open(path, "rb") as fh:
            data = fh.read()
        header = cls.HEADER.decode(data)
        if expect is not None and header != expect:
            raise header.CORRUPT(f"journal describes {header}, expected {expect}")
        ident = astuple(header)[0]
        first, step = header.header_bytes(), header.record_bytes()
        nframes, torn = divmod(len(data) - first, step)
        records = []
        for off in range(first, first + nframes * step, step):
            frame = data[off:off + step]
            fields = header.RECORD.unpack_from(frame)
            # Genuine iff it is byte for byte what the writer emits for
            # these fields under this id (so the CRC is defined once).
            if frame == header.encode_record(ident, *fields) and header.admits(*fields):
                records.append(fields)
        return cls(header, records, nframes - len(records), torn)


def _unlink(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class RecordLog:
    """An open log file: append, flush, crash-atomic rewrite, lifecycle.

    A schema subclass sets ``REPLAY`` (its :class:`LogReplay` type) and
    keeps its state in step with what it appends through three hooks:
    ``_adopt(replay)`` seeds the state on resume, ``_strike(items)``
    removes facts and returns how many were set, ``compact()`` rewrites
    the file as exactly the current state.  Only flushed records
    survive a crash.
    """

    REPLAY: ClassVar[type]

    def __init__(self, path: str, header: LogHeader, *, fsync: bool = False):
        self.path = path
        self.header = header
        self.fsync = fsync
        self.records_written = 0
        self._ident = astuple(header)[0]
        self._fh = None  # type: Optional[object]
        #: Fault-injection seam: when set, called with a phase label at
        #: each rewrite step ("compact:tmp-synced" after the temp file
        #: is durable, "compact:replaced" after the rename).  A hook
        #: that raises simulates a kill at exactly that point; the
        #: on-disk file must replay as either the old or the new
        #: journal, never neither.
        self.crash_hook: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, path: str, *identity: int, **kwargs):
        """Start a fresh log, truncating anything at ``path``."""
        log = cls(path, cls.REPLAY.HEADER(*identity), **kwargs)
        _unlink(path + COMPACT_SUFFIX)
        log._fh = open(path, "wb")
        log._fh.write(log.header.encode())
        log.flush()
        return log

    @classmethod
    def resume(cls, path: str, *identity: int, **kwargs):
        """Replay an existing log and reopen it for appending.

        Raises the schema's :class:`LogCorrupt` (or :class:`OSError` if
        the file is missing) when the log cannot seed this identity.
        """
        header = cls.REPLAY.HEADER(*identity)
        replay = cls.REPLAY.load(path, header)
        log = cls(path, header, **kwargs)
        log._adopt(replay)
        # A kill between "compact:tmp-synced" and the rename left the
        # old log valid beside a temp file nobody will ever rename.
        _unlink(path + COMPACT_SUFFIX)
        # Re-append from a clean boundary: drop any torn tail so new
        # records land on the fixed framing.
        log.records_written = replay.records_applied + replay.records_dropped
        valid = header.header_bytes() + log.records_written * header.record_bytes()
        log._fh = open(path, "r+b")
        log._fh.truncate(valid)
        log._fh.seek(valid)
        return log, replay

    @classmethod
    def open(cls, path: str, *identity: int, **kwargs):
        """Resume ``path`` if it holds a matching log, else create: a
        usable log yields ``(log, replay)`` with the recovered state, a
        missing or corrupt file ``(fresh log, None)``."""
        try:
            return cls.resume(path, *identity, **kwargs)
        except (OSError, LogCorrupt):
            return cls.create(path, *identity, **kwargs), None

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._fh is None

    def _append(self, *fields: int) -> None:
        self._fh.write(self.header.encode_record(self._ident, *fields))
        self.records_written += 1

    def flush(self) -> None:
        """Push appended records to the OS (and disk if ``fsync``);
        everything flushed survives :meth:`simulate_crash`."""
        if self._fh is None:
            return
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def demote(self, items: Iterable[int]) -> int:
        """Durably strike ``items`` from the state (verify failures).

        The file is rewritten without them before this returns, so the
        demotion is itself crash-durable — a kill right after an audit
        cannot resurrect corrupt data as "received" on the next resume.
        Returns how many were actually struck (idempotent on re-runs).
        """
        if self._fh is None:
            raise ValueError("journal is closed")
        struck = self._strike(items)
        if struck:
            self.compact()
        return struck

    def _rewrite(self, records: Iterable[Tuple[int, ...]]) -> None:
        """Replace the file with the header plus exactly ``records``.

        Crash-atomic: the replacement is written to a temp file,
        fsynced *unconditionally* (rename-into-place is only atomic if
        the new bytes are durable before the rename makes them the
        journal), then renamed over the old file.  The old journal
        stays open and untouched until the rename succeeds, so a kill
        or an ENOSPC/EIO at any point leaves exactly one valid journal
        on disk — never a truncated half-rewrite.  On OSError the temp
        file is removed and the error propagates for the caller's
        back-off and storage-fault handling.
        """
        if self._fh is None:
            raise ValueError("journal is closed")
        tmp = self.path + COMPACT_SUFFIX
        nrecords = 0
        try:
            with open(tmp, "wb") as out:
                out.write(self.header.encode())
                for fields in records:
                    out.write(self.header.encode_record(self._ident, *fields))
                    nrecords += 1
                out.flush()
                os.fsync(out.fileno())
            self._crash_point("compact:tmp-synced")
            os.replace(tmp, self.path)
        except OSError:
            _unlink(tmp)
            raise
        self._crash_point("compact:replaced")
        self._fh.close()
        self._fh = open(self.path, "r+b")
        self._fh.seek(0, os.SEEK_END)
        self.records_written = nrecords
        if self.fsync:
            # Make the rename itself durable, not just the file bytes.
            try:
                dirfd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
            except OSError:
                return
            try:
                os.fsync(dirfd)
            finally:
                os.close(dirfd)

    def _crash_point(self, phase: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(phase)

    # ------------------------------------------------------------------
    def simulate_crash(self) -> None:
        """Die without flushing — exactly what SIGKILL does: flushed
        records survive, buffered ones are lost.  Used by crash
        injection."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        """Flush and close (clean shutdown)."""
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def delete(self) -> None:
        """Close and remove the file and any rewrite temp a kill left
        beside it (the work completed; the log is obsolete)."""
        self.simulate_crash()
        _unlink(self.path)
        _unlink(self.path + COMPACT_SUFFIX)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.path!r}, {self.records_written} records)"
