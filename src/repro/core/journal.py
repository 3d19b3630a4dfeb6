"""Receiver-side write-ahead journal for crash-resumable transfers.

FOBS's whole-object bitmap is already a perfect recovery log: it records
exactly which packets survive a crash.  This module persists it as the
packet schema over :mod:`repro.core.recordlog`, which owns the file
framing, the damage modes, the crash-atomic rewrite and the lifecycle.
The receiver appends a record for every received range *after* the
payload bytes hit stable storage, so replaying the journal after a
crash reconstructs a bitmap that never claims a packet whose bytes were
lost (write-ahead in the data-before-log sense).

Identity: ``transfer_id, total_bytes, packet_size`` (header
``!IHHQQII``).  Record: ``start, count`` (``!III`` with its CRC) —
"packets [start, start+count) were received and written".  Periodic
:meth:`ReceiverJournal.compact` rewrites the file as the run-length
encoding of the current bitmap, so the journal stays O(bitmap) instead
of O(packets received).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.bitmap import PacketBitmap, pack_flags
from repro.core.recordlog import LogCorrupt, LogHeader, LogReplay, RecordLog

JOURNAL_MAGIC = 0xF0B57A1E


class JournalCorrupt(LogCorrupt):
    """The journal header is unusable (short, bad magic/CRC, or it
    describes a different transfer).  Resume is impossible; restart."""


@dataclass(frozen=True)
class JournalHeader(LogHeader):
    """Identity of the transfer a journal belongs to."""

    MAGIC, CORRUPT = JOURNAL_MAGIC, JournalCorrupt
    IDENTITY, RECORD = struct.Struct("!QI"), struct.Struct("!II")

    transfer_id: int
    total_bytes: int
    packet_size: int

    def __post_init__(self) -> None:
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if self.packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if not 0 <= self.transfer_id < 1 << 64:
            raise ValueError("transfer_id must fit in 64 bits")

    @property
    def npackets(self) -> int:
        return -(-self.total_bytes // self.packet_size)

    def admits(self, start: int, count: int) -> bool:
        return count > 0 and start + count <= self.npackets


HEADER_BYTES = JournalHeader.header_bytes()
RECORD_BYTES = JournalHeader.record_bytes()


def encode_record(start: int, count: int, transfer_id: int) -> bytes:
    return JournalHeader.encode_record(transfer_id, start, count)


@dataclass
class ReplayResult(LogReplay):
    """What :func:`replay_journal` recovered."""

    HEADER = JournalHeader
    bitmap: PacketBitmap = field(init=False)

    def __post_init__(self) -> None:
        # Flag bytes, one merge: replay costs O(records + npackets), not
        # a full-bitmap OR and popcount per record.
        received = bytearray(self.header.npackets)
        for start, count in self.records:
            received[start:start + count] = b"\x01" * count
        self.bitmap = PacketBitmap(self.header.npackets)
        self.bitmap.merge(pack_flags(received))

    @property
    def packets_recovered(self) -> int:
        return self.bitmap.count


def replay_journal(path: str, expect: Optional[JournalHeader] = None) -> ReplayResult:
    """Reconstruct the receiver bitmap from a journal file; ``expect``
    pins the exact transfer (see :meth:`LogReplay.load`)."""
    return ReplayResult.load(path, expect)


class ReceiverJournal(RecordLog):
    """Append-only journal for one receiver's bitmap.

    ``record(seq)`` coalesces consecutive sequence numbers into one
    pending run and appends it when the run breaks or grows to
    ``flush_every`` packets; :meth:`flush` forces the pending run and
    the OS-level write out.  Only flushed records survive a crash —
    :meth:`simulate_crash` (used by the fault-injection harnesses)
    discards the pending run exactly as a real process death would.

    When the number of appended records exceeds ``compact_threshold``
    the journal compacts itself (see :meth:`compact`).
    """

    REPLAY = ReplayResult

    def __init__(
        self,
        path: str,
        header: JournalHeader,
        *,
        flush_every: int = 16,
        compact_threshold: int = 4096,
        fsync: bool = False,
    ):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if compact_threshold < 1:
            raise ValueError("compact_threshold must be >= 1")
        super().__init__(path, header, fsync=fsync)
        self.flush_every = flush_every
        self.compact_threshold = compact_threshold
        self.bitmap = PacketBitmap(header.npackets)
        self.compactions = 0
        self._run_start: Optional[int] = None
        self._run_count = 0

    def _adopt(self, replay: ReplayResult) -> None:
        self.bitmap.merge(replay.bitmap.snapshot())

    @classmethod
    def open(cls, path: str, transfer_id: int, total_bytes: int,
             packet_size: int, **kwargs
             ) -> tuple["ReceiverJournal", Optional[ReplayResult]]:
        """Resume ``path`` if it holds this transfer's journal (yielding
        the recovered bitmap in ``replay``), else create it afresh."""
        return super().open(path, transfer_id, total_bytes, packet_size, **kwargs)

    # ------------------------------------------------------------------
    def record(self, seq: int) -> None:
        """Note packet ``seq`` as received-and-durable."""
        if self._fh is None:
            raise ValueError("journal is closed")
        self.bitmap.mark(seq)
        if self._run_start is not None and seq == self._run_start + self._run_count:
            self._run_count += 1
        else:
            self._append_run()
            self._run_start = seq
            self._run_count = 1
        if self._run_count >= self.flush_every:
            self.flush()

    def record_range(self, start: int, count: int) -> None:
        """Note ``count`` packets from ``start`` in one record."""
        if self._fh is None:
            raise ValueError("journal is closed")
        if count <= 0 or start < 0 or start + count > self.header.npackets:
            raise ValueError(f"invalid range ({start}, {count})")
        self.bitmap.mark_range(start, count)
        self._append_run()
        self._run_start = start
        self._run_count = count
        self.flush()

    def _append_run(self) -> None:
        if self._run_start is None or self._run_count == 0:
            return
        self._append(self._run_start, self._run_count)
        self._run_start = None
        self._run_count = 0
        if self.records_written >= self.compact_threshold:
            try:
                self.compact()
            except OSError:
                # Auto-compaction is an optimization; a full disk must
                # not fail the data path.  The old journal is intact
                # and still appendable; compact() already backed the
                # threshold off so we retry later, not per-record.
                pass

    def flush(self) -> None:
        """Append the pending run and push it to the OS (and disk if
        ``fsync``); everything flushed survives :meth:`simulate_crash`."""
        if self._fh is not None:
            self._append_run()
            super().flush()

    def compact(self) -> None:
        """Crash-atomically rewrite the journal as the RLE of the
        current bitmap.  On OSError the old journal stays valid, the
        compaction threshold is backed off (so a full disk does not
        retry per-record), and the error propagates for the caller's
        storage-fault handling."""
        # The run-length encoding of the received ranges.
        try:
            self._rewrite(self.bitmap.runs())
        except OSError:
            self.compact_threshold *= 2
            raise
        # The bitmap (which the RLE was written from) already includes
        # any pending run; carrying it past the rewrite would only
        # append a duplicate record.
        self._run_start = None
        self._run_count = 0
        self.compactions += 1

    def _strike(self, seqs: Sequence[int]) -> int:
        return self.bitmap.demote(seqs)

    def simulate_crash(self) -> None:
        """Die without flushing: the pending (un-appended) run is lost,
        exactly as in a real process death.  Used by crash injection."""
        super().simulate_crash()
        self._run_start = None
        self._run_count = 0


__all__ = [
    "JournalCorrupt",
    "JournalHeader",
    "ReceiverJournal",
    "ReplayResult",
    "replay_journal",
    "encode_record",
    "JOURNAL_MAGIC",
    "HEADER_BYTES",
    "RECORD_BYTES",
]
