"""Dataset journal: crash-resume at chunk-object granularity.

The per-object receiver journal (:mod:`repro.core.journal`) makes one
*object* resumable at packet granularity; this journal makes the whole
*dataset* resumable at object granularity.  Both are schemas over
:mod:`repro.core.recordlog`, which owns the file framing, the damage
modes, the crash-atomic rewrite and the lifecycle.  One record is
appended after each chunk-object is transferred, unpacked,
digest-verified and durably written at the destination —
data-before-log — so a killed ``repro sync`` replays the journal,
re-audits the claimed objects against the dataset manifest (durably
demoting any whose destination bytes no longer match), and re-sends
strictly the remainder.

Identity: ``dataset_id, nobjects`` (header ``!IHHQII``); the id is
content-derived, so *any* change to the tree re-keys it and the old
journal raises :class:`DatasetJournalCorrupt` — the caller starts fresh
rather than trusting it.  Record: one ``object_index`` (``!II`` with
its CRC) — "object i is done".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional, Set, Tuple

from repro.core.recordlog import LogCorrupt, LogHeader, LogReplay, RecordLog

JOURNAL_MAGIC = 0xF0B5D106


class DatasetJournalCorrupt(LogCorrupt):
    """The journal header is unusable or names a different dataset.
    Resume is impossible; the sync starts from an empty done-set."""


@dataclass(frozen=True)
class DatasetJournalHeader(LogHeader):
    """Identity of the dataset a journal belongs to."""

    MAGIC, CORRUPT = JOURNAL_MAGIC, DatasetJournalCorrupt
    IDENTITY, RECORD = struct.Struct("!I"), struct.Struct("!I")

    dataset_id: int
    nobjects: int

    def __post_init__(self) -> None:
        if not 0 <= self.dataset_id < 1 << 64:
            raise ValueError("dataset_id must fit in 64 bits")
        if self.nobjects <= 0:
            raise ValueError("nobjects must be positive")

    def admits(self, index: int) -> bool:
        return index < self.nobjects


HEADER_BYTES = DatasetJournalHeader.header_bytes()
RECORD_BYTES = DatasetJournalHeader.record_bytes()


def encode_record(index: int, dataset_id: int) -> bytes:
    return DatasetJournalHeader.encode_record(dataset_id, index)


@dataclass
class DatasetReplay(LogReplay):
    """What a journal replay recovered."""

    HEADER = DatasetJournalHeader
    done: Set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.done = {index for (index,) in self.records}


def replay_dataset_journal(
    path: str, expect: Optional[DatasetJournalHeader] = None
) -> DatasetReplay:
    """Reconstruct the done-set from a journal file; ``expect`` pins
    the exact dataset (see :meth:`LogReplay.load`)."""
    return DatasetReplay.load(path, expect)


class DatasetJournal(RecordLog):
    """Append-only done-log for one dataset transfer."""

    REPLAY = DatasetReplay

    def __init__(self, path: str, header: DatasetJournalHeader,
                 *, fsync: bool = False):
        super().__init__(path, header, fsync=fsync)
        self.done: Set[int] = set()

    def _adopt(self, replay: DatasetReplay) -> None:
        self.done = set(replay.done)

    @classmethod
    def open(cls, path: str, dataset_id: int, nobjects: int,
             **kwargs) -> Tuple["DatasetJournal", Optional[DatasetReplay]]:
        """Resume ``path`` if it matches this dataset, else create."""
        return super().open(path, dataset_id, nobjects, **kwargs)

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        return self.header.nobjects - len(self.done)

    def mark_done(self, index: int) -> None:
        """Record object ``index`` as transferred, verified and durable.

        Callers must only invoke this *after* the object's bytes are on
        the destination disk (data-before-log).  Every record is flushed
        as it is appended, so it survives a kill.  Idempotent:
        re-marking a done object appends nothing.
        """
        if self._fh is None:
            raise ValueError("journal is closed")
        if not 0 <= index < self.header.nobjects:
            raise ValueError(f"object index {index} out of range "
                             f"[0, {self.header.nobjects})")
        if index in self.done:
            return
        self.done.add(index)
        self._append(index)
        self.flush()

    def _strike(self, indices: Iterable[int]) -> int:
        struck = self.done.intersection(indices)
        self.done -= struck
        return len(struck)

    def compact(self) -> None:
        """Crash-atomically rewrite the journal as one record per done
        object."""
        self._rewrite((index,) for index in sorted(self.done))


__all__ = [
    "DatasetJournal",
    "DatasetJournalCorrupt",
    "DatasetJournalHeader",
    "DatasetReplay",
    "HEADER_BYTES",
    "JOURNAL_MAGIC",
    "RECORD_BYTES",
    "encode_record",
    "replay_dataset_journal",
]
