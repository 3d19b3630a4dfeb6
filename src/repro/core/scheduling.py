"""Packet-selection policies: which unacknowledged packet goes next.

The paper tried several algorithms and found the *circular buffer*
discipline "the best approach (by far)": never retransmit a packet for
the (n+1)-st time while any unacknowledged packet has been transmitted
at most n times.  Sweeping a wrap-around pointer that skips acked
packets implements exactly that invariant; the two alternatives here
are the losing strategies the ablation bench contrasts it with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol

from repro.core.bitmap import PacketBitmap

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np


class Scheduler(Protocol):
    """Chooses which unacknowledged packets are transmitted next.

    ``take_batch`` is what senders call.  ``next_seq`` / ``record_sent``
    are the same policy one step at a time: the reference the property
    tests hold ``take_batch`` to, and what the two ablation schedulers
    build theirs from.
    """

    #: Times each packet has been transmitted so far.
    send_count: "np.ndarray"

    def take_batch(
        self, acked: PacketBitmap, size: int
    ) -> tuple[list[int], list[int]]:
        """Select *and record* up to ``size`` packets.

        Returns ``(seqs, transmission_counts)``; a count is how often
        that packet had been sent *before* this pick.  Both are empty
        when nothing is missing.
        """
        ...

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        """Next packet to send given current ACK state; None if done."""
        ...

    def record_sent(self, seq: int) -> None:
        """Inform the policy a packet was actually transmitted."""
        ...


def _take_stepwise(
    scheduler: Scheduler, acked: PacketBitmap, size: int
) -> tuple[list[int], list[int]]:
    """``take_batch`` as ``size`` x (``next_seq``, ``record_sent``)."""
    seqs: list[int] = []
    trans: list[int] = []
    for _ in range(size):
        seq = scheduler.next_seq(acked)
        if seq is None:
            break
        seqs.append(seq)
        trans.append(int(scheduler.send_count[seq]))
        scheduler.record_sent(seq)
    return seqs, trans


class CircularScheduler:
    """The paper's circular-buffer discipline.

    The pointer sweeps 0..n-1 repeatedly, skipping acknowledged
    packets.  Within each full sweep every surviving packet is sent
    exactly once, which yields the fairness invariant:
    ``max(send_count over unacked) - min(send_count over unacked) <= 1``.

    The sweep is written once, in :meth:`take_batch`; every backend
    runs it.  Nothing in ``src/`` calls :meth:`next_seq` /
    :meth:`record_sent` on this class, and that is the point: they are
    the discipline one step at a time against the bitmap itself, the
    reference ``tests/test_core_scheduling.py`` holds the sweep to.
    """

    def __init__(self, npackets: int):
        if npackets <= 0:
            raise ValueError("npackets must be positive")
        self.npackets = npackets
        self._ptr = 0
        self.rounds = 0
        # A plain list: numpy scalar indexing costs ~10x a list index,
        # and the sweep reads and writes one count per packet sent.
        self._send_list: list[int] = [0] * npackets

    @property
    def send_count(self) -> "np.ndarray":
        """Per-packet transmission counts (a NumPy copy, for tests and
        tools)."""
        import numpy as np

        return np.array(self._send_list, dtype=np.int32)

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        seq = acked.next_missing(self._ptr)
        if seq is None:
            return None
        if seq < self._ptr:
            self.rounds += 1
        return seq

    def record_sent(self, seq: int) -> None:
        self._send_list[seq] += 1
        self._ptr = seq + 1
        if self._ptr >= self.npackets:
            self._ptr = 0
            self.rounds += 1

    def take_batch(
        self, acked: PacketBitmap, size: int
    ) -> tuple[list[int], list[int]]:
        """One sweep of up to ``size`` picks: the discipline itself,
        with a ``memchr`` over the flag bytes for "next unacked".

        Pick, count, advance, wrap.  The cost of a pick is the run of
        acknowledged packets it skips, so a sweep pays for the bitmap
        once per round, not once per ACK.  A batch larger than the
        missing set goes round again (stall probes rely on it).
        ``rounds``, ``send_count`` and the pointer end up exactly where
        ``size`` x (``next_seq``, ``record_sent``) leaves them.
        """
        if acked.is_complete:
            return [], []
        find = acked.flags.find
        sl = self._send_list
        npackets = self.npackets
        ptr = self._ptr
        rounds = 0
        seqs: list[int] = []
        trans: list[int] = []
        for _ in range(size):
            seq = find(0, ptr)
            if seq < 0:
                # Nothing unacked up to the end: wrap to the first one.
                seq = find(0)
                rounds += 1
            t = sl[seq]
            seqs.append(seq)
            trans.append(t)
            sl[seq] = t + 1
            ptr = seq + 1
            if ptr == npackets:
                ptr = 0
                rounds += 1
        self._ptr = ptr
        self.rounds += rounds
        return seqs, trans


class SequentialRestartScheduler:
    """Naive policy: windowed go-back-N restart from the lowest unacked.

    Each cycle sweeps sequentially over at most ``window`` unacked
    packets starting from the lowest one, then restarts from the (new)
    lowest unacked.  Because ACKs lag by a round trip, every cycle
    re-sends packets that are already in flight — before the ACK for
    packet k can possibly return, k has been retransmitted several
    times.  This is the head-of-line style the paper's experimentation
    rejected in favour of the circular discipline; the ablation bench
    shows why (enormous waste, goodput capped near window/RTT).
    """

    def __init__(self, npackets: int, window: int = 64):
        import numpy as np

        if window < 1:
            raise ValueError("window must be >= 1")
        self.npackets = npackets
        self.window = window
        self.send_count = np.zeros(npackets, dtype=np.int32)
        self._pos = 0
        self._in_cycle = 0

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        if acked.is_complete:
            return None
        if self._in_cycle >= self.window:
            self._pos = 0
            self._in_cycle = 0
        seq = acked.next_missing(self._pos)
        if seq is None:
            return None
        if seq < self._pos:
            # wrapped: restart the cycle from the lowest unacked
            self._in_cycle = 0
            seq = acked.next_missing(0)
        return seq

    def record_sent(self, seq: int) -> None:
        self.send_count[seq] += 1
        self._pos = seq + 1
        self._in_cycle += 1

    take_batch = _take_stepwise


class RandomScheduler:
    """Uniformly random choice among unacknowledged packets.

    Unbiased but ignorant of transmission history: some packets are
    resent long before others are sent at all.  O(missing) per pick —
    acceptable for an ablation, not for production use.
    """

    def __init__(self, npackets: int, rng=None):
        import numpy as np

        self.npackets = npackets
        self.send_count = np.zeros(npackets, dtype=np.int32)
        # A Generator is kept as it is; an int seeds a new one.
        self._rng = np.random.default_rng(0 if rng is None else rng)

    def next_seq(self, acked: PacketBitmap) -> Optional[int]:
        missing = acked.missing_indices()
        if missing.shape[0] == 0:
            return None
        return int(missing[self._rng.integers(missing.shape[0])])

    def record_sent(self, seq: int) -> None:
        self.send_count[seq] += 1

    take_batch = _take_stepwise


def make_scheduler(name: str, npackets: int, rng=None) -> Scheduler:
    """Factory keyed by :attr:`FobsConfig.scheduler`; ``rng`` (a
    ``Generator`` or an int seed) reaches the ``random`` one alone."""
    if name == "circular":
        return CircularScheduler(npackets)
    if name == "sequential_restart":
        return SequentialRestartScheduler(npackets)
    if name == "random":
        return RandomScheduler(npackets, rng)
    raise ValueError(f"unknown scheduler {name!r}")
