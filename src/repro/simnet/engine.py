"""Discrete-event simulation engine.

A minimal, fast event loop: events are ``(time, sequence, callback)``
triples kept in a binary heap.  The sequence number makes the ordering of
simultaneous events deterministic (FIFO in scheduling order), which in
turn makes every experiment in this repository exactly reproducible for
a given seed.

The engine is deliberately callback-based rather than coroutine-based:
profiling showed that for packet-per-event workloads (several hundred
thousand events per transfer) plain callbacks are 2-3x faster than
generator-based processes, and the protocol state machines in
:mod:`repro.core` are written sans-IO anyway.

Two event representations share the heap:

* ``(time, seq, EventHandle)`` — the general form returned by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`; supports
  O(1) cancellation and arbitrary argument lists.
* ``(time, seq, fn, arg)`` — the *lightweight* form used by
  :meth:`Simulator.call_in`, for hot-path events that are never
  cancelled (packet transmissions, deliveries, pacing steps).  ``arg``
  is the :data:`_NO_ARG` sentinel for zero-argument callbacks, so the
  dispatcher never has to inspect the tuple length.  No handle object
  is allocated; per the profile this is the single largest per-event
  cost in packet-per-event workloads.

Mixing tuple lengths in one heap is safe: heap comparisons resolve on
the unique ``(time, seq)`` prefix and never reach the third element.
Both forms fire in exactly the same (time, seq) order, so converting a
call site from ``schedule`` to ``call_in`` cannot change outcomes.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Optional


class EventHandle:
    """Handle to a scheduled event, supporting O(1) cancellation.

    Cancellation marks the entry dead; the heap entry is discarded lazily
    when it reaches the top.  This is the standard "lazy deletion" trick
    and keeps :meth:`Simulator.schedule` allocation-free beyond the tuple.
    """

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        # Drop references so cancelled timers do not pin protocol state.
        self.fn = _noop
        self.args = ()


def _noop(*_args: Any) -> None:
    return None


#: Sentinel distinguishing "no argument" from an explicit None argument.
_NO_ARG = object()

# Optional compiled inner loop (_evloop.c): the Simulator.run fast path
# in C, byte-for-byte equivalent in event order and observable state.
# None when no compiler is available or REPRO_PURE_PYTHON is set; the
# interpreted loop below is always the reference behaviour.
from repro.simnet._evloop_build import load as _load_evloop  # noqa: E402

_evloop = _load_evloop()
if _evloop is not None:
    try:
        _evloop.configure(EventHandle, _NO_ARG, _noop)
    except Exception:  # pragma: no cover - defensive
        _evloop = None


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, my_callback, arg1, arg2)
        sim.run(until=10.0)

    All times are seconds (floats).  ``run`` processes events in
    non-decreasing time order; ties break in scheduling order.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "_processed",
                 "_stop_requested")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple] = []
        self._seq: int = 0
        self._running = False
        self._processed: int = 0
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time!r} < {self.now!r}")
        handle = EventHandle(time, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        return handle

    def call_in(self, delay: float, fn: Callable[..., Any], arg: Any = _NO_ARG) -> None:
        """Hot-path scheduling: ``fn()`` (or ``fn(arg)``) in ``delay`` s.

        No :class:`EventHandle` is allocated, so the event cannot be
        cancelled.  Fires in exactly the same (time, seq) order as an
        equivalent :meth:`schedule` call — use it for the per-packet
        events that dominate transfer simulations.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def stop(self) -> None:
        """Request that the current ``run(stop_on_request=True)`` return.

        Cheap alternative to a ``stop_when`` predicate: instead of the
        engine calling a Python predicate after every event, the event
        that finishes the workload calls ``stop()`` and the loop exits
        after it.  Runs started without ``stop_on_request`` ignore (and
        clear) the flag, so a completion inside a larger multi-workload
        run cannot end it early.
        """
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            fn = event[2]
            if fn.__class__ is EventHandle:
                if fn.cancelled:
                    continue
                self.now = event[0]
                handle = fn
                fn, args = handle.fn, handle.args
                handle.fn = _noop  # release references once fired
                handle.args = ()
                fn(*args)
            else:
                self.now = event[0]
                arg = event[3]
                fn(arg) if arg is not _NO_ARG else fn()
            self._processed += 1
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        stop_on_request: bool = False,
    ) -> None:
        """Run events until the heap drains or a bound is hit.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            ``sim.now`` is advanced to ``until`` in that case.
        max_events:
            Safety valve for runaway simulations.
        stop_when:
            Predicate checked after every event; return True to stop.
        stop_on_request:
            Honour :meth:`stop` calls made by events during this run.
            Far cheaper than an equivalent ``stop_when`` predicate for
            event counts in the hundreds of thousands.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not reentrant")
        self._running = True
        self._stop_requested = False
        if _evloop is not None and max_events is None and stop_when is None:
            # Compiled fast path: same heap, same dispatch, same
            # (time, seq) order — see _evloop.c.  It maintains
            # _processed itself (including when a callback raises).
            # Measured price of not having it (ISSUE 24): 1.2-1.3x on a
            # single flow (short_haul + long_haul at 40 MB, 1.54-1.58 s
            # -> 1.86-2.04 s of wall), more than des_paper_paths' bound.
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                hit_limit = _evloop.run(
                    self, self._heap,
                    until if until is not None else 0.0,
                    until is not None,
                    stop_on_request,
                )
                if until is not None and not self._stop_requested:
                    # Heap drained or the next event lies beyond the
                    # deadline: the clock advances to the deadline,
                    # exactly as the interpreted loop does.
                    del hit_limit
                    if until > self.now:
                        self.now = until
            finally:
                if gc_was_enabled:
                    gc.enable()
                self._running = False
            return
        # The one interpreted loop: the reference behaviour, and what
        # runs where _evloop.c did not build or a bound needs checking
        # per event (max_events, stop_when).
        pop = heapq.heappop
        push = heapq.heappush
        # Pause cyclic GC for the duration of the loop: the hot path
        # allocates only acyclically-referenced tuples and frames, so
        # generation-0 scans are pure overhead (~15% of wall time at
        # packet-per-event rates).  Cycles made during the run (session
        # graphs, handles) are collected as usual after it returns.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            heap = self._heap
            count = 0
            processed = self._processed
            while heap:
                event = pop(heap)
                time = event[0]
                if until is not None and time > until:
                    push(heap, event)
                    self.now = until
                    return
                fn = event[2]
                if fn.__class__ is EventHandle:
                    if fn.cancelled:
                        continue
                    self.now = time
                    handle = fn
                    fn, args = handle.fn, handle.args
                    handle.fn = _noop
                    handle.args = ()
                    fn(*args)
                else:
                    self.now = time
                    arg = event[3]
                    fn(arg) if arg is not _NO_ARG else fn()
                processed += 1
                count += 1
                if self._stop_requested:
                    if stop_on_request:
                        return
                    self._stop_requested = False
                if max_events is not None and count >= max_events:
                    return
                if stop_when is not None and stop_when():
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            if gc_was_enabled:
                gc.enable()
            self._processed = processed
            self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Total events executed so far."""
        return self._processed

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is empty."""
        heap = self._heap
        while heap:
            head = heap[0][2]
            if head.__class__ is EventHandle and head.cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None
