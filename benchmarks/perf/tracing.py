"""Timing spans around the program's public callables, from outside.

The benchmark owns every wrapper: nothing under ``src/`` knows it is
being traced.  :class:`Tracer.install` swaps class attributes
(``FobsSender.next_batch`` ...), module functions (``wire.decode_data``
...) and ``socket.socket`` for timing wrappers; :meth:`Tracer.uninstall`
puts every original back.

Each span is measured on two clocks: wall (``perf_counter_ns``) and the
calling thread's CPU clock (``thread_time_ns``).  The CPU clock is the
one the ``*_us_*`` layer metrics use: with a sender and a receiver
thread sharing one GIL, a span's wall time includes the time its thread
stood waiting for the lock, which is the other thread's cost.  A
layer's *self* time is its span minus the spans it directly encloses,
so self times are never negative and a thread's self times plus its
"driver self" (thread CPU inside the op that no wrapper saw: the loop
bodies themselves) add up to the thread's busy time by construction.

Aggregates are kept per thread role (the thread's name) and span name.
Raw spans ``(id, name, role, start_ns, end_ns, cpu_ns, parent_id)`` are
kept in memory for the first traced op only (bounded) and written out
by the caller when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import select
import selectors
import socket
import sys
import threading
from time import perf_counter_ns, thread_time_ns

#: Raw spans kept per process (first traced op only).
MAX_RAW_SPANS = 400_000


class _ThreadState:
    __slots__ = ("role", "stack", "agg", "errors", "cpu_first", "cpu_last",
                 "wall_first", "wall_last", "top_cpu")

    def __init__(self, role: str):
        self.role = role
        self.stack: list = []
        #: name -> [count, cpu_total, cpu_self, wall_total, wall_self]
        self.agg: dict[str, list] = {}
        #: (name, exception class name) -> count
        self.errors: dict[tuple, int] = {}
        self.cpu_first = thread_time_ns()
        self.cpu_last = self.cpu_first
        self.wall_first = perf_counter_ns()
        self.wall_last = self.wall_first
        self.top_cpu = 0


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple] = []
        self.keep_raw = False
        self.raw: list[tuple] = []
        self._span_ids = itertools.count()
        #: role -> {"busy_cpu", "top_cpu", "wall", "threads"}
        self.roles: dict[str, dict] = {}
        #: role -> name -> [count, cpu_total, cpu_self, wall_total, wall_self]
        self.agg: dict[str, dict[str, list]] = {}
        self.errors: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        local = self._local
        new_state = self._state
        tracer = self

        def traced(*args, **kwargs):
            st = getattr(local, "st", None)
            if st is None:
                st = new_state()
            stack = st.stack
            # [wall start, cpu start, child wall, child cpu, span id]
            frame = [perf_counter_ns(), thread_time_ns(), 0, 0,
                     next(tracer._span_ids) if tracer.keep_raw else -1]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                key = (name, type(exc).__name__)
                st.errors[key] = st.errors.get(key, 0) + 1
                raise
            finally:
                cpu1 = thread_time_ns()
                wall1 = perf_counter_ns()
                stack.pop()
                dwall = wall1 - frame[0]
                dcpu = cpu1 - frame[1]
                rec = st.agg.get(name)
                if rec is None:
                    rec = st.agg[name] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dcpu
                rec[2] += dcpu - frame[3]
                rec[3] += dwall
                rec[4] += dwall - frame[2]
                if stack:
                    parent = stack[-1]
                    parent[2] += dwall
                    parent[3] += dcpu
                else:
                    st.top_cpu += dcpu
                    st.cpu_last = cpu1
                    st.wall_last = wall1
                if frame[4] >= 0 and len(tracer.raw) < MAX_RAW_SPANS:
                    tracer.raw.append((frame[4], name, st.role, frame[0],
                                       wall1, dcpu,
                                       stack[-1][4] if stack else -1))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def op_begin(self) -> None:
        """Start of one traced op, called on the thread that runs it."""
        st = self._state()
        st.cpu_first = st.cpu_last = thread_time_ns()
        st.wall_first = st.wall_last = perf_counter_ns()
        st.top_cpu = 0

    def discard_pending(self) -> None:
        """Forget spans recorded outside any op (the traced warm-up)."""
        with self._lock:
            self._states = []
        self._local.st = None
        self.raw = []

    def op_end(self) -> None:
        """End of one traced op: fold every thread seen into the totals.

        The op has joined the threads it started, so their states are
        final; the calling thread's busy time ends here.
        """
        me = self._state()
        me.cpu_last = thread_time_ns()
        me.wall_last = perf_counter_ns()
        with self._lock:
            states, self._states = self._states, []
        for st in states:
            role = self.roles.setdefault(
                st.role, {"busy_cpu": 0, "top_cpu": 0, "wall": 0,
                          "threads": 0})
            role["busy_cpu"] += st.cpu_last - st.cpu_first
            role["top_cpu"] += st.top_cpu
            role["wall"] += st.wall_last - st.wall_first
            role["threads"] += 1
            into = self.agg.setdefault(st.role, {})
            for name, rec in st.agg.items():
                tot = into.get(name)
                if tot is None:
                    into[name] = list(rec)
                else:
                    for i in range(5):
                        tot[i] += rec[i]
            for key, n in st.errors.items():
                self.errors[key] = self.errors.get(key, 0) + n
        # A thread that outlives the op (this one) starts clean.
        self._local.st = None
        self.keep_raw = False

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self, name: str, roles=None) -> list:
        """Summed [count, cpu_total, cpu_self, wall_total, wall_self]."""
        out = [0, 0, 0, 0, 0]
        for role, names in self.agg.items():
            if roles is not None and role not in roles:
                continue
            rec = names.get(name)
            if rec is not None:
                for i in range(5):
                    out[i] += rec[i]
        return out

    def error_count(self, name: str, *exc_names: str) -> int:
        return sum(n for (span, exc), n in self.errors.items()
                   if span == name and exc in exc_names)

    def min_self_ns(self) -> int:
        """Smallest self time of any aggregate (>= 0 by construction)."""
        values = [rec[i] for names in self.agg.values()
                  for rec in names.values() for i in (2, 4)]
        return min(values) if values else 0

    def dump(self) -> dict:
        """JSON-ready aggregates (what the daemon launcher hands back)."""
        return {
            "roles": self.roles,
            "agg": self.agg,
            "errors": [[span, exc, n]
                       for (span, exc), n in sorted(self.errors.items())],
        }

    def merge_dump(self, dump: dict, role_prefix: str) -> None:
        """Fold another process's :meth:`dump` in under renamed roles."""
        for role, rec in dump["roles"].items():
            into = self.roles.setdefault(
                role_prefix + role,
                {"busy_cpu": 0, "top_cpu": 0, "wall": 0, "threads": 0})
            for key in into:
                into[key] += rec[key]
        for role, names in dump["agg"].items():
            into = self.agg.setdefault(role_prefix + role, {})
            for name, rec in names.items():
                tot = into.setdefault(name, [0, 0, 0, 0, 0])
                for i in range(5):
                    tot[i] += rec[i]
        for span, exc, n in dump["errors"]:
            self.errors[(span, exc)] = self.errors.get((span, exc), 0) + n

    def write_spans(self, path: str) -> int:
        """Write the kept raw spans, one JSON array per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(
                ["id", "name", "role", "start_ns", "end_ns", "cpu_ns",
                 "parent_id"]) + "\n")
            for span in self.raw:
                fh.write(json.dumps(span) + "\n")
        return len(self.raw)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch_attr(self, owner, attr: str, name: str) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(name, raw.__func__))
        else:
            new = self.wrap(name, raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _patch_function(self, module, attr: str, name: str) -> None:
        """Patch a module function wherever ``repro`` imported it by name."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        """Wrap the layer boundaries (idempotent per Tracer: call once)."""
        import repro.dataset.sync  # noqa: F401  (so by-name imports exist)
        import repro.server.daemon  # noqa: F401
        from repro.core.journal import ReceiverJournal
        from repro.core.manifest import ChunkManifest
        from repro.core.receiver import FobsReceiver
        from repro.core.sender import FobsSender
        from repro.dataset import journal as ds_journal
        from repro.dataset import manifest as ds_manifest
        from repro.dataset import packing as ds_packing
        from repro.dataset import scheduler as ds_scheduler
        from repro.runtime import wire
        from repro.server.admission import AdmissionController
        from repro.server.allocator import BandwidthAllocator
        from repro.server.registry import TransferRegistry

        for attr in ("encode_data_burst", "encode_data", "decode_data",
                     "encode_ack", "decode_ack"):
            self._patch_function(wire, attr, f"runtime.wire.{attr}")
        for attr in ("next_batch", "on_ack"):
            self._patch_attr(FobsSender, attr, f"core.sender.{attr}")
        for attr in ("on_data", "build_ack"):
            self._patch_attr(FobsReceiver, attr, f"core.receiver.{attr}")
        for attr in ("record", "flush", "open"):
            self._patch_attr(ReceiverJournal, attr, f"core.journal.{attr}")
        for attr in ("from_data", "verify_blob", "verify_file"):
            self._patch_attr(ChunkManifest, attr, f"core.manifest.{attr}")
        self._patch_function(ds_manifest, "scan_tree", "dataset.scan_tree")
        self._patch_function(ds_packing, "plan_objects",
                             "dataset.plan_objects")
        self._patch_function(ds_scheduler, "schedule", "dataset.schedule")
        self._patch_function(ds_packing, "pack_object", "dataset.pack_object")
        self._patch_function(ds_packing, "unpack_object",
                             "dataset.unpack_object")
        self._patch_attr(ds_journal.DatasetJournal, "mark_done",
                         "dataset.journal.mark_done")
        self._patch_attr(ds_journal.DatasetJournal, "open",
                         "dataset.journal.open")
        self._patch_attr(TransferRegistry, "route", "server.registry.route")
        self._patch_attr(BandwidthAllocator, "reallocate",
                         "server.allocator.reallocate")
        self._patch_attr(AdmissionController, "request",
                         "server.admission.request")

        base = socket.socket
        traced_socket = type("TracedSocket", (base,), {
            "__slots__": (),
            "sendto": self.wrap("runtime.socket.sendto", base.sendto),
            "recv": self.wrap("runtime.socket.recv_into", base.recv),
            "recv_into": self.wrap("runtime.socket.recv_into",
                                   base.recv_into),
        })
        self._patches.append((socket, "socket", base))
        socket.socket = traced_socket
        self._patch_attr(select, "select", "runtime.socket.select")
        self._patch_attr(selectors.DefaultSelector, "select",
                         "runtime.socket.select")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def opener(self, path, mode="r", *args, **kwargs):
        """``open``-compatible part-file factory whose writes are spans."""
        return _TracedFile(open(path, mode, *args, **kwargs), self)


class _TracedFile:
    """File proxy: ``seek``+``write`` are the placement layer's spans."""

    def __init__(self, fh, tracer: Tracer):
        self._fh = fh
        self.seek = tracer.wrap("runtime.files.store_write", fh.seek)
        self.write = tracer.wrap("runtime.files.store_write", fh.write)

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
