"""Outside-in tracing of xcache's layers.

The tracer replaces public functions and methods of the xcache modules
with timing wrappers, from the benchmark's side: a function imported by
name into another module is replaced in every module namespace that
holds it, and a method is replaced on its class.  Each call becomes a
span ``(id, name, start, end, parent, op, note)`` kept in memory until
the run ends.

The benchmark keeps one operation in flight.  A span that starts on a
thread with no open span (a daemon worker picking up the request) is
linked to the innermost open span of the benchmark's own thread, which
is then waiting inside ``Xcached.fetch_entry``; so worker time counts
once, as a child, and not again as the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import xcache
from xcache import addressing, chunking, daemon, netsim, store, urls

NAMESPACES = (xcache, addressing, urls, chunking, store, netsim, daemon)

FUNCTIONS = [
    ("addressing.resolve_next", addressing, "resolve_next"),
    ("urls.parse_dag_url", urls, "parse_dag_url"),
    ("urls.serialize_dag_url", urls, "serialize_dag_url"),
    ("urls.parse_ncid_url", urls, "parse_ncid_url"),
    ("chunking.encode_chunk", chunking, "encode_chunk"),
    ("chunking.decode_chunk", chunking, "decode_chunk"),
    ("chunking.verify_cid", chunking, "verify_cid"),
    ("chunking.verify_ncid", chunking, "verify_ncid"),
    ("chunking.build_ncid_chunk", chunking, "build_ncid_chunk"),
]

# A note records what a call returned, for counts taken where the work
# happens: hits of StorageManager.get, victims of StorageManager.store.
NOTES = {
    "store.StorageManager.get": lambda chunk: int(chunk is not None),
    "store.StorageManager.store": lambda placed: len(placed[1]) if placed else 0,
}

METHODS = [
    ("store.StorageManager.get", store.StorageManager, "get"),
    ("store.StorageManager.store", store.StorageManager, "store"),
    ("store.DiskStore.get", store.DiskStore, "get"),
    ("store.DiskStore.store", store.DiskStore, "store"),
    ("netsim.NetNode.on_segment", netsim.NetNode, "on_segment"),
    ("netsim.Simulator.schedule", netsim.Simulator, "schedule"),
    ("netsim.Simulator.wait_for", netsim.Simulator, "wait_for"),
    ("daemon.Xcached.fetch_entry", daemon.Xcached, "fetch_entry"),
    ("daemon.Xcached.put_named_content", daemon.Xcached, "put_named_content"),
]

SPAN_NAMES = [name for name, _, _ in FUNCTIONS + METHODS]


class Tracer:
    """Install, record one traced stretch, uninstall, then summarise."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._op = 0
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        spans, ids, stack_of, main = self.spans, self._ids, self._stack, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main[-1] if main else None)
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, name, start, end, parent, self._op, note(result) if note else 0)
                )

        return traced

    def install(self) -> None:
        """Wrap every listed name; call from the benchmark's own thread."""
        self._local.stack = self._main_stack
        for name, home, attr in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for module in NAMESPACES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, cls, attr in METHODS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    @contextmanager
    def op(self, kind: str):
        """Root span of one benchmark operation."""
        self._op += 1
        span_id = next(self._ids)
        self._main_stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._main_stack.pop()
            self.spans.append((span_id, f"op.{kind}", start, end, None, self._op, 0))

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, plus the totals that show
        self times add up to the traced operations' wall time."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        notes: dict[str, int] = defaultdict(int)
        op_wall = self_sum = 0.0
        unlinked = 0
        for span_id, name, start, end, parent, _, note in self.spans:
            covered = _covered(start, end, children.get(span_id, ()))
            calls[name] += 1
            self_s[name] += end - start - covered
            notes[name] += note
            if parent is None:
                if name.startswith("op."):
                    op_wall += end - start
                else:
                    unlinked += 1
                    continue
            self_sum += end - start - covered
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        gets = calls["store.StorageManager.get"]
        out["store.evictions"] = notes["store.StorageManager.store"]
        out["store.get_hit_share"] = notes["store.StorageManager.get"] / gets if gets else 0.0
        out["trace.op_wall_s"] = op_wall
        out["trace.self_sum_s"] = self_sum
        out["trace.unlinked_spans"] = unlinked
        return out


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
