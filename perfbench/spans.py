"""Span recorder for the traced pass of the benchmark.

A :class:`Tracer` wraps functions so that each call records one span: its
name, start, end and the span that was open when it began (per thread).
Spans stay in memory in flat arrays and are saved once, at the end of the
run.  The traced pass rebinds the names one ``longrun`` module imports from
another (and ``scipy.optimize.minimize``) to wrapped versions and restores
them afterwards; untraced passes rebind nothing, and no source file changes.
"""

from __future__ import annotations

import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span store plus the rebinding that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._kinds: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._sid = array("q")
        self._parent = array("q")
        self._kind = array("q")
        self._start = array("d")
        self._end = array("d")
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _kind_of(self, name: str) -> int:
        if name not in self._kinds:
            self._kinds[name] = len(self.names)
            self.names.append(name)
        return self._kinds[name]

    def add(self, counter: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[counter] = self.counts.get(counter, 0) + amount

    def _open(self) -> tuple[int, int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, kind: int, t0: float, t1: float) -> None:
        self._local.stack.pop()
        with self._lock:
            self._sid.append(sid)
            self._parent.append(parent)
            self._kind.append(kind)
            self._start.append(t0)
            self._end.append(t1)

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs, result)`` may count."""
        kind = self._kind_of(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            sid, parent = open_()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid, parent, kind, t0, perf_counter())
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        kind = self._kind_of(name)
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, kind, t0, perf_counter())

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Rebind ``owner.attr`` to a traced wrapper until :meth:`restore`.

        A name the module no longer has is skipped, so the layer reads zero.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def patch_counter(self, owner, attr: str, counter: str) -> None:
        """Rebind ``owner.attr`` to a wrapper that only counts calls."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))

        def counted(*args, **kwargs):
            self.add(counter)
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> dict:
        """Spans as arrays ordered by id, with self time (duration minus children)."""
        sid = np.array(self._sid, dtype=np.int64)
        order = np.argsort(sid, kind="stable")
        sid = sid[order]
        parent = np.array(self._parent, dtype=np.int64)[order]
        kind = np.array(self._kind, dtype=np.int64)[order]
        start = np.array(self._start, dtype=np.float64)[order]
        end = np.array(self._end, dtype=np.float64)[order]
        dur = end - start
        child = np.zeros(int(sid.max()) + 1 if sid.size else 0)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - (child[sid] if sid.size else 0.0)
        return {"sid": sid, "parent": parent, "kind": kind, "start": start,
                "end": end, "dur": dur, "self": own}

    def save(self, path) -> None:
        t = self.table()
        np.savez_compressed(path, names=np.array(self.names), **{
            k: t[k] for k in ("sid", "parent", "kind", "start", "end")})
