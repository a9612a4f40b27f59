"""Spans and counters recorded around the program's layer boundaries.

The tracer never edits the program: it replaces a method on its class
(or a function on its module) with a wrapper and puts the original
back on :meth:`Patches.restore`.  Wrappers must be installed before the
system under test is built, because engines bind some methods (for
example ``Clock.charge``) once at construction.

A span records its name, start, end, parent span and op id.  Spans are
kept in flat typed arrays while the run lasts and written out once at
the end.  A layer's self time is its span's duration minus the part of
that interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter


def resolve(path):
    """``"pkg.mod:Class.attr"`` -> ``(owner, attr)``."""
    module_name, _, dotted = path.partition(":")
    owner = importlib.import_module(module_name)
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patches:
    """Replaced attributes and how to put each one back."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        """Replace ``owner.attr`` with ``make_wrapper(original)``."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        self._undo.append((owner, attr, original, own))

    def restore(self):
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class Tracer:
    """In-memory span store plus call counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = []
        #: Id of the op the harness is issuing; -1 during set-up.
        self.op_id = -1
        self.counts = {}
        self.patches = Patches()

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- installing ------------------------------------------------------

    def span(self, path, name):
        """Record a span around every call of the method at ``path``."""
        owner, attr = resolve(path)
        self.patches.replace(owner, attr,
                             lambda fn: self._span_wrapper(fn, name))

    def count(self, path, name):
        """Count the calls of the method at ``path`` (no span)."""
        owner, attr = resolve(path)
        self.counts.setdefault(name, 0)
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        self.patches.replace(owner, attr, make)

    def _span_wrapper(self, fn, name):
        nid = self.name_id(name)
        starts, ends, names, parents, ops = (
            self.start, self.end, self.name, self.parent, self.op)
        stack = self._stack
        tracer = self

        def open_span():
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            return index

        def close_span(index):
            ends[index] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # A generator's work happens while it is consumed, so the
            # span drains it; callers only iterate the result.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                index = open_span()
                try:
                    return list(fn(*args, **kwargs))
                finally:
                    close_span(index)
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)
        return traced

    def uninstall(self):
        self.patches.restore()

    # -- results ---------------------------------------------------------

    def __len__(self):
        return len(self.start)

    def summary(self):
        """``{name: {"calls", "s", "self_s", "timed_calls"}}``.

        ``s`` sums only the outermost span of each name on a stack, so
        a re-entered boundary is not counted twice; ``timed_calls``
        counts the spans opened by timed ops (op id >= 0).
        """
        selfs = self_times(self.start, self.end, self.parent)
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0, "timed_calls": 0}
            for name in self.names
        }
        starts, ends, names, parents = (
            self.start, self.end, self.name, self.parent)
        for i in range(len(starts)):
            row = out[self.names[names[i]]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            if self.op[i] >= 0:
                row["timed_calls"] += 1
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                row["s"] += ends[i] - starts[i]
        return out

    def write(self, path):
        """Write every span once, as compressed columns."""
        import numpy as np
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of the child spans'
    intervals, clipped to the parent.

    Spans are stored in the order they were opened, so each parent's
    children arrive sorted by start and one running "covered up to"
    mark per parent merges overlapping children.
    """
    n = len(start)
    covered = [0.0] * n
    mark = {}
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], mark.get(p, start[p]))
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            mark[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
