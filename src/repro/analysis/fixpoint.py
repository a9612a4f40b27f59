"""The analyzer's one interprocedural fixpoint driver.

The taint and effects engines both compute per-function summaries as a
monotone fixpoint over the call graph.  This module owns the schedule;
an engine supplies only ``analyze(qual)``, one walk of one function
body, and tells the driver what that walk read and what it changed:

* ``depend(key, qual)`` — the run of ``qual`` read the value behind
  ``key`` (a callee's summary, a class's attribute secrets, ...);
* ``changed(key)`` — the value behind ``key`` grew, so every function
  that ever read it is dirty again.

Functions are visited in rounds over one fixed (sorted) order, and a
function runs when it is dirty at its turn: a change made earlier in a
round reaches later readers within the same round, exactly as a full
round-robin would, and a clean function is skipped because re-running
it would read the same inputs and change nothing.  So each round ends
in the state a full round-robin round would have reached, with fewer
walks.  Every function starts dirty; the driver stops when none is,
or after ``max_rounds`` rounds with ``converged`` false.
"""

from __future__ import annotations


class Fixpoint:
    """Dependency-driven rounds over a fixed function order."""

    def __init__(self, order, max_rounds):
        self.order = tuple(order)
        self.max_rounds = max_rounds
        #: key -> qualnames whose runs read it (only ever grows).
        self.readers = {}
        self.dirty = set(self.order)
        self.rounds = 0
        self.analyses = 0
        self.converged = False

    def depend(self, key, qual):
        readers = self.readers.get(key)
        if readers is None:
            self.readers[key] = {qual}
        else:
            readers.add(qual)

    def changed(self, key):
        readers = self.readers.get(key)
        if readers:
            self.dirty |= readers

    def run(self, analyze):
        """Run ``analyze(qual)`` on dirty functions until none is dirty
        or the round bound bites; returns ``self``."""
        dirty = self.dirty
        while dirty and self.rounds < self.max_rounds:
            self.rounds += 1
            for qual in self.order:
                if qual in dirty:
                    dirty.discard(qual)
                    self.analyses += 1
                    analyze(qual)
        self.converged = not dirty
        return self

    def stats(self):
        return {"rounds": self.rounds, "analyses": self.analyses,
                "converged": self.converged}
