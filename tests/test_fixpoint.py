"""The analyzer's shared fixpoint driver.

Two checks against a full round-robin reference kept only here (every
function re-run every round until a round changes nothing):

* on random small dependency graphs with monotone set-union transfer
  functions, the dependency-driven driver ends every round in the
  reference's state, reaches the same fixpoint, and reports
  ``converged=False`` when its round bound cuts it short;
* on the shipped tree, the taint and effects engines give exactly the
  summaries, attribute secrets and findings the reference gives.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import walker
from repro.analysis.callgraph import Project
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.fixpoint import Fixpoint
from repro.analysis.passes.effects import engine as effects_engine
from repro.analysis.passes.taint import engine as taint_engine


class RoundRobin:
    """The reference schedule: every function, every round."""

    def __init__(self, order, max_rounds):
        self.order = tuple(order)
        self.max_rounds = max_rounds
        self.rounds = 0
        self.converged = False
        self._changed = False

    def depend(self, key, qual):
        pass

    def changed(self, key):
        self._changed = True

    def run(self, analyze):
        while self.rounds < self.max_rounds:
            self.rounds += 1
            self._changed = False
            for qual in self.order:
                analyze(qual)
            if not self._changed:
                self.converged = True
                break
        return self


# -- random dependency graphs ---------------------------------------------

@st.composite
def graphs(draw):
    """``n`` functions; each reads some others (itself included) and
    maps what it reads through its own shift before adding its seeds."""
    n = draw(st.integers(1, 8))
    names = [f"f{i}" for i in range(n)]
    deps = {q: draw(st.lists(st.sampled_from(names), max_size=3))
            for q in names}
    seeds = {q: frozenset(draw(st.lists(st.integers(0, 5), max_size=2)))
             for q in names}
    shifts = {q: draw(st.integers(0, 2)) for q in names}
    return names, deps, seeds, shifts


class Graph:
    """Set-union transfer functions over a dependency graph, bounded so
    every fixpoint is finite (values live in ``range(12)``)."""

    def __init__(self, graph, schedule, max_rounds):
        self.names, self.deps, self.seeds, self.shifts = graph
        self.values = {q: frozenset() for q in self.names}
        self.schedule = schedule(sorted(self.names), max_rounds)

    def transfer(self, qual):
        out = set(self.seeds[qual])
        for dep in self.deps[qual]:
            self.schedule.depend(dep, qual)
            out |= {min(x + self.shifts[qual], 11)
                    for x in self.values[dep]}
        return frozenset(out)

    def analyze(self, qual):
        new = self.values[qual] | self.transfer(qual)
        if new != self.values[qual]:
            self.values[qual] = new
            self.schedule.changed(qual)

    def run(self):
        self.schedule.run(self.analyze)
        return self

    def is_fixpoint(self):
        return all(self.transfer(q) <= self.values[q] for q in self.names)


@settings(max_examples=200, deadline=None)
@given(graphs(), st.integers(1, 6))
def test_driver_matches_round_robin(graph, bound):
    reference = Graph(graph, RoundRobin, 100).run()
    assert reference.schedule.converged
    driven = Graph(graph, Fixpoint, 100).run()
    assert driven.schedule.converged
    assert driven.values == reference.values
    assert driven.schedule.rounds <= reference.schedule.rounds
    assert driven.schedule.analyses <= \
        driven.schedule.rounds * len(driven.names)

    # Under a bound, each round still ends in the round-robin state.
    cut = Graph(graph, Fixpoint, bound).run()
    cut_reference = Graph(graph, RoundRobin, bound).run()
    assert cut.values == cut_reference.values
    if cut.values != reference.values:
        assert not cut.schedule.converged
    if cut.schedule.converged:
        assert cut.is_fixpoint()


def test_bound_that_bites_is_reported():
    # A chain read backwards needs one round per hop.
    names = [f"f{i}" for i in range(5)]
    deps = {q: [names[i + 1]] if i + 1 < len(names) else []
            for i, q in enumerate(names)}
    seeds = {q: frozenset() for q in names}
    seeds["f4"] = frozenset({0})
    shifts = {q: 0 for q in names}
    cut = Graph((names, deps, seeds, shifts), Fixpoint, 2).run()
    assert not cut.schedule.converged
    assert cut.schedule.rounds == 2
    assert cut.schedule.stats() == {
        "rounds": 2, "analyses": cut.schedule.analyses, "converged": False}
    full = Graph((names, deps, seeds, shifts), Fixpoint, 8).run()
    assert full.schedule.converged
    assert full.values["f0"] == frozenset({0})


# -- the shipped tree -----------------------------------------------------

@pytest.fixture(scope="module")
def project():
    modules = [walker.load_module(path)
               for root in walker.default_roots()
               for path in walker.iter_source_files(root)]
    return Project(modules)


def taint_result(project):
    engine = taint_engine.TaintEngine(project, DEFAULT_CONFIG)
    findings = engine.run()
    return engine, (
        {q: s.snapshot() for q, s in engine.summaries.items()},
        engine.attr_srcs,
        findings,
    )


def effects_result(project):
    engine = effects_engine.EffectEngine(project, DEFAULT_CONFIG)
    engine.run()
    return engine, {q: (s.snapshot(), s.truncated)
                    for q, s in engine.summaries.items()}


def test_engines_match_round_robin_on_the_shipped_tree(project,
                                                       monkeypatch):
    taint, taint_out = taint_result(project)
    effects, effects_out = effects_result(project)
    assert taint.fixpoint.converged and effects.fixpoint.converged
    assert taint_out[2]  # the tree's app modules do have suppressed leaks

    monkeypatch.setattr(taint_engine, "Fixpoint", RoundRobin)
    monkeypatch.setattr(effects_engine, "Fixpoint", RoundRobin)
    taint_ref, taint_ref_out = taint_result(project)
    effects_ref, effects_ref_out = effects_result(project)
    assert taint_ref.fixpoint.converged and effects_ref.fixpoint.converged

    assert taint_out == taint_ref_out
    assert effects_out == effects_ref_out
    # The saving the driver exists for.
    functions = len(project.functions)
    assert taint.fixpoint.analyses < taint_ref.fixpoint.rounds * functions
    assert effects.fixpoint.analyses < \
        effects_ref.fixpoint.rounds * functions


def test_attribute_secret_reaches_an_earlier_reader():
    # ``a_lookup`` runs before ``b_store`` in qualname order and calls
    # nothing: only its read of ``self.slot`` can make it run again.
    source = (
        "class App:\n"
        "    def a_lookup(self):\n"
        "        return self.slot\n"
        "\n"
        "    def b_store(self, key):\n"
        "        self.slot = key\n"
    )
    module = walker.ModuleSource(
        path="<memory>", module="repro.apps.fixture", source=source,
        tree=ast.parse(source))
    engine = taint_engine.TaintEngine(Project([module]), DEFAULT_CONFIG)
    engine.run()
    summary = engine.summaries["repro.apps.fixture.App.a_lookup"]
    assert summary.return_srcs == {("src", "key")}
    assert engine.fixpoint.converged and engine.fixpoint.rounds == 2


def test_a_cut_run_collects_against_the_last_state(monkeypatch):
    # ``a_lookup`` reaches the sink only once ``b_store``'s secret is
    # on ``self.slot``, which its first walk has not seen yet.  With a
    # one-round bound that first walk is also its last, so a cut run
    # must walk it again to collect (a converged run collects on its
    # last fixpoint walk).
    source = (
        "class App:\n"
        "    def a_lookup(self, mem):\n"
        "        mem.data_access(self.slot)\n"
        "\n"
        "    def b_store(self, key):\n"
        "        self.slot = key\n"
    )
    module = walker.ModuleSource(
        path="<memory>", module="repro.apps.fixture", source=source,
        tree=ast.parse(source))
    full = taint_engine.TaintEngine(Project([module]), DEFAULT_CONFIG)
    found = full.run()
    assert full.fixpoint.converged
    assert [(f.line, f.rule) for f in found["<memory>"]] == [
        (3, taint_engine.RULE_PAGE)]

    monkeypatch.setattr(taint_engine, "MAX_ROUNDS", 1)
    cut = taint_engine.TaintEngine(Project([module]), DEFAULT_CONFIG)
    assert cut.run() == found
    assert not cut.fixpoint.converged


def test_report_carries_each_fixpoint_and_warns_at_the_bound():
    report = walker.analyze_source("def f():\n    return 1\n", "m")
    fixpoints = report.callgraph["fixpoints"]
    assert sorted(fixpoints) == ["effects", "leakage"]
    assert all(stats["converged"] for stats in fixpoints.values())
    assert "warning" not in report.render_text()
    fixpoints["leakage"] = {"rounds": 8, "analyses": 80,
                            "converged": False}
    assert ("warning: the leakage fixpoint stopped at its 8-round bound"
            in report.render_text())
