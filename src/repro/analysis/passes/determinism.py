"""Determinism pass: simulated results must be bit-reproducible.

The whole point of driving benchmarks off a simulated
:class:`~repro.clock.Clock` is that every figure reproduces exactly —
the same property the controlled channel itself exploits.  Wall-clock
reads, the process-global ``random`` module, OS entropy, and
``PYTHONHASHSEED``-dependent ``hash()`` all break that, often silently
(a golden file that only fails on the next interpreter invocation).

Flagged:

* ``time.time()`` / ``perf_counter()`` / ``monotonic()`` / … and
  ``datetime.now()``-style constructors (rule ``determinism/time``);
* module-level ``random.*`` calls, unseeded ``random.Random()``, and
  entropy sources (``os.urandom``, ``uuid.uuid4``, ``secrets.*``,
  ``random.SystemRandom``) (rule ``determinism/random``);
* the builtin ``hash()`` (rule ``determinism/hash``) — salted per
  process for strings; use :mod:`hashlib` for stable digests.

Modules in the *parallel-merge scope* — ``repro.parallel`` itself and
every module that imports it — additionally get rule
``determinism/parallel-merge``: fan-out results must be merged in a
canonical order that does not depend on worker scheduling.  Flagged
there:

* ``imap_unordered(...)`` whose completion-ordered stream is consumed
  without being wrapped directly in ``sorted(...)``;
* iteration over a set (literal, comprehension, or ``set(...)``) —
  the order is ``PYTHONHASHSEED``- and history-dependent, so a merge
  fed by it is not reproducible;
* ``os.getpid()`` — worker identity must never key or tag merged
  results (two schedules assign work to different pids).

The CLI's progress display is exempt by configuration; seeded
``random.Random(seed)`` instances are the sanctioned idiom.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.walker import attr_chain

RULE_TIME = "determinism/time"
RULE_RANDOM = "determinism/random"
RULE_HASH = "determinism/hash"
RULE_PARALLEL = "determinism/parallel-merge"

#: Modules whose members we track through ``from X import Y``.
_TRACKED_FROM = ("time", "random", "datetime", "os", "uuid", "secrets")

#: The fan-out package: importing it puts a module in the
#: parallel-merge scope.
_PARALLEL_PKG = "repro.parallel"

#: Nodes that iterate something (checked in the parallel-merge scope).
_ITERATING = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp,
              ast.GeneratorExp, ast.DictComp)


class DeterminismPass:
    family = "determinism"
    rules = (RULE_TIME, RULE_RANDOM, RULE_HASH, RULE_PARALLEL)

    def __init__(self, config):
        self.config = config

    def applies(self, module):
        return module not in self.config.determinism_exempt

    def prepare(self, project):
        self.index = project.index

    def run(self, mod):
        aliases = self._collect_aliases(mod.tree)
        parallel_scope = self._in_parallel_scope(mod)
        sorted_args = (
            self._sorted_wrapped(mod.tree) if parallel_scope else ()
        )
        types = (ast.Call,) + (_ITERATING if parallel_scope else ())
        for node in self.index.of(mod.tree, *types):
            if isinstance(node, ast.Call):
                yield from self._check_call(mod, node, aliases)
                if parallel_scope:
                    yield from self._check_parallel_call(
                        mod, node, aliases, sorted_args
                    )
            else:
                yield from self._check_parallel_iteration(mod, node)

    def _collect_aliases(self, tree):
        """Map local names to canonical dotted origins.

        ``import random as rnd`` → ``{"rnd": "random"}``;
        ``from time import perf_counter`` →
        ``{"perf_counter": "time.perf_counter"}``.
        """
        aliases = {}
        for node in self.index.of(tree, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    aliases[alias.asname or alias.name.split(".")[0]] = \
                        alias.name
            elif not node.level:
                if node.module in _TRACKED_FROM:
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = \
                            f"{node.module}.{alias.name}"
        return aliases

    def _canonical(self, chain, aliases):
        """Resolve a call chain to its dotted origin, or None."""
        if not chain:
            return None
        root = aliases.get(chain[0])
        if root is None:
            return None
        return ".".join([root] + chain[1:])

    def _check_call(self, mod, node, aliases):
        chain = attr_chain(node.func)
        name = self._canonical(chain, aliases)

        # hash() needs no import: it is always the salted builtin
        # unless shadowed, which the alias table would show.
        if chain == ["hash"] and "hash" not in aliases:
            yield self._finding(
                mod, node, RULE_HASH,
                "builtin hash() is PYTHONHASHSEED-dependent",
                "use hashlib (e.g. sha256 of a canonical encoding) for "
                "digests that must be stable across runs",
            )
            return
        if name is None:
            return

        if name.startswith("time.") and \
                name.split(".", 1)[1] in self.config.wallclock_time_attrs:
            yield self._finding(
                mod, node, RULE_TIME,
                f"wall-clock read {name}() in cycle-accounted code",
                "simulated results must come from repro.clock.Clock; "
                "wall time is display-only (see the CLI exemption)",
            )
        elif name.split(".")[-1] in self.config.wallclock_datetime_attrs \
                and name.split(".")[0] in ("datetime", "date"):
            yield self._finding(
                mod, node, RULE_TIME,
                f"wall-clock read {name}() in cycle-accounted code",
                "simulated results must come from repro.clock.Clock",
            )
        elif name.startswith("random.") and \
                name.split(".", 1)[1] in self.config.global_random_attrs:
            yield self._finding(
                mod, node, RULE_RANDOM,
                f"process-global RNG call {name}()",
                "thread a seeded random.Random(seed) instance through "
                "instead, so repeated runs are reproducible",
            )
        elif name == "random.Random" and not node.args and \
                not node.keywords:
            yield self._finding(
                mod, node, RULE_RANDOM,
                "random.Random() constructed without a seed",
                "pass an explicit seed: random.Random(seed)",
            )
        elif name in self.config.entropy_calls:
            yield self._finding(
                mod, node, RULE_RANDOM,
                f"irreproducible entropy source {name}()",
                "derive pseudo-randomness from a seeded random.Random",
            )

    # -- the parallel-merge scope ------------------------------------------

    def _in_parallel_scope(self, mod):
        """The fan-out package itself, plus every module importing it."""
        if mod.module == _PARALLEL_PKG or \
                mod.module.startswith(_PARALLEL_PKG + "."):
            return True
        for node in self.index.of(mod.tree, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                if any(alias.name == _PARALLEL_PKG or
                       alias.name.startswith(_PARALLEL_PKG + ".")
                       for alias in node.names):
                    return True
            elif not node.level:
                if node.module and (
                        node.module == _PARALLEL_PKG or
                        node.module.startswith(_PARALLEL_PKG + ".")):
                    return True
        return False

    def _sorted_wrapped(self, tree):
        """ids of call nodes appearing directly as ``sorted(...)`` args —
        the canonical-re-sort idiom that makes ``imap_unordered`` safe."""
        wrapped = set()
        for node in self.index.of(tree, ast.Call):
            if isinstance(node.func, ast.Name) and \
                    node.func.id == "sorted":
                wrapped.update(id(arg) for arg in node.args)
        return wrapped

    def _check_parallel_call(self, mod, node, aliases, sorted_args):
        chain = attr_chain(node.func)
        if chain and chain[-1] == "imap_unordered" and \
                id(node) not in sorted_args:
            yield self._finding(
                mod, node, RULE_PARALLEL,
                "imap_unordered() yields results in completion order",
                "wrap the call directly in sorted(..., key=<task index>) "
                "so the merge is canonical (see repro.parallel.runner)",
            )
        if self._canonical(chain, aliases) == "os.getpid":
            yield self._finding(
                mod, node, RULE_PARALLEL,
                "os.getpid() is worker-scheduling-dependent",
                "merged results must not be keyed or tagged by worker "
                "identity; use the task index instead",
            )

    def _check_parallel_iteration(self, mod, node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        else:
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if isinstance(it, (ast.Set, ast.SetComp)) or (
                    isinstance(it, ast.Call) and
                    isinstance(it.func, ast.Name) and
                    it.func.id in ("set", "frozenset")):
                yield self._finding(
                    mod, it, RULE_PARALLEL,
                    "iterating a set feeds hash-order into a merge",
                    "sort the elements first (sorted(...)) so merged "
                    "results are independent of PYTHONHASHSEED",
                )

    def _finding(self, mod, node, rule, message, hint):
        return Finding(
            path=mod.path,
            line=node.lineno,
            rule=rule,
            message=message,
            hint=hint,
            module=mod.module,
        )
