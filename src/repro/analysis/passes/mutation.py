"""Mutation-discipline pass: only the ISA layer touches EPC/EPCM/TLB.

SGX's integrity story (§2.1) is that EPC contents, EPCM metadata, and
cached translations change only through architecturally defined
instructions — the OS proposes, the hardware checks.  The simulator
mirrors that: :mod:`repro.sgx.instructions` and :mod:`repro.sgx.mmu`
are the mutation entry points (plus the CPU's transition flushes and
the page table's IPI shootdowns, which model hardware behaviour).  Any
other module calling a mutator (``epc.resize``, ``tlb.flush``) or
storing through a component (``instr.tlb = ...``,
``epcm.entry(p).pending = True``) is flagged.

Boot-time wiring is exempt: assignments inside ``__init__`` construct
the machine rather than mutate its running state.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.walker import attr_chain

RULE_CALL = "mutation-discipline/call"
RULE_STORE = "mutation-discipline/store"

_STORES = (ast.Assign, ast.AugAssign, ast.Delete)


class MutationDisciplinePass:
    family = "mutation-discipline"
    rules = (RULE_CALL, RULE_STORE)

    def __init__(self, config):
        self.config = config

    def applies(self, module):
        return module not in self.config.mutation_sanctioned

    def prepare(self, project):
        self.index = project.index

    def run(self, mod):
        in_init = self._init_stores(mod)
        for node in self.index.of(mod.tree, ast.Call, *_STORES):
            if isinstance(node, ast.Call):
                yield from self._check_call(mod, node)
            elif node not in in_init:
                yield from self._check_store(mod, node)

    def _init_stores(self, mod):
        """Stores whose innermost enclosing function is an ``__init__``
        (a class body does not open a new context, a nested ``def``
        does)."""
        index = self.index
        stores = set()
        # Breadth-first, so an enclosing def comes before the defs
        # nested in it and the innermost one has the last word.
        for func in index.of(mod.tree, ast.FunctionDef,
                             ast.AsyncFunctionDef):
            inside = index.of(func, *_STORES)
            if func.name == "__init__":
                stores.update(inside)
            else:
                stores.difference_update(inside)
        return stores

    def _check_call(self, mod, node):
        chain = attr_chain(node.func)
        if len(chain) < 2:
            return
        component, method = chain[-2], chain[-1]
        mutators = self.config.mutating_methods.get(component)
        if mutators and method in mutators:
            yield Finding(
                path=mod.path,
                line=node.lineno,
                rule=RULE_CALL,
                message=(
                    f"{component.upper()} state mutated outside the ISA "
                    f"layer: {'.'.join(chain)}()"
                ),
                hint=(
                    "only repro.sgx.instructions / repro.sgx.mmu entry "
                    "points may mutate EPC/EPCM/TLB state (§2.1); go "
                    "through an SGX instruction, or annotate with "
                    "# repro: allow[mutation-discipline]"
                ),
                module=mod.module,
            )

    def _check_store(self, mod, node):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = node.targets
        for target in targets:
            chain = attr_chain(target)
            # The component must be traversed, not be the bare root:
            # ``self.tlb.hits = 0`` inside the TLB's own module is
            # handled by the sanctioned-module exemption, while
            # ``tlb = Tlb()`` (a local variable) has chain ["tlb"].
            if len(chain) < 2:
                continue
            touched = self.config.mutable_components.intersection(chain)
            if touched:
                component = sorted(touched)[0]
                yield Finding(
                    path=mod.path,
                    line=node.lineno,
                    rule=RULE_STORE,
                    message=(
                        f"store into {component.upper()} state outside "
                        f"the ISA layer: {'.'.join(chain)}"
                    ),
                    hint=(
                        "EPC/EPCM/TLB state changes only through SGX "
                        "instructions; use the repro.sgx.instructions / "
                        "repro.sgx.mmu entry points, or annotate with "
                        "# repro: allow[mutation-discipline]"
                    ),
                    module=mod.module,
                )
