"""Machine-checked invariants, evaluated at every explored state.

Each invariant is a function ``(world) -> list of violation strings``;
:func:`check_world` runs them all.  They are the model-checking
counterpart of the chaos campaign's ``_check_invariants`` — the same
safety story, but asserted on *every* reachable state instead of once
per run:

* **three-way safety** — the world is running cleanly, degraded within
  its declared budget, or ended in a structured abort; a dead enclave
  in a non-aborted world is the classic unsafe state;
* **no silent tainted consumption** — a forged or replayed blob that
  reached enclave memory without an abort (tracked per action);
* **masked faults only** — every fault the OS observed carries the
  enclave base address and no access-type bits (§5.1.2);
* **EPC page parity** — free frames plus every enclave's backed pages
  equal the configured EPC size (no lost or double-owned frames);
* **lifecycle protocol** — the runtime oracle's automata (the same
  spec the static analyzer runs) observed no out-of-order ISA,
  eviction, resume, or recovery step.
"""

from __future__ import annotations

from repro.modelcheck.model import OUTCOME_ABORTED


def degradation_budget(world):
    pager = world.runtime.pager
    if pager.degradations > pager.max_degradations:
        return [
            f"degradations ({pager.degradations}) exceeded the declared "
            f"budget ({pager.max_degradations})"
        ]
    return []


def dead_enclave(world):
    if world.enclave.dead and world.outcome != OUTCOME_ABORTED:
        return ["enclave is dead but the world did not abort"]
    return []


def masked_faults(world):
    return world.kernel.unmasked_fault_violations({world.enclave.base})


def epc_parity(world):
    return world.kernel.instr.epc_parity_violations()


def lifecycle_protocol(world):
    return [
        f"lifecycle oracle: [{rule}] {message}"
        for rule, _seq, message in world.oracle.violations
    ]


INVARIANTS = (
    degradation_budget,
    dead_enclave,
    masked_faults,
    epc_parity,
    lifecycle_protocol,
)


def check_world(world):
    """All invariant violations of one world (empty when safe)."""
    out = []
    for invariant in INVARIANTS:
        out.extend(invariant(world))
    return out
