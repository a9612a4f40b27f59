"""The pool world: a real two-tenant :class:`EnclaveService`, explored.

The single-enclave model (:mod:`repro.modelcheck.model`) checks the
paging protocol; this world checks the *service* layer above it — the
tenant-pool failover, live-churn, and suspend/resume machinery of
:mod:`repro.service` — by driving the shipped
:class:`~repro.service.router.EnclaveService` itself.  The world is
two tenants of two replica enclaves each on one shared 256-page EPC,
sized only through :class:`~repro.service.tenant.TenantSpec` and
:class:`~repro.service.router.ServiceConfig` fields.

Every action is a call into the router's own code paths:

* ``req:T`` — one request for tenant T through admission
  (:meth:`EnclaveService.submit`) and dispatch: served by the elected
  primary, failed over to the sibling, or shed structured;
* ``storm``, ``tamper``, ``suspend``, ``resume`` — service fault
  events (:class:`~repro.service.chaos.ServiceFaultEvent`) handed to
  :meth:`EnclaveService.apply_fault`: an AEX storm and a forged
  swapped-out heap blob against tenant 0's primary, and suspending /
  resuming the lowest eligible replica (§5.2.1 whole-enclave swap);
* ``retire`` / ``arrive`` — live churn of tenant 1 through the
  service's churn methods;
* ``forge`` — the one host-only act the fault plan cannot express:
  overwrite the last blob a suspended replica's resume will restore.
  Resume must fail stop on it.

The invariants are the service's own
(:meth:`EnclaveService.check_invariants`), checked at every state, plus
one the world checks across each action: a forged blob (``forge`` or
``tamper``) never leaves the store while its enclave keeps running.
Exhaustive at depth 3 this covers every interleaving of failover
around suspension, churn, and integrity aborts — the schedules the
seeded service runs sample but cannot enumerate.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib

from repro.errors import ReproError, SgxError
from repro.recovery.state import canonical_state
from repro.recovery.supervisor import RUNNING, RestartPolicy
from repro.service import (
    EnclaveService,
    ServiceConfig,
    ServiceFaultEvent,
    ServiceFaultKind,
    ServiceFaultPlan,
    TenantSpec,
)

#: Policy names this module implements (the explorer's dispatch key).
WORLDS = ("pool",)

#: Tenant names; tenant 0 is the fault victim, tenant 1 churns.
TENANTS = ("t0", "t1")

#: Shared EPC: four small replicas fit with room to recover — pool
#: failover, not EPC exhaustion, is what this world explores.
EPC_PAGES = 256

#: Interrupt/resume rounds one ``storm`` action fires (§3.2).
STORM_ROUNDS = 2

#: One restart per replica before quarantine: two aborts of one
#: replica reach both a recovery and a quarantine-driven failover.
MAX_RESTARTS = 1

#: MAC the host-only ``forge`` act writes over a sealed blob.
FORGED_MAC = "forged-by-model"


def _spec(name):
    """A tiny paging tenant: a 16-page quota under 16-op requests, so
    one request already swaps heap pages out (a ``tamper`` target).
    The breaker tolerates two aborts, so the quarantine ladder's
    failover is not hidden behind an open breaker."""
    return TenantSpec(
        name=name, quota_pages=16, ops_per_request=16, replicas=2,
        breaker_trip_after=3,
    )


class PoolWorld:
    """One explored state: a booted service plus the violations seen
    applying actions to it."""

    policy_name = "pool"
    outcome = "running"
    reason = ""

    def __init__(self):
        self.service = EnclaveService(ServiceConfig(
            tenants=[_spec(name) for name in TENANTS],
            epc_pages=EPC_PAGES,
            ticks=0,
            fault_plan=ServiceFaultPlan(seed=0, ticks=0, events=()),
        ))
        self.service.recovery.restart_policy = RestartPolicy(
            max_restarts=MAX_RESTARTS)
        self.service.boot()
        #: Violations seen while applying actions: an exception that
        #: escaped the service's structured paths, or a forged blob a
        #: running replica consumed without aborting.
        self.findings = []

    @property
    def violations(self):
        return self.service.violations + self.findings

    @property
    def terminal(self):
        return bool(self.violations)

    def tenant(self, t):
        """The live tenant named ``TENANTS[t]``, or ``None`` while it
        is retired."""
        return next(
            (x for x in self.service.tenants
             if x.spec.name == TENANTS[t] and not x.departed), None)

    def replicas(self):
        """``(tenant, pool, handle, record)`` for every live replica,
        tenant-major."""
        for t in range(len(TENANTS)):
            tenant = self.tenant(t)
            if tenant is None:
                continue
            pool = self.service.pool(tenant)
            for handle in pool.replicas:
                record = self.service.recovery.member(handle.member_name)
                yield tenant, pool, handle, record

    def live_enclaves(self):
        """``(member name, enclave id)`` of every RUNNING replica whose
        enclave is alive."""
        return {
            (handle.member_name, record.runtime.enclave.enclave_id)
            for _, _, handle, record in self.replicas()
            if record.state == RUNNING and record.runtime is not None
            and not record.runtime.enclave.dead
        }

    def forged_blobs(self):
        """``(member, enclave id, vaddr)`` of every forged blob still
        waiting in the store for a live replica."""
        backing = self.service.kernel.backing
        return {
            (member, eid, v) for member, eid in self.live_enclaves()
            for e, v in backing.tainted if e == eid and backing.has(e, v)
        }

    def state_key(self):
        """Canonical identity for dedup and the jobs digest: the
        service's canonical state, plus each live runtime's paging
        state and the blobs the host has forged for it."""
        backing = self.service.kernel.backing
        members = []
        for record in self.service.recovery.fleet():
            runtime = record.runtime
            body = None
            if runtime is not None and not runtime.enclave.dead:
                eid = runtime.enclave.enclave_id
                body = (canonical_state(runtime), tuple(sorted(
                    v for e, v in backing.tainted if e == eid)))
            members.append((record.name, record.state, record.restarts,
                            body))
        members.sort(key=lambda member: member[0])
        raw = repr((self.service.canonical(), tuple(members),
                    tuple(self.findings))).encode()
        return hashlib.sha256(raw).hexdigest()


# -- the action alphabet -----------------------------------------------------

def _event(kind, tenant, param=0):
    return ServiceFaultEvent(kind, at_tick=0, tenant_index=tenant.index,
                             param=param)


def _moves(world):
    """``action -> target`` for every enabled action, canonical order.
    A target is plain data (a tenant, an event, a page), resolved
    against whichever copy of the world the action is applied to."""
    if world.terminal:
        return {}
    moves = {}
    for t in range(len(TENANTS)):
        # A request against a pool with no healthy replica is enabled
        # on purpose: the structured shed is behaviour under check.
        tenant = world.tenant(t)
        if tenant is not None:
            moves[f"req:{t}"] = tenant.index
    victim = world.tenant(0)
    if world.service.pool(victim).primary() is not None:
        moves["storm"] = _event(
            ServiceFaultKind.AEX_STORM, victim, STORM_ROUNDS)
        moves["tamper"] = _event(ServiceFaultKind.TENANT_TAMPER, victim)
    live = [(tenant, pool, handle, record)
            for tenant, pool, handle, record in world.replicas()
            if record.state == RUNNING]
    healthy = [(t, h) for t, pool, h, _ in live if pool.healthy(h)]
    if healthy:
        tenant, handle = healthy[0]
        moves["suspend"] = _event(
            ServiceFaultKind.REPLICA_SUSPEND, tenant, handle.index)
    suspended = [(t, h, r) for t, _, h, r in live if h.suspended]
    if suspended:
        tenant, handle, _ = suspended[0]
        moves["resume"] = _event(
            ServiceFaultKind.REPLICA_RESUME, tenant, handle.index)
    # At most one forged blob per enclave: a second forgery adds no
    # schedule the first does not already cover.
    backing = world.service.kernel.backing
    for _, handle, record in suspended:
        eid = record.runtime.enclave.enclave_id
        if not any(e == eid for e, _ in backing.tainted):
            state = world.service.kernel.driver.state(
                record.runtime.enclave)
            moves["forge"] = (handle.member_name, state.suspend_set[-1])
            break
    if world.tenant(1) is not None:
        moves["retire"] = TENANTS[1]
    else:
        moves["arrive"] = TENANTS[1]
    return moves


def enabled_actions(world):
    """Actions applicable in ``world``, canonical order.  Pure:
    enabling checks never mutate the world."""
    return list(_moves(world))


def apply_action(world, action):
    """Apply one enabled action.  The service handles structured
    aborts itself (it recovers and fails over rather than ending the
    run); an exception escaping it is an invariant violation."""
    moves = _moves(world)
    if action not in moves:
        raise SgxError(f"pool action {action!r} is not enabled")
    target = moves[action]
    service = world.service
    forged = world.forged_blobs()
    try:
        if action.startswith("req:"):
            service.submit(service.tenants[target])
            service.dispatch()
        elif action == "forge":
            _forge(world, *target)
        elif action == "retire":
            service.retire(target)
        elif action == "arrive":
            service.arrive(_spec(target))
        else:
            service.apply_fault(target)
    except ReproError as exc:
        world.findings.append(
            f"{action}: {type(exc).__name__} escaped the service: {exc}")
    world.findings.extend(_silent_consumption(world, forged))
    return world


def _silent_consumption(world, forged):
    """Blobs of ``forged`` (taken before the action) that left the
    store while the same enclave kept running: restored or loaded
    without the abort §5.2.1 demands."""
    live = world.live_enclaves()
    waiting = world.forged_blobs()
    return [
        f"replica {member} consumed forged blob {vaddr:#x} without "
        f"aborting"
        for member, eid, vaddr in sorted(forged)
        if (member, eid) in live and (member, eid, vaddr) not in waiting
    ]


def _forge(world, member, vaddr):
    """Overwrite one sealed blob of a suspended replica's suspend set:
    a forgery that only the replica's resume can detect."""
    record = world.service.recovery.member(member)
    eid = record.runtime.enclave.enclave_id
    backing = world.service.kernel.backing
    blob = backing.get(eid, vaddr)
    backing.substitute(
        eid, vaddr, dataclasses.replace(blob, mac=FORGED_MAC))


def check_world(world):
    """All invariant violations of one pool world (empty when safe)."""
    return world.service.check_invariants()


# -- explorer entry points ---------------------------------------------------

def boot(policy_name):
    if policy_name not in WORLDS:
        raise SgxError(
            f"poolworld does not implement {policy_name!r}")
    return PoolWorld()


def replay(policy_name, trace):
    world = boot(policy_name)
    for action in trace:
        if world.terminal:
            break
        apply_action(world, action)
    return world


def successor(world, action):
    child = copy.deepcopy(world)
    return apply_action(child, action)
