"""Model-checker tests (``repro.modelcheck``).

Covers the model layer (tiny worlds, deterministic actions, outcome
classification), bounded exploration (safety of the healthy policies,
``--jobs`` bit-identity, cycle dedup), the seeded-bug toy (the checker
must *find* the reopened controlled channel), the golden minimizer
behaviour, and the witness-export path replayed through the real chaos
campaign.
"""

import copy
import dataclasses
import json
import pickle

import pytest

from repro.chaos.campaign import run_plan
from repro.chaos.plan import FaultPlan
from repro.errors import PageFault, SgxError
from repro.modelcheck import poolworld
from repro.modelcheck.explorer import explore
from repro.modelcheck.export import (
    export_witnesses,
    plan_for_trace,
    witness_payload,
)
from repro.modelcheck.invariants import check_world
from repro.modelcheck.minimize import minimize, violation_messages
from repro.modelcheck.model import (
    POLICIES,
    apply_action,
    boot,
    enabled_actions,
    replay,
    successor,
)
from repro.sgx.crypto import PagingCrypto


# -- the model layer ---------------------------------------------------------

class TestWorld:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_boot_is_safe_and_reproducible(self, policy):
        first = boot(policy)
        assert check_world(first) == []
        assert not first.terminal
        assert first.state_key() == boot(policy).state_key()

    def test_successor_leaves_parent_untouched(self):
        world = boot("rate_limit")
        key = world.state_key()
        child = successor(world, "touch:0")
        assert world.state_key() == key
        assert child.state_key() != key

    def test_actions_are_deterministic(self):
        trace = ("touch:0", "touch:1", "balloon", "progress")
        assert (replay("clusters", trace).state_key()
                == replay("clusters", trace).state_key())

    def test_unmap_is_detected_as_attack(self):
        world = replay("rate_limit", ("touch:0", "unmap"))
        assert world.outcome == "aborted"
        assert world.reason == "attack-detected"
        assert world.violations == []

    def test_tamper_fail_stops(self):
        world = replay(
            "rate_limit", ("touch:0", "touch:1", "touch:2", "balloon"))
        assert world.swapped_pool()
        apply_action(world, "tamper")
        assert world.outcome == "aborted"
        assert world.violations == []

    def test_sgx2_tamper_hits_runtime_owned_blobs(self):
        world = replay(
            "rate_limit_sgx2",
            ("touch:0", "touch:1", "touch:2", "balloon"))
        # SGX2 seals into runtime-owned memory, not the kernel backing
        # store — the model must still find (and forge) the blobs.
        assert world.swapped_pool()
        assert not world.kernel.backing.swapped_pages(
            world.enclave.enclave_id)
        apply_action(world, "tamper")
        assert world.outcome == "aborted"
        assert world.reason == "integrity"

    def test_deny_straddles_retry_budget(self):
        base = replay(
            "rate_limit", ("touch:0", "touch:1", "touch:2", "balloon"))
        absorbed = successor(base, "deny:2")
        assert absorbed.outcome == "running"
        assert absorbed.violations == []
        exhausted = successor(base, "deny:6")
        assert exhausted.outcome == "aborted"
        assert exhausted.reason == "chaos-abort"

    def test_crash_recovers_bit_identically(self):
        world = replay("rate_limit", ("touch:0", "balloon", "crash"))
        assert world.outcome == "running"
        assert world.recoveries == 1
        assert world.violations == []
        assert check_world(world) == []

    def test_rollback_attack_is_detected(self):
        world = replay("rate_limit", ("rollback",))
        assert world.outcome == "aborted"
        assert world.reason == "integrity"
        assert world.violations == []

    def test_crash_then_eviction_keeps_oracle_clean(self):
        # Regression: eviction-protocol state must be per enclave
        # incarnation — the relaunched enclave's fresh EBLOCK/EWB over
        # the same addresses is not a protocol violation.
        world = replay("rate_limit", ("touch:0", "balloon", "crash"))
        apply_action(world, "balloon")
        assert world.oracle.violations == []
        assert check_world(world) == []


# -- whole-enclave suspend/resume (§5.2.1) -----------------------------------

class TestSuspendResume:
    def test_suspend_is_not_offered_to_sealed_policies(self):
        assert "suspend" not in enabled_actions(boot("pin_all"))
        assert "suspend" not in enabled_actions(boot("oram"))
        assert "suspend" in enabled_actions(boot("rate_limit"))

    def test_suspended_world_has_the_narrow_alphabet(self):
        world = replay("rate_limit", ("touch:0", "suspend"))
        assert world.suspended
        assert enabled_actions(world) == ["resume", "tamper", "crash"]

    def test_clean_suspend_resume_round_trip(self):
        world = replay("rate_limit", ("touch:0", "suspend", "resume"))
        assert world.outcome == "running"
        assert not world.suspended
        assert world.violations == []
        assert check_world(world) == []

    def test_tamper_while_suspended_is_silent_until_resume(self):
        world = replay("rate_limit", ("touch:0", "suspend", "tamper"))
        assert world.outcome == "running"   # consumption point: resume
        assert world.suspend_tampered
        # Only one blob can be forged per suspension window.
        assert "tamper" not in enabled_actions(world)

    def test_tampered_suspend_set_fail_stops_on_resume(self):
        world = replay(
            "rate_limit", ("touch:0", "suspend", "tamper", "resume"))
        assert world.outcome == "aborted"
        assert world.reason == "integrity"
        assert world.violations == []

    def test_crash_while_suspended_recovers_clean(self):
        world = replay("rate_limit", ("touch:0", "suspend", "crash"))
        assert world.outcome == "running"
        assert world.recoveries == 1
        assert not world.suspended
        assert world.violations == []
        assert check_world(world) == []


# -- bounded exploration -----------------------------------------------------

class TestExplorer:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_healthy_policies_are_safe(self, policy):
        result = explore(policy, depth=2, max_states=300, jobs=1)
        assert result.ok
        assert not result.truncated
        assert result.states > 20
        # Every terminal class is a structured abort.
        assert all(label.startswith("aborted/")
                   for label in result.terminals)

    def test_jobs_two_is_bit_identical_to_jobs_one(self):
        serial = explore("rate_limit", depth=2, max_states=300, jobs=1)
        fanned = explore("rate_limit", depth=2, max_states=300, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.as_json() == fanned.as_json()

    def test_state_budget_truncates_deterministically(self):
        small = explore("rate_limit", depth=2, max_states=20, jobs=1)
        assert small.truncated
        assert small.states == 20
        again = explore("rate_limit", depth=2, max_states=20, jobs=2)
        assert small.digest == again.digest

    def test_dedup_bounds_the_state_count(self):
        # squeeze/unsqueeze and claim/release loop back to known
        # states: distinct states must stay well under the transition
        # count (the cycle detector at work).
        result = explore("rate_limit", depth=2, max_states=500, jobs=1)
        assert result.states < result.transitions

    def test_bfs_witness_is_shortest(self):
        result = explore("pin_all", depth=2, max_states=300, jobs=1)
        witness = result.witnesses["aborted/attack-detected"]
        assert witness == ("unmap",)


# -- the seeded bug ----------------------------------------------------------

class TestBrokenPolicy:
    def test_checker_finds_the_reopened_channel(self):
        result = explore("broken", depth=2, max_states=300, jobs=1)
        assert not result.ok
        traces = [trace for trace, _ in result.violations]
        assert ("touch:0", "unmap") in traces

    def test_healthy_twin_is_safe_on_the_same_bound(self):
        result = explore("rate_limit", depth=2, max_states=300, jobs=1)
        assert result.ok


# -- minimization ------------------------------------------------------------

class TestMinimizer:
    def test_golden_counterexample(self):
        trace, messages = minimize("broken", ("touch:0", "unmap"))
        assert trace == ("touch:0", "unmap")
        assert "serviced instead of detected" in messages[0]

    def test_strips_irrelevant_actions(self):
        noisy = ("progress", "touch:0", "release", "touch:1", "unmap")
        trace, messages = minimize("broken", noisy)
        assert trace == ("touch:1", "unmap")
        assert len(messages) == 1

    def test_rejects_safe_traces(self):
        with pytest.raises(ValueError):
            minimize("rate_limit", ("touch:0", "unmap"))

    def test_replay_validity_guard(self):
        # 'unmap' alone is not enabled (nothing resident yet): an
        # invalid trace is reported safe, not explored blindly.
        assert violation_messages("broken", ("unmap",)) == ()


# -- witness export ----------------------------------------------------------

class TestWitnessExport:
    def test_plan_maps_hostile_actions_only(self):
        plan = plan_for_trace(
            "rate_limit", ("touch:0", "balloon", "deny:6"))
        assert [e.kind.value for e in plan.events] == [
            "balloon-request", "deny-fetch"]
        assert [e.at_op for e in plan.events] == [60, 80]

    def test_pure_workload_trace_has_no_plan(self):
        assert plan_for_trace("rate_limit", ("touch:0", "progress")) \
            is None

    def test_oram_is_not_replayable(self):
        assert witness_payload("oram", ("unmap",), "aborted") is None

    def test_payload_roundtrips_through_fault_plan(self):
        payload = witness_payload(
            "rate_limit", ("touch:0", "unmap"), "aborted")
        plan = FaultPlan.from_json(payload["plan"])
        assert plan == plan_for_trace("rate_limit", ("touch:0", "unmap"))
        assert payload["policy"] == "rate_limit"
        assert payload["expected_outcome"] == "aborted"

    def test_exported_witness_replays_in_the_campaign(self):
        result = explore("rate_limit", depth=2, max_states=300, jobs=1)
        payloads = export_witnesses(result)
        payload = payloads["aborted/attack-detected"]
        run_ = run_plan(
            FaultPlan.from_json(payload["plan"]), payload["policy"])
        assert run_.safe
        assert run_.outcome == payload["expected_outcome"]


# -- the two-tenant pool world -----------------------------------------------

def _suspend_set_tail(trace):
    """The blob ``forge`` overwrites after ``trace``: the last page of
    t0/r0's suspend set."""
    world = poolworld.replay("pool", trace)
    return world.service.kernel.backing.tainted.copy().pop()[1]


class TestPageFaultCopies:
    """The explorer deep-copies whole worlds, faults included."""

    @staticmethod
    def fields(fault):
        return (fault.vaddr, fault.write, fault.exec_, fault.present,
                fault.reason, fault.args)

    FAULT = PageFault(0x7F3000, write=True, exec_=False, present=True,
                      reason="epcm")

    def test_deep_copy_keeps_every_field(self):
        clone = copy.deepcopy(self.FAULT)
        assert type(clone) is PageFault
        assert self.fields(clone) == self.fields(self.FAULT)

    def test_pickle_round_trip_keeps_every_field(self):
        clone = pickle.loads(pickle.dumps(self.FAULT))
        assert type(clone) is PageFault
        assert self.fields(clone) == self.fields(self.FAULT)

    def test_pool_world_deep_copies_after_a_tamper(self):
        # The tampered replica's page fault stays in its SSA frame, so
        # every successor of this world deep-copies it.
        world = poolworld.replay("pool", ("req:0", "tamper", "req:0"))
        clone = copy.deepcopy(world)
        assert clone.state_key() == world.state_key()
        assert clone.findings == world.findings


class TestPoolWorld:
    def test_depth_three_is_safe_and_bounded(self):
        result = explore("pool", depth=3, max_states=400, jobs=1)
        assert result.ok, result.violations
        assert not result.truncated
        assert result.states > 50

    def test_jobs_two_is_bit_identical_to_jobs_one(self):
        serial = explore("pool", depth=2, max_states=400, jobs=1)
        fanned = explore("pool", depth=2, max_states=400, jobs=2)
        assert serial.digest == fanned.digest
        assert serial.as_json() == fanned.as_json()

    def test_enabled_actions_are_pure(self):
        world = poolworld.boot("pool")
        key = world.state_key()
        first = poolworld.enabled_actions(world)
        assert poolworld.enabled_actions(world) == first
        assert world.state_key() == key

    @pytest.mark.parametrize("prefix", [(), ("req:0", "suspend"),
                                        ("retire",)])
    def test_successor_leaves_the_parent_untouched(self, prefix):
        # The deep-copied service shares no mutable state with its
        # parent: applying every enabled action to a child never moves
        # the parent's state key.
        world = poolworld.replay("pool", prefix)
        key = world.state_key()
        actions = poolworld.enabled_actions(world)
        for action in actions:
            poolworld.successor(world, action)
            assert world.state_key() == key, action
        assert poolworld.enabled_actions(world) == actions

    def test_finds_a_resume_that_swallows_a_forged_blob(
            self, monkeypatch):
        # Seed the bug this world found in the service: an integrity
        # failure at resume logged as an EPC-full skip, leaving the
        # replica suspended while it holds the frames restored so far.
        from repro.service.router import EnclaveService

        def swallow(service, tenant, handle, exc):
            handle.suspended = True
            service.skipped_events.append(
                (service.tick, "resume", "epc-full"))

        monkeypatch.setattr(EnclaveService, "_abort_replica", swallow)
        trace, messages = minimize(
            "pool", ("req:0", "suspend", "forge", "resume"))
        assert trace == ("suspend", "forge", "resume")
        assert sorted(messages) == [
            "replica t0/r0 consumed forged blob "
            f"{_suspend_set_tail(trace[:2]):#x} without aborting",
            "suspended replica t0/r0 still holds 8 EPC frames",
        ]

    @staticmethod
    def _skip_mac_checks(monkeypatch):
        # Seed a crypto layer that no longer verifies MACs: a forged
        # blob then restores or loads like a genuine one.
        real = PagingCrypto.unseal

        def unseal_without_mac(self, enclave_id, vaddr, sealed):
            genuine = self._mac(sealed.enclave_id, sealed.vaddr,
                                sealed.version, sealed.nonce,
                                sealed.ciphertext)
            return real(self, enclave_id, vaddr,
                        dataclasses.replace(sealed, mac=genuine))

        monkeypatch.setattr(PagingCrypto, "unseal", unseal_without_mac)

    @pytest.mark.parametrize("trace, minimal", [
        # §5.2.1: resume restores every page verified, or fails stop.
        (("req:0", "suspend", "forge", "req:1", "resume"),
         ("suspend", "forge", "resume")),
        # A forged swapped-out page must abort the load that probes it.
        (("req:0", "tamper", "req:0"), ("req:0", "tamper", "req:0")),
    ])
    def test_finds_a_forged_blob_consumed_without_abort(
            self, monkeypatch, trace, minimal):
        self._skip_mac_checks(monkeypatch)
        shortest, messages = minimize("pool", trace)
        assert shortest == minimal
        assert len(messages) == 1
        assert messages[0].startswith("replica t0/r0 consumed forged blob")
        assert messages[0].endswith(" without aborting")

    def test_quarantine_ladder_fails_over_to_the_sibling(self):
        # Two forged-suspend-set aborts on t0/r0: the first burns the
        # restart budget (a recovery), the second quarantines the
        # replica, and the next request must elect the sibling.
        trace = ("suspend", "forge", "resume") * 2 + ("req:0",)
        world = poolworld.replay("pool", trace)
        service = world.service
        assert world.violations == []
        assert poolworld.check_world(world) == []
        assert service.metrics.recoveries == 1
        assert service.metrics.quarantines == 1
        assert service.metrics.replica_resumes == 0
        tenant = world.tenant(0)
        assert tenant.aborts == 2
        pool = service.pool(tenant)
        assert pool.failovers == 1
        assert pool.last_primary == 1
        assert service.metrics.completed + service.metrics.degraded == 1
        assert not any(event[1:] == ("resume", "epc-full")
                       for event in service.skipped_events)

    def test_pool_down_request_sheds_structurally(self):
        # Suspend both of tenant 0's replicas: a request must shed,
        # never crash (the unguarded-failover case, exercised live).
        world = poolworld.replay("pool", ("suspend", "suspend", "req:0"))
        metrics = world.service.metrics
        assert world.violations == []
        assert metrics.replica_suspends == 2
        assert metrics.submitted == 1
        assert metrics.shed_by_reason == {"pool-unavailable": 1}
        assert metrics.completed + metrics.degraded == 0

    def test_retire_then_arrive_round_trip(self):
        world = poolworld.replay("pool", ("retire",))
        assert world.violations == []
        assert world.tenant(1) is None
        assert world.service.metrics.departures == 1
        assert "req:1" not in poolworld.enabled_actions(world)
        assert "arrive" in poolworld.enabled_actions(world)
        back = poolworld.successor(world, "arrive")
        assert back.violations == []
        assert back.service.metrics.arrivals == 1
        assert back.tenant(1) is not None
        assert poolworld.check_world(back) == []
        # The re-admitted tenant can be retired again.
        again = poolworld.successor(back, "retire")
        assert again.service.metrics.departures == 2
        assert again.tenant(1) is None

    def test_storm_costs_cycles_never_correctness(self):
        stormed = poolworld.replay("pool", ("storm", "req:0"))
        metrics = stormed.service.metrics
        assert stormed.violations == []
        assert metrics.aex_interrupts == poolworld.STORM_ROUNDS
        assert metrics.completed + metrics.degraded == 1

    def test_unknown_world_is_rejected(self):
        with pytest.raises(SgxError):
            poolworld.boot("nonsense")


# -- the CLI -----------------------------------------------------------------

class TestCli:
    def test_safe_policy_exits_zero(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pin_all", "--depth", "1",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["policies"][0]["policy"] == "pin_all"

    def test_pool_world_exits_zero(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pool", "--depth", "2",
                    "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"]
        assert report["policies"][0]["policy"] == "pool"

    def test_broken_policy_exits_one_with_minimized_trace(self, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "broken", "--depth", "2",
                    "--max-states", "120", "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["ok"]
        minimized = report["policies"][0]["minimized_violations"]
        assert {"trace": ["touch:0", "unmap"]} \
            == {"trace": minimized[0]["trace"]}

    def test_export_writes_replayable_envelopes(self, tmp_path, capsys):
        from repro.modelcheck.cli import run
        assert run(["--policy", "pin_all", "--depth", "2",
                    "--max-states", "120",
                    "--export", str(tmp_path)]) == 0
        capsys.readouterr()
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["pin_all-aborted-attack-detected.json"]
        payload = json.loads(
            (tmp_path / written[0]).read_text(encoding="utf-8"))
        assert payload["policy"] == "pin_all"
        assert payload["source_trace"] == ["unmap"]
