"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import copy
import json
from pathlib import Path

import pytest

from harness.measure import (
    END_TO_END, PER_LAYER, end_to_end, measure, per_layer, verdict,
)
from harness.tracing import self_times
from harness.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "kv-paging": {"data_mb": 1, "budget_pages": 128, "window_ops": 100,
                  "fingerprint_windows": 2, "warm_ops": 100},
    "kv-resident": {"data_mb": 1, "budget_pages": 400, "window_ops": 500,
                    "fingerprint_windows": 2},
    "service-pool": {"tenants": 3, "ticks": 12, "fingerprint_windows": 1,
                     "epc_pages": 320},
    "analyze": {"modules": 8},
}


def tiny(name, tmp_path, trace=False):
    return measure(name, 0, 0, tmp_path, trace=trace, fixed=True,
                   size=TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_completes_at_a_tiny_size(name, tmp_path):
    payload = tiny(name, tmp_path)
    assert payload["error"] is None
    assert payload["fingerprint"] is not None
    windows = TINY[name].get(
        "fingerprint_windows",
        WORKLOADS[name].defaults["fingerprint_windows"])
    assert len(payload["windows"]) == windows
    attempted, failed, problems = verdict(payload)
    assert attempted >= 1
    assert not any("Error" in p for p in problems)


def test_self_time_subtracts_the_union_of_child_intervals():
    # root [0, 10]; children [1, 3] and [2, 4] overlap, [5, 6] apart;
    # grandchild [1.5, 2.5] under the first child.
    start = [0.0, 1.0, 1.5, 2.0, 5.0]
    end = [10.0, 3.0, 2.5, 4.0, 6.0]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent)
    assert got == pytest.approx([10 - 3 - 1, 2 - 1, 1, 2, 1])


def test_self_time_clips_children_to_the_parent():
    got = self_times([0.0, 2.0], [4.0, 6.0], [-1, 0])
    assert got == pytest.approx([2.0, 4.0])


def test_printed_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    base = tiny("kv-paging", tmp_path)
    traced = tiny("kv-paging", tmp_path, trace=True)
    assert list(end_to_end(base)) == list(END_TO_END)
    assert list(per_layer(traced, base)) == list(PER_LAYER)
    assert all(isinstance(v, (int, float))
               for v in per_layer(traced, base).values())


@pytest.mark.parametrize("name", ["kv-paging", "service-pool"])
def test_a_perturbed_expected_fingerprint_fails_the_run(name, tmp_path):
    payload = tiny(name, tmp_path)
    expected = copy.deepcopy(payload["fingerprint"])
    assert verdict(payload, expected)[2] == []
    if name == "kv-paging":
        expected["cycles"] += 1
    else:
        expected["runs"][0]["digest"] = "0" * 16
    attempted, failed, problems = verdict(payload, expected)
    assert failed == attempted
    assert any(p.startswith("fingerprint mismatch") for p in problems)


@pytest.mark.parametrize("name", ["kv-paging", "kv-resident",
                                  "service-pool", "analyze"])
def test_traced_and_untraced_fingerprints_agree(name, tmp_path):
    from repro.clock import Clock
    charge = Clock.charge
    untraced = tiny(name, tmp_path)
    traced = tiny(name, tmp_path, trace=True)
    assert traced["error"] is None
    assert traced["n_spans"] > 0
    assert traced["fingerprint"] == untraced["fingerprint"]
    assert traced["sim"] == untraced["sim"]
    assert Clock.charge is charge  # every wrapper was removed


def test_recorded_fingerprints_cover_every_workload():
    recorded = json.loads(
        (ROOT / "perfbench" / "fingerprints.json").read_text())
    assert recorded["seed"] == 0
    assert set(recorded["workloads"]) == set(WORKLOADS)
