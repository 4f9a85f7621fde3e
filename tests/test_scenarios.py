"""Scenario pack: seeded replay determinism, conformance, quota isolation.

The replay test is the serving analogue of the engine's bit-identity
contract: a scenario is a pure function of ``(name, seed, knobs)``, so two
runs must produce byte-identical serve manifests (compared via the
volatile-field-stripped fingerprint).  Everything here runs on the
virtual-time loop in profile mode, so wall time stays in seconds.  Tests
that only *read* a report share one module-scoped run of it.
"""

import pytest

from repro.serve import SCENARIOS, run_scenario
from repro.serve.scenarios import manifest_fingerprint


@pytest.fixture(scope="module")
def diurnal_replay():
    return run_scenario("diurnal", seed=7, requests=80)


@pytest.fixture(scope="module")
def multitenant_default():
    # One full-scale conformance sample in-suite; the CI scenario matrix
    # runs the whole pack x both batching policies at default scale.
    return run_scenario("multitenant", seed=0)


def test_pack_covers_required_scenarios():
    for name in ("diurnal", "burst", "heavy_tail", "straggler", "multitenant"):
        assert name in SCENARIOS, f"scenario pack missing {name!r}"
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.objectives, f"{name}: no conformance objectives"
        assert scenario.description


def test_manifest_fingerprint_ignores_volatile_fields():
    base = {"model": "m", "metrics": {"p99": 1.25}, "created": "now",
            "git_sha": "abc123"}
    same = {"model": "m", "metrics": {"p99": 1.25}, "created": "later",
            "git_sha": "def456"}
    different = {"model": "m", "metrics": {"p99": 1.26}, "created": "now",
                 "git_sha": "abc123"}
    assert manifest_fingerprint(base) == manifest_fingerprint(same)
    assert manifest_fingerprint(base) != manifest_fingerprint(different)


def test_seeded_replay_is_bit_identical(diurnal_replay):
    first = diurnal_replay
    second = run_scenario("diurnal", seed=7, requests=80)
    assert first.fingerprint == second.fingerprint
    assert first.summary() == second.summary()
    assert first.completed + first.shed == 80


def test_different_seed_changes_the_run():
    a = run_scenario("heavy_tail", seed=1, requests=60)
    b = run_scenario("heavy_tail", seed=2, requests=60)
    assert a.fingerprint != b.fingerprint


def test_batching_policy_is_part_of_the_fingerprint_surface(diurnal_replay):
    edf = diurnal_replay
    head = run_scenario("diurnal", seed=7, requests=80, batching="head")
    assert edf.batching == "edf" and head.batching == "head"
    # Same arrivals either way; policy only reorders service.
    assert edf.completed + edf.shed == head.completed + head.shed == 80


def test_burst_scenario_scales_up():
    report = run_scenario("burst", seed=0, requests=160)
    auto = report.stats["autoscaler"]
    assert auto["enabled"]
    assert auto["scale_ups"] >= 1
    assert report.stats["devices"]["current"] >= SCENARIOS["burst"].devices
    directions = {e["direction"] for e in auto["events"]}
    assert "up" in directions


def test_multitenant_quota_isolation(multitenant_default):
    report = multitenant_default
    tenants = report.stats["tenants"]
    assert tenants["greedy"]["shed"] > 0, "greedy tenant never hit its quota"
    assert tenants["paying"]["shed"] == 0, "quota shed leaked onto paying tenant"
    assert report.shed_by_reason.get("quota", 0) == tenants["greedy"]["shed"]


def test_scenario_verify_bit_identity_under_edf():
    report = run_scenario("diurnal", seed=0, requests=48, verify=4)
    assert report.verified >= 1
    # Functional serving reports the counts of the simulated first batch of
    # each plan for every later one: the session is the profile-mode one.
    assert report.fingerprint == run_scenario("diurnal", seed=0, requests=48).fingerprint


def test_multitenant_objectives_hold_at_default_scale(multitenant_default):
    assert multitenant_default.check() == [], multitenant_default.render()


def test_report_render_and_check_shape(multitenant_default):
    report = multitenant_default
    text = report.render()
    assert "multitenant" in text and "fingerprint" in text
    summary = report.summary()
    assert summary["requests"] == 320
    assert isinstance(report.check(), list)
