"""The benchmark's correctness gate must fail corrupted results.

Each test clears a two-hour 69-bus instance once and corrupts a copy of the
result the way a faulty change could: a broken state-of-charge recursion, a
loose cone relaxation, a perturbed cost or price, a leaked message field, an
unconverged status or a different trace.
"""

import copy
import math

import pytest

import gate
from workloads import WORKLOADS, add_source, clear


@pytest.fixture(scope="module")
def instance():
    assert add_source()
    from lemclear.io_cli import GeneratorSpec, generate_scenario

    return generate_scenario(GeneratorSpec(seed=1, penetration=0.3, p_ev=0.0, horizon=2))


@pytest.fixture(scope="module")
def distributed(instance):
    workload = WORKLOADS["dense-clear"]
    result = clear(workload, instance)
    return workload, result, gate.total_cost(workload, result)


@pytest.fixture(scope="module")
def centralized(instance):
    workload = WORKLOADS["centralized"]
    result = clear(workload, instance)
    return workload, result, gate.total_cost(workload, result)


def test_clean_results_pass(instance, distributed, centralized):
    for workload, result, ref in (distributed, centralized):
        assert gate.check(workload, instance, result, ref) == []


def test_state_of_charge_violation_fails(instance, distributed):
    workload, result, ref = distributed
    bad = copy.deepcopy(result)
    pid = next(p.id for p in instance.prosumers if p.storages)
    bad.schedules[pid].storages[0].soc[0] += 0.05
    issues = gate.check(workload, instance, bad, ref)
    assert any(pid in i and "SoC" in i for i in issues)


def test_loose_relaxation_fails(instance, distributed):
    workload, result, ref = distributed
    bad = copy.deepcopy(result)
    bad.dso.tightness[0, 0] = 1e-3
    assert any("relaxation loose" in i for i in gate.check(workload, instance, bad, ref))


def test_cost_off_reference_fails(instance, distributed, centralized):
    for workload, result, ref in (distributed, centralized):
        assert any("off reference" in i for i in gate.check(workload, instance, result, ref * 1.01))


def test_non_finite_price_fails(instance, centralized):
    workload, result, ref = centralized
    bad = copy.deepcopy(result)
    next(iter(bad.dlmp.values()))[0] = math.nan
    assert "non-finite price" in gate.check(workload, instance, bad, ref)


def test_privacy_leak_fails(instance, distributed):
    workload, result, ref = distributed
    bad = copy.deepcopy(result)
    bad.trace.messages[0]["payload"]["soc"] = 0.5
    assert any("privacy audit" in i for i in gate.check(workload, instance, bad, ref))


def test_unconverged_fails(instance, distributed):
    workload, result, ref = distributed
    bad = copy.copy(result)
    bad.status = "iter_limit"
    assert "status iter_limit" in gate.check(workload, instance, bad, ref)


def test_fingerprint_sees_a_changed_trace(distributed):
    workload, result, _ = distributed
    bad = copy.deepcopy(result)
    bad.trace.outer[-1].dual_step += 1e-12
    assert gate.fingerprint(workload, bad) != gate.fingerprint(workload, result)
