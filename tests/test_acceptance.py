"""Acceptance battery, one test per numbered criterion.

Each test prints the same `criterion NN [label]: PASS/FAIL - detail`
line the CLI selftest emits, then asserts. The trajectory cache is
shared across the module so the five long runs happen once.

Criteria 7 and 8 encode feature targets the implemented channel cannot
produce (the one-shot composition leaves diagonal starts noiseless and
keeps superposition coherences above an exp(-Gamma t) floor that dips
under the stated threshold well before t_max). They are kept as stated
and are expected to fail; the printed detail carries the measured
numbers.
"""

import numpy as np
import pytest

from bispinor import acceptance, noise


@pytest.fixture(scope="module")
def cache():
    return acceptance.AcceptanceCache()


def run_criterion(number, cache):
    number, label, func = acceptance.CRITERIA[number - 1]
    ok, detail = func(cache)
    print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok, detail


def test_criterion_01_closed_form_spectrum(cache):
    ok, detail = run_criterion(1, cache)
    assert ok, detail


def test_criterion_02_projector_suite(cache):
    ok, detail = run_criterion(2, cache)
    assert ok, detail


def test_criterion_03_ion_assembly_equivalence(cache):
    ok, detail = run_criterion(3, cache)
    assert ok, detail


def test_criterion_04_channel_physicality(cache):
    ok, detail = run_criterion(4, cache)
    assert ok, detail


def test_criterion_04_catches_a_wrong_mask(cache, monkeypatch):
    # the channel the engine runs is checked, not only the Kraus set:
    # a mask with the wrong coherence powers has to fail
    mask = noise.dephasing_mask
    monkeypatch.setattr(acceptance, "dephasing_mask",
                        lambda noise_params, times: np.sqrt(mask(noise_params, times)))
    ok, detail = acceptance.criterion_04(cache)
    assert not ok, detail


def test_criterion_05_zero_rate_limit(cache):
    ok, detail = run_criterion(5, cache)
    assert ok, detail


def test_criterion_05_catches_a_wrong_rotation(monkeypatch):
    # the reference must not share the engine's rotation: running it
    # backwards in time has to fail the check
    forward = noise.evolve_noiseless_stack

    def backward(rho0, params, times):
        return forward(rho0, params, -np.asarray(times, dtype=float))

    monkeypatch.setattr(noise, "evolve_noiseless_stack", backward)
    ok, detail = acceptance.criterion_05(acceptance.AcceptanceCache())
    assert not ok, detail


def test_criterion_06_measure_anchors(cache):
    ok, detail = run_criterion(6, cache)
    assert ok, detail


def test_criterion_07_death_and_revival(cache):
    ok, detail = run_criterion(7, cache)
    assert ok, detail


def test_criterion_08_entanglement_floor(cache):
    ok, detail = run_criterion(8, cache)
    assert ok, detail


def test_criterion_09_measure_hierarchy(cache):
    ok, detail = run_criterion(9, cache)
    assert ok, detail


def test_criterion_10_pure_state_closed_forms(cache):
    ok, detail = run_criterion(10, cache)
    assert ok, detail


def test_criterion_11_determinism_and_serialization(cache):
    ok, detail = run_criterion(11, cache)
    assert ok, detail
