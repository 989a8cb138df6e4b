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

import dataclasses
import math

import numpy as np
import pytest

from bispinor import acceptance, dirac, ionmap, noise

#: one grid point, away from the first and last, where a fault is planted
FAULT_POINT = acceptance._grid()[29]


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


def test_criterion_01_catches_one_off_eigenvalue(monkeypatch):
    # one closed-form eigenvalue at one grid point, off by 1e-9 relative
    def planted(params, n, s):
        value = dirac.eigenvalue_closed_form(params, n, s)
        return value * (1.0 + 1e-9) if (params, n, s) == (FAULT_POINT, 1, 0) else value

    monkeypatch.setattr(acceptance, "eigenvalue_closed_form", planted)
    ok, detail = acceptance.criterion_01(None)
    assert not ok, detail


def test_criterion_02_catches_one_off_projector_entry(monkeypatch):
    def planted(params):
        sd = dirac.eigenprojectors(params)
        if params != FAULT_POINT:
            return sd
        projectors = dict(sd.projectors)
        projectors[(0, 1)] = projectors[(0, 1)].copy()
        projectors[(0, 1)][2, 1] += 1e-9
        return dataclasses.replace(sd, projectors=projectors)

    monkeypatch.setattr(acceptance, "eigenprojectors", planted)
    ok, detail = acceptance.criterion_02(None)
    assert not ok, detail


def test_criterion_03_catches_one_off_ion_entry(monkeypatch):
    want_ion = ionmap.dirac_to_ion(FAULT_POINT)

    def planted(ion, p):
        H = ionmap.assemble_ion_hamiltonian(ion, p)
        if ion == want_ion:
            H[3, 0] += 1e-11
        return H

    monkeypatch.setattr(acceptance, "assemble_ion_hamiltonian", planted)
    ok, detail = acceptance.criterion_03(None)
    assert not ok, detail


def with_nan_entry(func):
    def planted(*args):
        out = np.array(func(*args))
        out[..., 1, 2] = np.nan
        return out
    return planted


@pytest.mark.parametrize("number, name, plant", [
    (4, "apply_channel", with_nan_entry),
    (5, "evolve_noisy_stack", with_nan_entry),
    (6, "geometric_discord",
     lambda func: lambda rho, side: math.nan if side == 2 else func(rho, side)),
    (10, "negativity", lambda func: lambda rho: math.nan),
])
def test_a_nan_deviation_fails_its_criterion(cache, monkeypatch, number, name, plant):
    # Python's max(0.0, nan) is 0.0: a fold that drops the NaN would pass
    monkeypatch.setattr(acceptance, name, plant(getattr(acceptance, name)))
    ok, detail = acceptance.CRITERIA[number - 1][2](cache)
    assert not ok, detail


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
