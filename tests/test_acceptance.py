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

from bispinor import acceptance, dirac, ionmap, noise

#: one grid point, away from the first and last, where a fault is planted
FAULT_INDEX = 29
FAULT_POINT = acceptance._grid()[FAULT_INDEX]


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
    # lambda_(0,0)^2 at one grid point off by 2e-9, so lambda_(0,0) and
    # lambda_(1,0) are off by 1e-9 relative
    def planted(grid):
        assert grid[FAULT_INDEX] == FAULT_POINT
        radicands = dirac._closed_form_stack(grid)
        radicands[FAULT_INDEX, 0] *= 1.0 + 2e-9
        return radicands

    monkeypatch.setattr(acceptance, "_closed_form_stack", planted)
    ok, detail = acceptance.criterion_01(None)
    assert not ok, detail


def test_criterion_02_catches_one_off_projector_entry(monkeypatch):
    # one entry of projector (0, 1) at one grid point, off by 1e-9
    def planted(grid):
        assert grid[FAULT_INDEX] == FAULT_POINT
        H, O, g2, lambdas, projectors = dirac._spectral_stacks(grid)
        projectors[FAULT_INDEX, dirac.SPECTRAL_KEYS.index((0, 1)), 2, 1] += 1e-9
        return H, O, g2, lambdas, projectors

    monkeypatch.setattr(acceptance, "_spectral_stacks", planted)
    ok, detail = acceptance.criterion_02(None)
    assert not ok, detail


def test_criterion_03_catches_one_off_ion_entry(monkeypatch):
    # one entry of the ion assembly at one grid point, off by 1e-11
    def planted(ions, momenta):
        assert ions[FAULT_INDEX] == ionmap.dirac_to_ion(FAULT_POINT)
        H = ionmap._assemble_stack(ions, momenta)
        H[FAULT_INDEX, 3, 0] += 1e-11
        return H

    monkeypatch.setattr(acceptance, "_assemble_stack", planted)
    ok, detail = acceptance.criterion_03(None)
    assert not ok, detail


def with_nan_entry(func):
    def planted(*args):
        out = np.array(func(*args))
        out[..., 1, 2] = np.nan
        return out
    return planted


def with_nan_in(column):
    def plant(func):
        def planted(rhos, times):
            columns = func(rhos, times)
            columns[column] = np.where(np.arange(len(times)) == 1, np.nan, columns[column])
            return columns
        return planted
    return plant


@pytest.mark.parametrize("number, name, plant", [
    (4, "apply_channel", with_nan_entry),
    (5, "evolve_noisy_stack", with_nan_entry),
    pytest.param(6, "sample_correlations_stack", with_nan_in("discord_2"),
                 id="6-sample_correlations_stack-discord_2"),
    pytest.param(10, "sample_correlations_stack", with_nan_in("negativity"),
                 id="10-sample_correlations_stack-negativity"),
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


@pytest.mark.parametrize("wrong_masks", [
    # single coherences get gamma^2 and double ones gamma
    pytest.param(lambda F: F[[0, 2, 1]], id="orders-swapped"),
    # double coherences get gamma
    pytest.param(lambda F: np.array([F[0], F[1] + F[2], np.zeros((4, 4))]),
                 id="double-gets-gamma"),
    # single coherences get gamma^2: no catalog start has any, so no
    # trajectory output shows this one
    pytest.param(lambda F: np.array([F[0], np.zeros((4, 4)), F[1] + F[2]]),
                 id="single-gets-gamma-squared"),
])
def test_criterion_04_catches_a_wrong_engine_channel(cache, monkeypatch, wrong_masks):
    # the channel the engine runs is checked, not only the Kraus set. The
    # shared trajectories are computed before the fault is planted, so
    # only the channel check can see it
    list(cache.all_trajectories())
    monkeypatch.setattr(noise, "_FLIP_MASKS", wrong_masks(noise._FLIP_MASKS))
    ok, detail = acceptance.criterion_04(cache)
    assert not ok, detail


def test_criterion_05_zero_rate_limit(cache):
    ok, detail = run_criterion(5, cache)
    assert ok, detail


def test_criterion_05_catches_a_wrong_rotation(monkeypatch):
    # the reference must not share the engine's rotation: an engine that
    # rotates backwards in time, exp(+i H t), has to fail the check
    build = dirac.build_dirac_hamiltonian
    monkeypatch.setattr(noise, "build_dirac_hamiltonian", lambda params: -build(params))
    ok, detail = acceptance.criterion_05(acceptance.AcceptanceCache())
    assert not ok, detail


def test_criterion_05_catches_rotation_before_the_channel(monkeypatch):
    # Phi_t(U rho0 U^dag) agrees with the engine at Gamma = 0 only, so a
    # check of the noiseless limit alone passes it
    def rotate_first(rho0, params, noise_params, times):
        rotated = noise.evolve_noisy_stack(rho0, params, noise.NoiseParams(0.0), times)
        return np.array([noise.evolve_noisy_stack(rho, acceptance.NO_HAMILTONIAN,
                                                  noise_params, [t])[0]
                         for rho, t in zip(rotated, times)])

    monkeypatch.setattr(acceptance, "evolve_noisy_stack", rotate_first)
    ok, detail = acceptance.criterion_05(None)
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
