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

import math
from types import SimpleNamespace

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
    # lambda_(0,0) at one grid point off by 1e-9 relative
    def planted(grid):
        assert grid[FAULT_INDEX] == FAULT_POINT
        lambdas = dirac.closed_form_spectrum(grid)
        lambdas[FAULT_INDEX, dirac.SPECTRAL_KEYS.index((0, 0))] *= 1.0 + 1e-9
        return lambdas

    monkeypatch.setattr(acceptance, "closed_form_spectrum", planted)
    ok, detail = acceptance.criterion_01(None)
    assert not ok, detail


def test_criterion_02_catches_one_off_projector_entry(monkeypatch):
    # one entry of projector (0, 1) at one grid point, off by 1e-9
    def planted(grid):
        assert grid[FAULT_INDEX] == FAULT_POINT
        H, O, g2, lambdas, projectors = dirac.spectral_stacks(grid)
        projectors[FAULT_INDEX, dirac.SPECTRAL_KEYS.index((0, 1)), 2, 1] += 1e-9
        return H, O, g2, lambdas, projectors

    monkeypatch.setattr(acceptance, "spectral_stacks", planted)
    ok, detail = acceptance.criterion_02(None)
    assert not ok, detail


def test_criterion_03_catches_one_off_ion_entry(monkeypatch):
    # one entry of the ion assembly at one grid point, off by 1e-11
    def planted(ions):
        assert ions[FAULT_INDEX] == ionmap.dirac_to_ion(FAULT_POINT)
        H = ionmap.assemble_ion_stack(ions)
        H[FAULT_INDEX, 3, 0] += 1e-11
        return H

    monkeypatch.setattr(acceptance, "assemble_ion_stack", planted)
    ok, detail = acceptance.criterion_03(None)
    assert not ok, detail


# At theta = pi/4, E_x = E_y up to the last bit, so a fault that swaps x
# and y shows only at the other angles of the grid

def test_criterion_01_catches_cos_and_sin_swapped(monkeypatch):
    # the direct builder with the field at pi/2 - theta: the closed form
    # depends on sin^2 theta, so the two routes part off the pi/4 line
    def swapped(grid):
        with monkeypatch.context() as patch:
            patch.setattr(dirac, "math", SimpleNamespace(cos=math.sin, sin=math.cos))
            return dirac.operator_stacks(grid)

    monkeypatch.setattr(acceptance, "operator_stacks", swapped)
    ok, detail = acceptance.criterion_01(None)
    assert not ok, detail


def test_criterion_03_catches_x_and_y_swapped(monkeypatch):
    # the ion map with the x and y drives of both channels exchanged
    def swapped(params):
        ion = ionmap.dirac_to_ion(params)
        (x1, y1), (x2, y2) = ion.omega1, ion.omega2
        return ionmap.IonParams(ion.delta, ion.eta_delta_omega, (y1, x1), (y2, x2))

    monkeypatch.setattr(acceptance, "dirac_to_ion", swapped)
    ok, detail = acceptance.criterion_03(None)
    assert not ok, detail


def test_criterion_03_catches_a_wrong_sideband_coupling(monkeypatch):
    # the ion map with eta*Delta*Omega = 0.6 instead of 1/2: the kinetic
    # coefficient, the momentum in units of p, reads 1.2, off by 0.2
    def rescaled(params):
        ion = ionmap.dirac_to_ion(params)
        return ionmap.IonParams(ion.delta, 0.6, ion.omega1, ion.omega2)

    monkeypatch.setattr(acceptance, "dirac_to_ion", rescaled)
    ok, detail = acceptance.criterion_03(None)
    assert not ok, detail
    assert detail.startswith("worst entrywise deviation 0.2 "), detail


def with_nan_entry(func):
    def planted(*args):
        out = np.array(func(*args))
        out[..., 1, 2] = np.nan
        return out
    return planted


def with_nan_in(column):
    def plant(func):
        def planted(rhos):
            columns = func(rhos)
            columns[column] = np.where(np.arange(len(rhos)) == 1, np.nan, columns[column])
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
    def backwards(rho0, H, gamma_rate, times):
        return noise.evolve_noisy_stack(rho0, -H, gamma_rate, times)

    monkeypatch.setattr(acceptance, "evolve_noisy_stack", backwards)
    ok, detail = acceptance.criterion_05(acceptance.AcceptanceCache())
    assert not ok, detail


def test_criterion_05_catches_rotation_before_the_channel(monkeypatch):
    # Phi_t(U rho0 U^dag) agrees with the engine at Gamma = 0 only, so a
    # check of the noiseless limit alone passes it
    def rotate_first(rho0, H, gamma_rate, times):
        rotated = noise.evolve_noisy_stack(rho0, H, 0.0, times)
        return np.array([noise.evolve_noisy_stack(rho, acceptance.NO_HAMILTONIAN,
                                                  gamma_rate, [t])[0]
                         for rho, t in zip(rotated, times)])

    monkeypatch.setattr(acceptance, "evolve_noisy_stack", rotate_first)
    ok, detail = acceptance.criterion_05(None)
    assert not ok, detail


def lagrange_eigh(H):
    """Eigenvalues from eigvalsh, each eigenvector a column of its Lagrange
    projector prod_{j != k} (H - lambda_j) / (lambda_k - lambda_j).

    Exact on a simple spectrum, and H = 0 gets eigh's V = I; on any other
    degenerate spectrum two lambda_k coincide and the projectors are not
    defined.
    """
    lam = np.linalg.eigvalsh(H)
    if lam[0] == lam[-1]:
        return lam, np.eye(4, dtype=complex)
    columns = []
    with np.errstate(all="ignore"):
        for k in range(4):
            P = np.eye(4, dtype=complex)
            for j in range(4):
                if j != k:
                    P = P @ (H - lam[j] * np.eye(4)) / (lam[k] - lam[j])
            v = P[:, np.argmax(np.linalg.norm(P, axis=0))]
            columns.append(v / np.linalg.norm(v))
    return lam, np.array(columns).T


def test_criterion_05_catches_an_engine_wrong_on_a_degenerate_spectrum(cache, monkeypatch):
    # the engine's eigenbasis from Lagrange projectors passes criterion 4
    # (H = 0) and criterion 5's E = 1 point, and fails its E = 0 point,
    # where the spectrum is degenerate
    list(cache.all_trajectories())
    monkeypatch.setattr(noise.np.linalg, "eigh", lagrange_eigh)
    assert acceptance.criterion_04(cache)[0]
    ok, detail = acceptance.criterion_05(cache)
    assert not ok, detail
    assert float(detail.split()[2]) <= 1e-10, detail


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
