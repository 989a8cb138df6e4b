import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.dirac import (ALPHA_X, BETA, DiracParams, build_dirac_hamiltonian,
                            build_invariant_operator, compute_g2,
                            eigenprojectors, eigenvalue_closed_form)
from bispinor.errors import DegenerateSpectrumError, UnsupportedConfigurationError
from bispinor.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product

RNG = np.random.default_rng(41)


def random_params(theta=math.pi / 4):
    return DiracParams(m=float(RNG.uniform(0.0, 3.0)), p=1.0,
                       kappa=float(RNG.uniform(-2.0, 2.0)),
                       mu=float(RNG.uniform(-2.0, 2.0)),
                       E_field=float(RNG.uniform(0.1, 3.0)), theta=theta)


def test_representation_blocks():
    # beta = sz (x) I, alpha_x = sx (x) sx in the (a,b,c,d) level order
    assert np.array_equal(BETA, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    want = np.zeros((4, 4))
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1.0
    assert np.array_equal(ALPHA_X, want.astype(complex))


def test_hamiltonian_explicit_entries():
    """Free case plus both couplings, checked entry by entry."""
    params = DiracParams(m=2.0, p=3.0, kappa=0.0, mu=0.0, E_field=0.0)
    H = build_dirac_hamiltonian(params)
    want = 2.0 * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 3.0
    assert np.array_equal(H, want)

    # theta = 0 puts the field on x; tensor block is sz (x) sx,
    # pseudotensor block is -sy (x) sx
    params = DiracParams(m=0.0, p=0.0, kappa=1.0, mu=0.0, E_field=1.0, theta=0.0)
    H = build_dirac_hamiltonian(params)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1] = want[1, 0] = 1.0
    want[2, 3] = want[3, 2] = -1.0
    assert np.allclose(H, want)

    params = DiracParams(m=0.0, p=0.0, kappa=0.0, mu=1.0, E_field=1.0, theta=0.0)
    H = build_dirac_hamiltonian(params)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 3] = want[1, 2] = 1.0j
    want[3, 0] = want[2, 1] = -1.0j
    assert np.allclose(H, want)


def test_hamiltonian_is_hermitian_and_traceless():
    for _ in range(20):
        params = random_params(theta=float(RNG.uniform(0.0, 2.0 * math.pi)))
        H = build_dirac_hamiltonian(params)
        assert np.max(np.abs(H - H.conj().T)) < 1e-14
        assert abs(np.trace(H)) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        DiracParams(m=-1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    with pytest.raises(ValueError):
        DiracParams(m=1.0, p=-0.5, kappa=1.0, mu=1.0, E_field=1.0)
    with pytest.raises(ValueError):
        DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=float("inf"))


def test_invariant_commutes_and_squares_to_scalar():
    """[H, O] = 0 and O^2 = g2 * I at arbitrary theta, not just pi/4."""
    for theta in (0.0, 0.3, math.pi / 4, 1.9, math.pi):
        for _ in range(5):
            params = random_params(theta=theta)
            H = build_dirac_hamiltonian(params)
            O = build_invariant_operator(params)
            assert np.max(np.abs(H @ O - O @ H)) < 1e-12
            g2 = compute_g2(params)
            assert np.max(np.abs(O @ O - g2 * np.eye(4))) < 1e-10


def test_invariant_equals_shifted_hamiltonian_square():
    # O = (H^2 - Tr[H^2]/4 * I) / 2
    for _ in range(10):
        params = random_params(theta=float(RNG.uniform(0.0, 2.0 * math.pi)))
        H = build_dirac_hamiltonian(params)
        O = build_invariant_operator(params)
        H2 = H @ H
        want = (H2 - np.trace(H2).real / 4.0 * np.eye(4)) / 2.0
        assert np.max(np.abs(O - want)) < 1e-12


def test_g2_closed_form_at_quarter_pi():
    for _ in range(20):
        params = random_params()
        m, p, k, mu, E = params.m, params.p, params.kappa, params.mu, params.E_field
        want = E * E * (m * m * k * k + 0.5 * (mu * mu + k * k) * p * p)
        assert compute_g2(params) == pytest.approx(want, abs=1e-10)


def test_closed_form_anchor_massless():
    params = DiracParams(m=0.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = sorted(eigenvalue_closed_form(params, n, s) for n in (0, 1) for s in (0, 1))
    np.testing.assert_allclose(got, [-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)],
                               rtol=1e-15, atol=0)


def test_closed_form_anchor_unit_mass():
    params = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = sorted(eigenvalue_closed_form(params, n, s) for n in (0, 1) for s in (0, 1))
    want = sorted(sgn * math.sqrt(4.0 + pm * 2.0 * math.sqrt(2.0))
                  for sgn in (1, -1) for pm in (1, -1))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_closed_form_matches_numeric():
    for _ in range(20):
        params = random_params()
        closed = sorted(eigenvalue_closed_form(params, n, s)
                        for n in (0, 1) for s in (0, 1))
        numeric = np.linalg.eigvalsh(build_dirac_hamiltonian(params))
        np.testing.assert_allclose(closed, numeric, rtol=0, atol=1e-10)


def test_closed_form_index_and_theta_guards():
    params = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    with pytest.raises(ValueError):
        eigenvalue_closed_form(params, 2, 0)
    with pytest.raises(ValueError):
        eigenvalue_closed_form(params, 0, -1)
    tilted = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0, theta=0.3)
    with pytest.raises(UnsupportedConfigurationError):
        eigenvalue_closed_form(tilted, 0, 0)


def test_projectors_resolve_the_hamiltonian():
    """Completeness, orthogonality, idempotence, rank 1 and H P = lambda P."""
    for _ in range(10):
        params = random_params()
        sd = eigenprojectors(params)
        H = build_dirac_hamiltonian(params)
        total = sum(sd.projectors.values())
        assert np.max(np.abs(total - np.eye(4))) < 1e-12
        for key, P in sd.projectors.items():
            lam = sd.lambdas[key]
            assert abs(np.trace(P) - 1.0) < 1e-12
            assert np.max(np.abs(P @ P - P)) < 1e-12
            assert np.max(np.abs(P - P.conj().T)) < 1e-12
            assert np.max(np.abs(H @ P - lam * P)) < 1e-10
            for other, Q in sd.projectors.items():
                if other != key:
                    assert np.max(np.abs(P @ Q)) < 1e-12


def test_projector_eigenvalues_match_closed_form():
    params = DiracParams(m=0.5, p=1.0, kappa=1.2, mu=0.7, E_field=0.9)
    sd = eigenprojectors(params)
    for n in (0, 1):
        for s in (0, 1):
            want = eigenvalue_closed_form(params, n, s)
            assert sd.lambdas[(n, s)] == pytest.approx(want, abs=1e-12)
    assert sd.lambdas[(1, 0)] == -sd.lambdas[(0, 0)]
    assert sd.lambdas[(1, 1)] == -sd.lambdas[(0, 1)]


def test_projectors_work_off_the_quarter_pi_line():
    # no closed-form eigenvalues here, but the projector identities hold
    params = DiracParams(m=0.8, p=1.0, kappa=1.0, mu=0.4, E_field=1.1, theta=0.77)
    sd = eigenprojectors(params)
    H = build_dirac_hamiltonian(params)
    for key, P in sd.projectors.items():
        assert np.max(np.abs(H @ P - sd.lambdas[key] * P)) < 1e-10


def test_degenerate_field_refused():
    with pytest.raises(DegenerateSpectrumError):
        eigenprojectors(DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0))
    # kappa = 0 with mu = 0 kills the invariant the same way
    with pytest.raises(DegenerateSpectrumError):
        eigenprojectors(DiracParams(m=1.0, p=1.0, kappa=0.0, mu=0.0, E_field=1.0))


# ------------------------------------------- builders against their formulas

def formula_hamiltonian(params):
    """H term by term, each Pauli product from tensor_product."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    H = params.m * BETA + params.p * ALPHA_X
    H = H + params.kappa * (ex * tensor_product(SIGMA_Z, SIGMA_X)
                            + ey * tensor_product(SIGMA_Z, SIGMA_Y))
    H = H - params.mu * (ex * tensor_product(SIGMA_Y, SIGMA_X)
                         + ey * tensor_product(SIGMA_Y, SIGMA_Y))
    return H


def formula_invariant(params):
    """O term by term, each Pauli product from tensor_product."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    cross_z = params.p * params.E_field * math.sin(params.theta)
    O = params.m * params.kappa * (ex * tensor_product(IDENTITY_2, SIGMA_X)
                                   + ey * tensor_product(IDENTITY_2, SIGMA_Y))
    O = O + params.mu * cross_z * tensor_product(SIGMA_Z, SIGMA_Z)
    return O + params.kappa * cross_z * tensor_product(SIGMA_Y, SIGMA_Z)


def loop_projectors(H, O, g2, lambdas):
    """The four projectors one 4x4 product at a time."""
    eye = np.eye(4, dtype=complex)
    return {(n, s): 0.25 * ((eye + ((-1.0) ** n / abs(lam)) * H)
                            @ (eye + ((-1.0) ** s / math.sqrt(g2)) * O))
            for (n, s), lam in lambdas.items()}


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


energies = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
couplings = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False) | st.just(math.pi / 4)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.builds(DiracParams, m=energies, p=energies, kappa=couplings, mu=couplings,
                 E_field=energies, theta=angles))
def test_builders_match_the_tensor_product_formula_bitwise(params):
    H = build_dirac_hamiltonian(params)
    O = build_invariant_operator(params)
    assert same_bits(H, formula_hamiltonian(params))
    assert same_bits(O, formula_invariant(params))
    try:
        sd = eigenprojectors(params)
    except DegenerateSpectrumError:
        return
    # g2 from the H eigenprojectors built equals compute_g2's, and the
    # stacked projector product equals the per-projector one
    assert sd.g2 == compute_g2(params)
    want = loop_projectors(H, O, sd.g2, sd.lambdas)
    assert list(sd.projectors) == list(want)
    for key, P in sd.projectors.items():
        assert same_bits(P, want[key]), key
