import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.dirac import (ALPHA_X, BETA, SPECTRAL_KEYS, DiracParams, closed_form_spectrum,
                            operator_stacks, spectral_stacks)
from bispinor.errors import DegenerateSpectrumError
from bispinor.linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z
from stack_contract import (MIXED_GRID, angles, check_case, couplings, energies, hamiltonian,
                            same_bits)

RNG = np.random.default_rng(41)


def random_params(theta=math.pi / 4):
    return DiracParams(m=float(RNG.uniform(0.0, 3.0)), p=1.0,
                       kappa=float(RNG.uniform(-2.0, 2.0)),
                       mu=float(RNG.uniform(-2.0, 2.0)),
                       E_field=float(RNG.uniform(0.1, 3.0)), theta=theta)


def invariant(params):
    return operator_stacks([params])[1][0]


def spectrum(params):
    """g2, the four lambda_(n,s) and their projectors of one point, SPECTRAL_KEYS order."""
    _, _, g2, lambdas, projectors = spectral_stacks([params])
    return g2[0], lambdas[0], projectors[0]


def test_representation_blocks():
    # beta = sz (x) I, alpha_x = sx (x) sx in the (a,b,c,d) level order
    assert np.array_equal(BETA, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    want = np.zeros((4, 4))
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1.0
    assert np.array_equal(ALPHA_X, want.astype(complex))


def test_hamiltonian_explicit_entries():
    """Free case plus both couplings, checked entry by entry."""
    params = DiracParams(m=2.0, p=3.0, kappa=0.0, mu=0.0, E_field=0.0)
    H = hamiltonian(params)
    want = 2.0 * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 3.0
    assert np.array_equal(H, want)

    # theta = 0 puts the field on x; tensor block is sz (x) sx,
    # pseudotensor block is -sy (x) sx
    params = DiracParams(m=0.0, p=0.0, kappa=1.0, mu=0.0, E_field=1.0, theta=0.0)
    H = hamiltonian(params)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 1] = want[1, 0] = 1.0
    want[2, 3] = want[3, 2] = -1.0
    assert np.allclose(H, want)

    params = DiracParams(m=0.0, p=0.0, kappa=0.0, mu=1.0, E_field=1.0, theta=0.0)
    H = hamiltonian(params)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 3] = want[1, 2] = 1.0j
    want[3, 0] = want[2, 1] = -1.0j
    assert np.allclose(H, want)


def test_hamiltonian_is_hermitian_and_traceless():
    for _ in range(20):
        params = random_params(theta=float(RNG.uniform(0.0, 2.0 * math.pi)))
        H = hamiltonian(params)
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
            H = hamiltonian(params)
            O = invariant(params)
            assert np.max(np.abs(H @ O - O @ H)) < 1e-12
            g2 = spectrum(params)[0]
            assert np.max(np.abs(O @ O - g2 * np.eye(4))) < 1e-10
    # degenerate spectra have no projectors; g2 is then the trace formula's
    for params in (DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0),
                   DiracParams(m=1.0, p=1.0, kappa=0.0, mu=0.0, E_field=1.0)):
        g2 = trace_formula_g2(hamiltonian(params))
        O = invariant(params)
        assert np.max(np.abs(O @ O - g2 * np.eye(4))) < 1e-10


def test_invariant_equals_shifted_hamiltonian_square():
    # O = (H^2 - Tr[H^2]/4 * I) / 2
    for _ in range(10):
        params = random_params(theta=float(RNG.uniform(0.0, 2.0 * math.pi)))
        H = hamiltonian(params)
        O = invariant(params)
        H2 = H @ H
        want = (H2 - np.trace(H2).real / 4.0 * np.eye(4)) / 2.0
        assert np.max(np.abs(O - want)) < 1e-12


def test_g2_closed_form_at_quarter_pi():
    for _ in range(20):
        params = random_params()
        m, p, k, mu, E = params.m, params.p, params.kappa, params.mu, params.E_field
        want = E * E * (m * m * k * k + 0.5 * (mu * mu + k * k) * p * p)
        assert spectrum(params)[0] == pytest.approx(want, abs=1e-10)


def test_closed_form_anchor_massless():
    params = DiracParams(m=0.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = np.sort(closed_form_spectrum([params])[0])
    np.testing.assert_allclose(got, [-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)],
                               rtol=1e-15, atol=0)


def test_closed_form_anchor_unit_mass():
    params = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = np.sort(closed_form_spectrum([params])[0])
    want = sorted(sgn * math.sqrt(4.0 + pm * 2.0 * math.sqrt(2.0))
                  for sgn in (1, -1) for pm in (1, -1))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_closed_form_is_keyed_in_spectral_order():
    params = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    lam = closed_form_spectrum([params])[0]
    assert lam.shape == (4,)
    assert lam[SPECTRAL_KEYS.index((1, 0))] == -lam[SPECTRAL_KEYS.index((0, 0))] < 0.0
    assert lam[SPECTRAL_KEYS.index((1, 1))] == -lam[SPECTRAL_KEYS.index((0, 1))] < 0.0
    assert lam[SPECTRAL_KEYS.index((0, 0))] > lam[SPECTRAL_KEYS.index((0, 1))]


def test_closed_form_reads_a_rounded_negative_radicand_as_zero():
    # p = mu = 0 and m = kappa E: lambda_(0,1) = |m - kappa E| = 0 exactly,
    # and numeric eigvalsh agrees to 1e-16, but the radicand rounds to -8.9e-16
    m, kappa = 1.910885061964363, 0.8823814699152238
    params = DiracParams(m=m, p=0.0, kappa=kappa, mu=0.0, E_field=m / kappa)
    lam = closed_form_spectrum([params])[0]
    assert lam[SPECTRAL_KEYS.index((0, 1))] == lam[SPECTRAL_KEYS.index((1, 1))] == 0.0
    numeric = np.linalg.eigvalsh(hamiltonian(params))
    np.testing.assert_allclose(np.sort(lam), numeric, rtol=0, atol=1e-12)


def test_projectors_resolve_the_hamiltonian():
    """Completeness, orthogonality, idempotence, rank 1 and H P = lambda P."""
    for _ in range(10):
        params = random_params()
        _, lambdas, projectors = spectrum(params)
        H = hamiltonian(params)
        total = sum(projectors)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12
        for k, (lam, P) in enumerate(zip(lambdas, projectors)):
            assert abs(np.trace(P) - 1.0) < 1e-12
            assert np.max(np.abs(P @ P - P)) < 1e-12
            assert np.max(np.abs(P - P.conj().T)) < 1e-12
            assert np.max(np.abs(H @ P - lam * P)) < 1e-10
            for other, Q in enumerate(projectors):
                if other != k:
                    assert np.max(np.abs(P @ Q)) < 1e-12


def test_projector_eigenvalues_match_closed_form():
    params = DiracParams(m=0.5, p=1.0, kappa=1.2, mu=0.7, E_field=0.9)
    lambdas = dict(zip(SPECTRAL_KEYS, spectrum(params)[1]))
    closed = dict(zip(SPECTRAL_KEYS, closed_form_spectrum([params])[0]))
    for key, want in closed.items():
        assert lambdas[key] == pytest.approx(want, abs=1e-12)
    assert lambdas[(1, 0)] == -lambdas[(0, 0)]
    assert lambdas[(1, 1)] == -lambdas[(0, 1)]


def test_projectors_work_off_the_quarter_pi_line():
    params = DiracParams(m=0.8, p=1.0, kappa=1.0, mu=0.4, E_field=1.1, theta=0.77)
    _, lambdas, projectors = spectrum(params)
    H = hamiltonian(params)
    for lam, P in zip(lambdas, projectors):
        assert np.max(np.abs(H @ P - lam * P)) < 1e-10
    np.testing.assert_allclose(lambdas, closed_form_spectrum([params])[0], rtol=1e-12, atol=0)


def test_degenerate_field_refused():
    with pytest.raises(DegenerateSpectrumError):
        spectral_stacks([DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0)])
    # kappa = 0 with mu = 0 kills the invariant the same way
    with pytest.raises(DegenerateSpectrumError):
        spectral_stacks([DiracParams(m=1.0, p=1.0, kappa=0.0, mu=0.0, E_field=1.0)])


# ------------------------------------------- builders against their formulas

def formula_hamiltonian(params):
    """H term by term, each Pauli product from np.kron."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    H = params.m * BETA + params.p * ALPHA_X
    H = H + params.kappa * (ex * np.kron(SIGMA_Z, SIGMA_X)
                            + ey * np.kron(SIGMA_Z, SIGMA_Y))
    H = H - params.mu * (ex * np.kron(SIGMA_Y, SIGMA_X)
                         + ey * np.kron(SIGMA_Y, SIGMA_Y))
    return H


def formula_invariant(params):
    """O term by term, each Pauli product from np.kron."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    cross_z = params.p * params.E_field * math.sin(params.theta)
    O = params.m * params.kappa * (ex * np.kron(IDENTITY_2, SIGMA_X)
                                   + ey * np.kron(IDENTITY_2, SIGMA_Y))
    O = O + params.mu * cross_z * np.kron(SIGMA_Z, SIGMA_Z)
    return O + params.kappa * cross_z * np.kron(SIGMA_Y, SIGMA_Z)


def trace_formula_g2(H):
    """g2 = (1/16) Tr[(H^2 - Tr[H^2]/4 * I)^2], written out."""
    H2 = H @ H
    traceless = H2 - (np.trace(H2).real / 4.0) * np.eye(4)
    return float(np.trace(traceless @ traceless).real / 16.0)


def loop_projectors(H, O, g2, lambdas):
    """The four projectors one 4x4 product at a time, in SPECTRAL_KEYS order."""
    eye = np.eye(4, dtype=complex)
    return [0.25 * ((eye + ((-1.0) ** n / abs(lam)) * H)
                    @ (eye + ((-1.0) ** s / math.sqrt(g2)) * O))
            for (n, s), lam in zip(SPECTRAL_KEYS, lambdas)]


def formula_radicand(params, s):
    """lambda_(0,s)^2 of the closed form, one point at a time."""
    m, p, k, mu, E = params.m, params.p, params.kappa, params.mu, params.E_field
    sin = math.sin(params.theta)
    inner = m * m * k * k + (mu * mu + k * k) * p * p * (sin * sin)
    return p * p + m * m + (k * k + mu * mu) * E * E + 2.0 * (-1.0) ** s * E * math.sqrt(inner)


@settings(max_examples=100)
@given(st.builds(DiracParams, m=energies, p=energies, kappa=couplings, mu=couplings,
                 E_field=energies, theta=angles))
def test_builders_match_the_tensor_product_formula_bitwise(params):
    H = hamiltonian(params)
    O = invariant(params)
    assert same_bits(H, formula_hamiltonian(params))
    assert same_bits(O, formula_invariant(params))
    try:
        g2, lambdas, projectors = spectrum(params)
    except DegenerateSpectrumError:
        return
    # g2 is the trace formula on the built H, and the stacked projector
    # product equals the per-projector one
    assert g2 == trace_formula_g2(H)
    want = loop_projectors(H, O, g2, lambdas)
    for k, P in enumerate(projectors):
        assert same_bits(P, want[k]), SPECTRAL_KEYS[k]


# ------------------------------------------- stacked builders against one point

def closed_form_matches_formula(_, params, lambdas):
    lam = [math.sqrt(max(formula_radicand(params, s), 0.0)) for s in (0, 1)]
    assert lambdas[0].tolist() == [lam[0], -lam[0], lam[1], -lam[1]], params


def test_stacked_builders_match_one_point_builds_bitwise():
    # every stack row is a one-row call, bit for bit, and the first refused
    # point refuses spectral_stacks with its one-row message; the closed
    # form matches its formula too
    check_case("operator_stacks", "spectral_stacks", "closed_form_spectrum",
               closed_form_spectrum=closed_form_matches_formula)


#: 0, or large enough that no square the closed form takes underflows
sizes = st.just(0.0) | st.floats(1e-3, 5.0)
signed = sizes | sizes.map(lambda x: -x)


@settings(max_examples=200)
@given(st.lists(st.builds(DiracParams, m=sizes, p=sizes, kappa=signed, mu=signed,
                          E_field=sizes, theta=st.floats(-math.pi, math.pi,
                                                         exclude_min=True, exclude_max=True)),
                min_size=1, max_size=5))
def test_closed_form_matches_numeric(grid):
    # at any angle, to 1e-10 of each point's largest |lambda|, and to
    # 1e-10 absolute where that is larger than 1. Draws do not fall near
    # a zero eigenvalue, where the closed form keeps only about half the
    # digits (closed_form_spectrum's docstring)
    closed = closed_form_spectrum(grid)
    numeric = np.linalg.eigvalsh(operator_stacks(grid)[0])
    scale = np.minimum(np.max(np.abs(numeric), axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(np.sort(closed) - numeric) <= 1e-10 * scale)


def test_degenerate_refusals_keep_their_one_point_messages():
    zero_field = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0)
    with pytest.raises(DegenerateSpectrumError, match="^g2 = 0 is degenerate"):
        spectral_stacks([zero_field])
    with pytest.raises(DegenerateSpectrumError, match="^g2 = 0 is degenerate"):
        spectral_stacks(MIXED_GRID)
    # at theta = 0, p = mu = 0: lambda^2 = (|m| -+ |kappa E|)^2, which is
    # exactly 0 for m = kappa E = 1 while g2 = 1; the first refused point
    # decides the message
    zero_eigenvalue = DiracParams(m=1.0, p=0.0, kappa=1.0, mu=0.0, E_field=1.0, theta=0.0)
    with pytest.raises(DegenerateSpectrumError, match="^an eigenvalue magnitude is ~0"):
        spectral_stacks([zero_eigenvalue])
    with pytest.raises(DegenerateSpectrumError, match="^an eigenvalue magnitude is ~0"):
        spectral_stacks([MIXED_GRID[0], zero_eigenvalue, zero_field])
