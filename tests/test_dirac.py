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
    return DiracParams(m=float(RNG.uniform(0.0, 3.0)),
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
    params = DiracParams(m=2.0, kappa=0.0, mu=0.0, E_field=0.0)
    H = hamiltonian(params)
    want = 2.0 * np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    want[0, 3] = want[1, 2] = want[2, 1] = want[3, 0] = 1.0
    assert np.array_equal(H, want)

    # theta = 0 puts the field on x; tensor block is sz (x) sx,
    # pseudotensor block is -sy (x) sx, each beside the kinetic alpha_x
    params = DiracParams(m=0.0, kappa=1.0, mu=0.0, E_field=1.0, theta=0.0)
    H = hamiltonian(params)
    want = ALPHA_X.copy()
    want[0, 1] = want[1, 0] = 1.0
    want[2, 3] = want[3, 2] = -1.0
    assert np.allclose(H, want)

    params = DiracParams(m=0.0, kappa=0.0, mu=1.0, E_field=1.0, theta=0.0)
    H = hamiltonian(params)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 3] = want[1, 2] = 1.0j
    want[3, 0] = want[2, 1] = -1.0j
    assert np.allclose(H, want + ALPHA_X)


def test_hamiltonian_is_hermitian_and_traceless():
    for _ in range(20):
        params = random_params(theta=float(RNG.uniform(0.0, 2.0 * math.pi)))
        H = hamiltonian(params)
        assert np.max(np.abs(H - H.conj().T)) < 1e-14
        assert abs(np.trace(H)) < 1e-14


def test_params_validation():
    with pytest.raises(ValueError):
        DiracParams(m=-1.0, kappa=1.0, mu=1.0, E_field=1.0)
    with pytest.raises(ValueError):
        DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=-0.5)
    with pytest.raises(ValueError):
        DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=float("inf"))
    # keywords only: a positional call written for the fields with p would
    # otherwise read its p as kappa and shift every later field
    with pytest.raises(TypeError, match="positional"):
        DiracParams(1.0, 1.0, 0.5, -0.5, 2.0)
    with pytest.raises(TypeError, match="positional"):
        DiracParams(1.0, kappa=0.5, mu=-0.5, E_field=2.0)


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
    for params in (DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=0.0),
                   DiracParams(m=1.0, kappa=0.0, mu=0.0, E_field=1.0)):
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
        m, k, mu, E = params.m, params.kappa, params.mu, params.E_field
        want = E * E * (m * m * k * k + 0.5 * (mu * mu + k * k))
        assert spectrum(params)[0] == pytest.approx(want, abs=1e-10)


def test_closed_form_anchor_massless():
    params = DiracParams(m=0.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = np.sort(closed_form_spectrum([params])[0])
    np.testing.assert_allclose(got, [-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)],
                               rtol=1e-15, atol=0)


def test_closed_form_anchor_unit_mass():
    params = DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    got = np.sort(closed_form_spectrum([params])[0])
    want = sorted(sgn * math.sqrt(4.0 + pm * 2.0 * math.sqrt(2.0))
                  for sgn in (1, -1) for pm in (1, -1))
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def test_closed_form_is_keyed_in_spectral_order():
    params = DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    lam = closed_form_spectrum([params])[0]
    assert lam.shape == (4,)
    assert lam[SPECTRAL_KEYS.index((1, 0))] == -lam[SPECTRAL_KEYS.index((0, 0))] < 0.0
    assert lam[SPECTRAL_KEYS.index((1, 1))] == -lam[SPECTRAL_KEYS.index((0, 1))] < 0.0
    assert lam[SPECTRAL_KEYS.index((0, 0))] > lam[SPECTRAL_KEYS.index((0, 1))]


def test_closed_form_reads_a_rounded_negative_radicand_as_zero():
    # mu = 0, theta = pi/2 and kappa E = sqrt(1 + m^2): lambda_(0,1) =
    # |sqrt(1 + m^2) - kappa E| ~ 0, where q - 2 sqrt(g2) rounds to -8.9e-16.
    # det H / lambda_(0,0)^2 is never negative, and what is left of the
    # rounding (~1.3e-16) is within eigvalsh's own error, a few ulps of
    # |lambda_(0,0)|
    m, kappa = 1.6337447237016287, 0.8154312097957965
    params = DiracParams(m=m, kappa=kappa, mu=0.0, E_field=math.sqrt(1.0 + m * m) / kappa,
                         theta=math.pi / 2)
    lam = closed_form_spectrum([params])[0]
    assert lam[SPECTRAL_KEYS.index((0, 1))] == -lam[SPECTRAL_KEYS.index((1, 1))] >= 0.0
    numeric = np.linalg.eigvalsh(hamiltonian(params))
    ulps = 4.0 * np.spacing(np.max(np.abs(numeric)))
    np.testing.assert_allclose(np.sort(lam), numeric, rtol=0, atol=ulps)


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
    params = DiracParams(m=0.5, kappa=1.2, mu=0.7, E_field=0.9)
    lam = spectrum(params)[1]
    # the projectors take their eigenvalues from the closed form, bit for bit
    assert same_bits(lam, closed_form_spectrum([params])[0])
    lambdas = dict(zip(SPECTRAL_KEYS, lam))
    assert lambdas[(1, 0)] == -lambdas[(0, 0)]
    assert lambdas[(1, 1)] == -lambdas[(0, 1)]


def test_projectors_work_off_the_quarter_pi_line():
    params = DiracParams(m=0.8, kappa=1.0, mu=0.4, E_field=1.1, theta=0.77)
    _, lambdas, projectors = spectrum(params)
    H = hamiltonian(params)
    for lam, P in zip(lambdas, projectors):
        assert np.max(np.abs(H @ P - lam * P)) < 1e-10
    np.testing.assert_allclose(lambdas, closed_form_spectrum([params])[0], rtol=1e-12, atol=0)


def test_degenerate_field_refused():
    with pytest.raises(DegenerateSpectrumError):
        spectral_stacks([DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=0.0)])
    # kappa = 0 with mu = 0 kills the invariant the same way
    with pytest.raises(DegenerateSpectrumError):
        spectral_stacks([DiracParams(m=1.0, kappa=0.0, mu=0.0, E_field=1.0)])


# ------------------------------------------- builders against their formulas

def formula_hamiltonian(params):
    """H term by term, each Pauli product from np.kron."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    H = params.m * BETA + ALPHA_X
    H = H + params.kappa * (ex * np.kron(SIGMA_Z, SIGMA_X)
                            + ey * np.kron(SIGMA_Z, SIGMA_Y))
    H = H - params.mu * (ex * np.kron(SIGMA_Y, SIGMA_X)
                         + ey * np.kron(SIGMA_Y, SIGMA_Y))
    return H


def formula_invariant(params):
    """O term by term, each Pauli product from np.kron."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    cross_z = params.E_field * math.sin(params.theta)
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


def formula_g2(params):
    """g2 = E^2 (m^2 kappa^2 + (mu^2 + kappa^2) sin^2 theta), one point at a time."""
    m, k, mu, E = params.m, params.kappa, params.mu, params.E_field
    sin = math.sin(params.theta)
    return E * E * (m * m * k * k + (mu * mu + k * k) * (sin * sin))


def formula_radicand(params, s):
    """lambda_(0,s)^2 of the closed form, one point at a time.

    lambda_(0,1)^2 is det H / lambda_(0,0)^2, with det H written as its
    sum of squares, and 0 where lambda_(0,0) = 0.
    """
    m, k, mu, E = params.m, params.kappa, params.mu, params.E_field
    cos, sin = math.cos(params.theta), math.sin(params.theta)
    inner = m * m * k * k + (mu * mu + k * k) * (sin * sin)
    mass, field = 1.0 + m * m, (k * k + mu * mu) * E * E
    plus = mass + field + 2.0 * (E * math.sqrt(inner))
    if s == 0:
        return plus
    gap = mass - field
    det = gap * gap + 4.0 * (field * (cos * cos) + E * E * m * m * mu * mu)
    return det / plus if plus > 0.0 else 0.0


@settings(max_examples=100)
@given(st.builds(DiracParams, m=energies, kappa=couplings, mu=couplings, E_field=energies,
                 theta=angles))
def test_builders_match_the_tensor_product_formula_bitwise(params):
    H = hamiltonian(params)
    O = invariant(params)
    assert same_bits(H, formula_hamiltonian(params))
    assert same_bits(O, formula_invariant(params))
    try:
        g2, lambdas, projectors = spectrum(params)
    except DegenerateSpectrumError:
        return
    # g2 is the closed form's, from the parameters, and the stacked
    # projector product equals the per-projector one
    assert g2 == formula_g2(params)
    want = loop_projectors(H, O, g2, lambdas)
    for k, P in enumerate(projectors):
        assert same_bits(P, want[k]), SPECTRAL_KEYS[k]


# ------------------------------------------- stacked builders against one point

def closed_form_matches_formula(_, params, lambdas):
    lam = [math.sqrt(formula_radicand(params, s)) for s in (0, 1)]
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
@given(st.lists(st.tuples(st.floats(1e-3, 5.0), sizes, signed, signed, sizes,
                          st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True)),
                min_size=1, max_size=5))
def test_closed_form_matches_numeric(points):
    # at any angle, to 1e-10 of each point's largest |lambda|, and to
    # 1e-10 absolute where that is larger than 1. Near a zero eigenvalue
    # the closed form keeps its digits too (the test below). Each point is
    # drawn at a momentum p and given in units of p, so m/p and E/p reach
    # 5000: H(m, p, kappa, mu, E) = p H(m/p, 1, kappa, mu, E/p)
    p = np.array([[point[0]] for point in points])
    grid = [DiracParams(m=m / q, kappa=kappa, mu=mu, E_field=E / q, theta=theta)
            for q, m, kappa, mu, E, theta in points]
    closed = p * np.sort(closed_form_spectrum(grid))
    numeric = p * np.linalg.eigvalsh(operator_stacks(grid)[0])
    scale = np.minimum(np.max(np.abs(numeric), axis=1, keepdims=True), 1.0)
    assert np.all(np.abs(closed - numeric) <= 1e-10 * scale)


def test_closed_form_keeps_its_digits_near_a_zero_eigenvalue():
    # m ~ 0, theta ~ pi/2 and p ~ sqrt(kappa^2 + mu^2) E put lambda_(0,1)
    # near 0, where q - 2 sqrt(g2) cancels; det H / lambda_(0,0)^2 does not.
    # Each point is drawn at a momentum p and given in units of p: H(m, p,
    # kappa, mu, E) = p H(m/p, 1, kappa, mu, E/p)
    rng = np.random.default_rng(44)
    grid = []
    for _ in range(5000):
        kappa, mu, E = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 3.0)
        p = math.hypot(kappa, mu) * E * (1.0 + rng.uniform(-1e-6, 1e-6))
        grid.append(DiracParams(m=abs(rng.normal(0.0, 1e-6)) / p, kappa=kappa, mu=mu,
                                E_field=E / p, theta=math.pi / 2 + rng.uniform(-1e-6, 1e-6)))
    closed = np.sort(closed_form_spectrum(grid), axis=1)
    numeric = np.linalg.eigvalsh(operator_stacks(grid)[0])
    scale = np.max(np.abs(numeric), axis=1, keepdims=True)
    assert np.all(np.abs(closed - numeric) <= 1e-14 * scale)


def test_degenerate_refusals_keep_their_one_point_messages():
    zero_field = DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=0.0)
    with pytest.raises(DegenerateSpectrumError, match="^g2 = 0 is degenerate"):
        spectral_stacks([zero_field])
    with pytest.raises(DegenerateSpectrumError, match="^g2 = 0 is degenerate"):
        spectral_stacks(MIXED_GRID)
    # at theta = pi/2, m = mu = 0: lambda^2 = (1 -+ |kappa E|)^2, which is
    # ~4e-33 (cos(pi/2) = 6e-17 in floats) for kappa = E = 1 while g2 = 1;
    # the first refused point decides the message
    zero_eigenvalue = DiracParams(m=0.0, kappa=1.0, mu=0.0, E_field=1.0, theta=math.pi / 2)
    with pytest.raises(DegenerateSpectrumError, match="^an eigenvalue magnitude is ~0"):
        spectral_stacks([zero_eigenvalue])
    with pytest.raises(DegenerateSpectrumError, match="^an eigenvalue magnitude is ~0"):
        spectral_stacks([MIXED_GRID[0], zero_eigenvalue, zero_field])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("huge", [{"m": 1e155}, {"m": 1e200}, {"kappa": 1e200}])
def test_an_overflowing_closed_form_is_refused_without_a_warning(huge):
    # the squares of the closed form overflow to [inf, -inf, nan, nan]; the
    # operators stay finite, so only the spectrum's own check can refuse
    point = DiracParams(**dict(MIXED_GRID[0]._asdict(), **huge))
    message = r"^closed-form spectrum is not finite \(g2 = inf\)$"
    with pytest.raises(DegenerateSpectrumError, match=message):
        spectral_stacks([point])
    with pytest.raises(DegenerateSpectrumError, match=message):
        spectral_stacks([MIXED_GRID[0], point])
    # the first refused point decides the message
    zero_field = MIXED_GRID[3]
    with pytest.raises(DegenerateSpectrumError, match="^g2 = 0 is degenerate"):
        spectral_stacks([zero_field, point])
