import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bispinor.dirac import DiracParams
from bispinor.errors import InvariantViolation
from bispinor.linalg import evolution_operator
from bispinor.noise import (KrausSet, NoiseParams, apply_channel, build_kraus_set,
                            dephasing_mask, evolve_noiseless, evolve_noisy,
                            validate_density_matrix)

RNG = np.random.default_rng(3)

PARAMS = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)


def random_density():
    G = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def bell_state():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


def test_noise_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(gamma_rate=-0.1)
    with pytest.raises(ValueError):
        NoiseParams(gamma_rate=float("inf"))


def test_kraus_factors():
    ks = build_kraus_set(NoiseParams(0.5), 2.0)
    assert ks.gamma_factor == pytest.approx(math.exp(-0.5))
    assert ks.omega_factor == pytest.approx(math.sqrt(1.0 - math.exp(-1.0)))
    assert len(ks.operators) == 4
    for K in ks.operators:
        assert np.max(np.abs(K.imag)) == 0.0  # all real diagonal


def test_kraus_completeness():
    for gamma in (0.0, 0.3, 2.0):
        for t in (0.0, 0.5, 7.0, 100.0):
            ks = build_kraus_set(NoiseParams(gamma), t)
            total = sum(K.conj().T @ K for K in ks.operators)
            assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_kraus_identity_limits():
    # no rate, or no elapsed time: the channel is the identity
    for ks in (build_kraus_set(NoiseParams(0.0), 5.0),
               build_kraus_set(NoiseParams(0.7), 0.0)):
        assert ks.gamma_factor == 1.0
        assert ks.omega_factor == 0.0
        rho = random_density()
        assert np.max(np.abs(apply_channel(rho, ks) - rho)) < 1e-15


def test_kraus_rejects_negative_time():
    with pytest.raises(ValueError):
        build_kraus_set(NoiseParams(0.5), -0.01)


def test_channel_matches_elementwise_form():
    """Operator-sum route equals the elementwise dephasing-mask route."""
    for _ in range(10):
        rho = random_density()
        for gamma, t in ((0.5, 1.0), (2.0, 0.3), (0.1, 10.0)):
            noise = NoiseParams(gamma)
            out = apply_channel(rho, build_kraus_set(noise, t))
            np.testing.assert_allclose(out, dephasing_mask(noise, [t])[0] * rho,
                                       rtol=0, atol=1e-14)


def test_dephasing_mask_shape():
    g = build_kraus_set(NoiseParams(1.0), 1.0).gamma_factor
    c = dephasing_mask(NoiseParams(1.0), [1.0])[0]
    assert np.array_equal(np.diag(c), np.ones(4))
    assert c[0, 3] == pytest.approx(g * g)
    assert c[0, 1] == c[1, 0] == pytest.approx(g)
    assert np.array_equal(c, c.T)


def test_channel_is_a_semigroup_in_time():
    # dephasing factors multiply: t1 then t2 equals t1 + t2
    rho = random_density()
    noise = NoiseParams(0.8)
    step = apply_channel(apply_channel(rho, build_kraus_set(noise, 0.4)),
                         build_kraus_set(noise, 1.1))
    once = apply_channel(rho, build_kraus_set(noise, 1.5))
    np.testing.assert_allclose(step, once, rtol=0, atol=1e-14)


def test_channel_fixes_diagonal_states():
    diag = np.diag(np.array([0.4, 0.3, 0.2, 0.1], dtype=complex))
    ks = build_kraus_set(NoiseParams(1.5), 2.0)
    assert np.max(np.abs(apply_channel(diag, ks) - diag)) < 1e-15


def test_channel_never_raises_purity():
    for _ in range(10):
        rho = random_density()
        ks = build_kraus_set(NoiseParams(0.6), float(RNG.uniform(0.1, 5.0)))
        out = apply_channel(rho, ks)
        pur_in = float(np.trace(rho @ rho).real)
        pur_out = float(np.trace(out @ out).real)
        assert pur_out <= pur_in + 1e-12
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_channel_rejects_broken_kraus_set():
    ks = build_kraus_set(NoiseParams(0.5), 1.0)
    broken = KrausSet(operators=ks.operators[:3], gamma_factor=ks.gamma_factor,
                      omega_factor=ks.omega_factor)
    with pytest.raises(ValueError):
        apply_channel(np.eye(4) / 4.0, broken)


def test_channel_rejects_non_finite_input():
    # NaN passes every "deviation > tol" test, so each check must refuse it
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time must be finite"):
            build_kraus_set(NoiseParams(0.5), bad)
        with pytest.raises(ValueError, match="time must be finite"):
            dephasing_mask(NoiseParams(0.5), [0.5, bad])
    ks = build_kraus_set(NoiseParams(0.5), 1.0)
    poisoned = KrausSet(operators=(np.full((4, 4), np.nan),) + ks.operators[1:],
                        gamma_factor=ks.gamma_factor, omega_factor=ks.omega_factor)
    with pytest.raises(ValueError, match="completeness"):
        apply_channel(np.eye(4) / 4.0, poisoned)


def test_dephasing_mask_requires_1d_times():
    for times in (0.5, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="1-D"):
            dephasing_mask(NoiseParams(0.5), times)


unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def density_stacks(draw):
    batch = draw(st.integers(1, 6))
    entries = np.array(draw(st.lists(unit, min_size=32 * batch, max_size=32 * batch)))
    G = (entries[:16 * batch] + 1j * entries[16 * batch:]).reshape(batch, 4, 4)
    rho = G @ np.swapaxes(G.conj(), -1, -2)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    assume(np.all(trace > 1e-3))
    return rho / trace[:, None, None]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(density_stacks(), st.floats(0.0, 2.0), st.floats(0.0, 20.0))
def test_stacked_channel_matches_per_state_loop_bitwise(rhos, rate, t):
    ks = build_kraus_set(NoiseParams(rate), t)
    got = apply_channel(rhos, ks)
    assert got.shape == rhos.shape
    for rho, out in zip(rhos, got):
        assert out.tobytes() == apply_channel(rho, ks).tobytes()


def test_validate_density_matrix_passes_good_states():
    for rho in (np.eye(4) / 4.0, bell_state(), random_density()):
        out = validate_density_matrix(rho)
        assert np.array_equal(out, np.asarray(rho, dtype=complex))


def test_validate_density_matrix_diagnostics():
    with pytest.raises(InvariantViolation, match="shape"):
        validate_density_matrix(np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.2  # not Hermitian
    with pytest.raises(InvariantViolation, match="Hermitian"):
        validate_density_matrix(bad)
    slightly = bell_state()
    slightly[0, 3] += 5e-11j  # Hermitian to 1e-10, not to 1e-12
    with pytest.raises(InvariantViolation, match="^custom state must be Hermitian$"):
        validate_density_matrix(slightly, where="custom state")
    nonfinite = bell_state()
    nonfinite[1, 1] = np.nan
    with pytest.raises(InvariantViolation, match="finite"):
        validate_density_matrix(nonfinite)
    with pytest.raises(InvariantViolation, match="trace"):
        validate_density_matrix(np.eye(4, dtype=complex) / 2.0)
    with pytest.raises(InvariantViolation, match="eigenvalue"):
        validate_density_matrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))


def test_noiseless_evolution_matches_unitary_conjugation():
    from bispinor.dirac import build_dirac_hamiltonian

    H = build_dirac_hamiltonian(PARAMS)
    for t in (0.0, 0.3, 2.0, 17.0):
        U = evolution_operator(H, t)
        for rho in (bell_state(), random_density()):
            want = U @ rho @ U.conj().T
            got = evolve_noiseless(rho, PARAMS, t)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_noiseless_evolution_degenerate_fallback():
    # E = 0: degenerate spectrum, no analytic projectors; still unitary
    free = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0)
    rho = bell_state()
    out = evolve_noiseless(rho, free, 1.3)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert float(np.trace(out @ out).real) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_preserves_purity():
    rho = bell_state()
    out = evolve_noiseless(rho, PARAMS, 5.0)
    assert float(np.trace(out @ out).real) == pytest.approx(1.0, abs=1e-10)


def test_noisy_reduces_to_noiseless_at_zero_rate():
    quiet = NoiseParams(0.0)
    for t in (0.5, 3.0):
        rho = random_density()
        np.testing.assert_allclose(evolve_noisy(rho, PARAMS, quiet, t),
                                   evolve_noiseless(rho, PARAMS, t),
                                   rtol=0, atol=1e-12)


def test_noisy_at_time_zero_is_identity():
    rho = random_density()
    np.testing.assert_allclose(evolve_noisy(rho, PARAMS, NoiseParams(0.9), 0.0),
                               rho, rtol=0, atol=1e-14)


def test_noisy_composition_order():
    """Channel first, rotation second; the reversed order differs."""
    from bispinor.dirac import build_dirac_hamiltonian

    noise = NoiseParams(0.5)
    t = 1.7
    rho0 = bell_state()
    H = build_dirac_hamiltonian(PARAMS)
    U = evolution_operator(H, t)
    ks = build_kraus_set(noise, t)
    want = U @ apply_channel(rho0, ks) @ U.conj().T
    got = evolve_noisy(rho0, PARAMS, noise, t)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    reversed_order = apply_channel(U @ rho0 @ U.conj().T, ks)
    assert np.max(np.abs(got - reversed_order)) > 1e-3


def test_noisy_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve_noisy(bell_state(), PARAMS, NoiseParams(0.5), -1.0)


def test_noisy_long_time_coherence_floor():
    # gamma factor shrinks but never reaches zero at finite time
    rho = bell_state()
    out = evolve_noisy(rho, PARAMS, NoiseParams(0.5), 20.0)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    pur = float(np.trace(out @ out).real)
    assert 0.25 - 1e-12 <= pur <= 1.0
