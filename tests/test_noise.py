import math
import warnings

import numpy as np
import pytest

from bispinor.dirac import DiracParams
from bispinor.noise import apply_channel, build_kraus_set, evolve_noisy_stack
from stack_contract import NO_HAMILTONIAN, check_stack, hamiltonian

RNG = np.random.default_rng(3)

PARAMS = DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=1.0)
GENERATOR = hamiltonian(PARAMS)
QUIET = 0.0  # no dephasing


def reference_unitary(H, t):
    """exp(-i H t) from the general eigensolver, V diag(exp(-i lambda t)) V^-1,
    which shares no code path with the engine's Hermitian one."""
    lam, V = np.linalg.eig(H)
    return (V * np.exp(-1j * lam * t)) @ np.linalg.inv(V)


def random_density():
    G = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def bell_state():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    return np.outer(vec, vec.conj())


@pytest.mark.parametrize("call", [
    lambda rate: build_kraus_set(rate, [1.0]),
    lambda rate: evolve_noisy_stack(bell_state(), GENERATOR, rate, [1.0]),
], ids=["build_kraus_set", "evolve_noisy_stack"])
def test_a_bad_rate_is_refused(call):
    for rate in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="^gamma_rate must be finite and nonnegative$"):
            call(rate)


def test_kraus_factors():
    ks = build_kraus_set(0.5, [2.0])
    # F_nu E_mu = diag(1 or 0, gamma or omega) on each qubit, qubit 1 first
    g, w = math.exp(-0.5), math.sqrt(1.0 - math.exp(-1.0))
    want = ([1.0, g, g, g * g], [0.0, 0.0, w, w * g], [0.0, w, 0.0, w * g],
            [0.0, 0.0, 0.0, w * w])
    assert ks.shape == (1, 4, 4, 4) and ks.dtype == complex
    ks = ks[0]
    for K, diagonal in zip(ks, want):
        assert np.array_equal(K, np.diag(np.diag(K)))  # diagonal
        assert np.max(np.abs(K.imag)) == 0.0  # and real
        np.testing.assert_allclose(np.diag(K).real, diagonal, rtol=1e-15, atol=0)


def test_kraus_completeness():
    for gamma in (0.0, 0.3, 2.0):
        ks = build_kraus_set(gamma, (0.0, 0.5, 7.0, 100.0))
        total = np.sum(np.swapaxes(ks.conj(), -1, -2) @ ks, axis=1)
        assert total.shape == (4, 4, 4)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12


def test_kraus_identity_limits():
    # no rate, or no elapsed time: the channel is the identity
    for ks in (build_kraus_set(0.0, [5.0]),
               build_kraus_set(0.7, [0.0])):
        # gamma = 1 and omega = 0 exactly: the set is {I, 0, 0, 0}
        assert np.array_equal(ks[0, 0], np.eye(4))
        assert not np.any(ks[0, 1:])
        rho = random_density()
        assert np.max(np.abs(apply_channel(rho, ks)[0] - rho)) < 1e-15


def test_kraus_rejects_negative_time():
    with pytest.raises(ValueError, match="forward in time"):
        build_kraus_set(0.5, [0.0, -0.01])


def test_channel_matches_elementwise_form():
    """Operator-sum route equals the engine's elementwise route at H = 0."""
    for _ in range(10):
        rho = random_density()
        for gamma, t in ((0.5, 1.0), (2.0, 0.3), (0.1, 10.0)):
            out = apply_channel(rho, build_kraus_set(gamma, [t]))[0]
            engine = evolve_noisy_stack(rho, NO_HAMILTONIAN, gamma, [t])[0]
            np.testing.assert_allclose(out, engine, rtol=0, atol=1e-14)


def test_dephasing_mask_shape():
    # on the all-ones matrix the H = 0 engine returns its coefficients
    g = build_kraus_set(1.0, [1.0])[0, 0, 1, 1].real  # gamma
    c = evolve_noisy_stack(np.ones((4, 4)), NO_HAMILTONIAN, 1.0, [1.0])[0]
    assert np.array_equal(np.diag(c), np.ones(4))
    assert c[0, 3] == pytest.approx(g * g)
    assert c[0, 1] == c[1, 0] == pytest.approx(g)
    assert np.array_equal(c, c.T)


def test_channel_is_a_semigroup_in_time():
    # dephasing factors multiply: t1 then t2 equals t1 + t2
    rho = random_density()
    step = apply_channel(apply_channel(rho, build_kraus_set(0.8, [0.4]))[0],
                         build_kraus_set(0.8, [1.1]))
    once = apply_channel(rho, build_kraus_set(0.8, [1.5]))
    np.testing.assert_allclose(step, once, rtol=0, atol=1e-14)


def test_channel_fixes_diagonal_states():
    diag = np.diag(np.array([0.4, 0.3, 0.2, 0.1], dtype=complex))
    ks = build_kraus_set(1.5, [2.0])
    assert np.max(np.abs(apply_channel(diag, ks)[0] - diag)) < 1e-15


def test_channel_never_raises_purity():
    for _ in range(10):
        rho = random_density()
        ks = build_kraus_set(0.6, [float(RNG.uniform(0.1, 5.0))])
        out = apply_channel(rho, ks)[0]
        pur_in = float(np.trace(rho @ rho).real)
        pur_out = float(np.trace(out @ out).real)
        assert pur_out <= pur_in + 1e-12
        assert abs(np.trace(out).real - 1.0) < 1e-12


def test_channel_rejects_broken_kraus_set():
    ks = build_kraus_set(0.5, [1.0, 2.0])
    with pytest.raises(ValueError, match="completeness"):
        apply_channel(np.eye(4) / 4.0, ks[:, :3])
    for bad in (ks[0], ks[None]):
        with pytest.raises(ValueError, match=r"\(T, k, 4, 4\) Kraus stack"):
            apply_channel(np.eye(4) / 4.0, bad)


def test_channel_rejects_non_finite_input():
    # NaN passes every "deviation > tol" test, so each check must refuse it
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time must be finite"):
            build_kraus_set(0.5, [1.0, bad])
    for times in (0.5, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="1-D"):
            build_kraus_set(0.5, times)


def test_dephasing_mask_requires_1d_times():
    # at H = 0, as at any H: a row that is not a time refuses the stack
    refusal = check_stack("evolve_noisy_stack", (bell_state(), NO_HAMILTONIAN, 0.5),
                          [[0.5, 1.0]])
    assert "1-D" in str(refusal)


def test_channel_refuses_a_stack():
    # the Kraus sum is the one-state reference; stacks go through the engine
    ks = build_kraus_set(0.5, [1.0])
    with pytest.raises(ValueError, match="4x4 state"):
        apply_channel(np.array([bell_state(), bell_state()]), ks)


def test_noiseless_evolution_matches_unitary_conjugation():
    for t in (0.0, 0.3, 2.0, 17.0):
        U = reference_unitary(GENERATOR, t)
        for rho in (bell_state(), random_density()):
            want = U @ rho @ U.conj().T
            got = evolve_noisy_stack(rho, GENERATOR, QUIET, [t])[0]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


def test_noiseless_evolution_degenerate_fallback():
    # E = 0: degenerate spectrum, no analytic projectors; still unitary
    free = DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=0.0)
    rho = bell_state()
    out = evolve_noisy_stack(rho, hamiltonian(free), QUIET, [1.3])[0]
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert float(np.trace(out @ out).real) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_preserves_purity():
    rho = bell_state()
    out = evolve_noisy_stack(rho, GENERATOR, QUIET, [5.0])[0]
    assert float(np.trace(out @ out).real) == pytest.approx(1.0, abs=1e-10)


def test_noisy_reduces_to_noiseless_at_zero_rate():
    # only a positive rate moves the state off the unitary orbit
    for t in (0.5, 3.0):
        rho = random_density()
        U = reference_unitary(GENERATOR, t)
        np.testing.assert_allclose(evolve_noisy_stack(rho, GENERATOR, QUIET, [t])[0],
                                   U @ rho @ U.conj().T, rtol=0, atol=1e-12)
        noisy = evolve_noisy_stack(rho, GENERATOR, 0.5, [t])[0]
        assert np.max(np.abs(noisy - U @ rho @ U.conj().T)) > 1e-3


def test_noisy_at_time_zero_is_identity():
    rho = random_density()
    np.testing.assert_allclose(evolve_noisy_stack(rho, GENERATOR, 0.9, [0.0])[0],
                               rho, rtol=0, atol=1e-14)


def test_noisy_generator_at_time_zero():
    # d rho/dt at 0 = -i [H, rho0] + (d gamma^n / dt) o rho0, with
    # d gamma^n / dt = -n Gamma / 2 at t = 0 for the n-th coherence order
    rate, dt = 0.8, 1e-6
    rho = random_density()
    H = GENERATOR
    flips = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]])
    want = -1j * (H @ rho - rho @ H) - 0.5 * rate * flips * rho
    step = evolve_noisy_stack(rho, H, rate, [dt])[0]
    np.testing.assert_allclose((step - rho) / dt, want, rtol=0, atol=1e-5)


def test_noisy_composition_order():
    """Channel first, rotation second; the reversed order differs."""
    t = 1.7
    rho0 = bell_state()
    U = reference_unitary(GENERATOR, t)
    ks = build_kraus_set(0.5, [t])
    want = U @ apply_channel(rho0, ks)[0] @ U.conj().T
    got = evolve_noisy_stack(rho0, GENERATOR, 0.5, [t])[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    reversed_order = apply_channel(U @ rho0 @ U.conj().T, ks)[0]
    assert np.max(np.abs(got - reversed_order)) > 1e-3


def test_noisy_rejects_negative_time():
    # H = 0 is test_dephasing_mask_rejects_negative_time's
    with pytest.raises(ValueError, match="forward in time"):
        evolve_noisy_stack(bell_state(), GENERATOR, 0.5, [0.0, 1.0, -0.01])


def test_noisy_rejects_bad_times_and_states():
    rho = bell_state()
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="time must be finite"):
            evolve_noisy_stack(rho, GENERATOR, 0.5, [0.5, bad])
    for times in (0.5, [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="1-D"):
            evolve_noisy_stack(rho, GENERATOR, 0.5, times)
    with pytest.raises(ValueError, match="4x4"):
        evolve_noisy_stack(np.array([rho, rho]), GENERATOR, 0.5, [0.5, 1.0])
    with pytest.raises(ValueError, match="4x4 evolution generator"):
        evolve_noisy_stack(rho, np.array([GENERATOR, GENERATOR]), 0.5, [0.5, 1.0])


@pytest.mark.parametrize("corrupt, message", [
    (lambda H: H + np.triu(np.ones((4, 4)), 1), "Hermitian"),
    (lambda H: np.where(np.eye(4) > 0, np.nan, H), "finite"),
    (lambda H: np.where(np.eye(4) > 0, np.inf, H), "finite"),
])
def test_noisy_refuses_a_bad_generator(corrupt, message):
    # LAPACK cannot converge on non-finite entries; they are refused up front
    with pytest.raises(ValueError, match=f"evolution generator .*{message}"):
        evolve_noisy_stack(bell_state(), corrupt(GENERATOR), 0.5, [1.0])


@pytest.mark.parametrize("what, call", [
    ("initial state", lambda rho: evolve_noisy_stack(rho, GENERATOR, 0.5, [0.0, 1.0])),
    ("state", lambda rho: apply_channel(rho, build_kraus_set(0.5, [1.0]))),
], ids=["evolve_noisy_stack", "apply_channel"])
@pytest.mark.parametrize("corrupt, message", [
    (lambda rho: np.where(np.eye(4) > 0, np.inf, rho), "entries must be finite"),
    (lambda rho: np.where(np.eye(4) > 0, np.nan, rho), "entries must be finite"),
    (lambda rho: rho + 0.3 * np.eye(4, k=1), "must be Hermitian"),
], ids=["inf", "nan", "not-Hermitian"])
def test_a_bad_state_is_refused(what, call, corrupt, message):
    # refused before any arithmetic, so no numpy warning (an error here) shows
    with pytest.raises(ValueError, match=f"^{what} {message}$"):
        call(corrupt(random_density()))


def test_noisy_refuses_the_first_time_whose_phases_overflow():
    # |lambda| <= 2.62 at PARAMS: lambda t is finite at t = 5e307 and
    # overflows at 1e308, which refuses before the negative time after it
    refusal = check_stack("evolve_noisy_stack", (bell_state(), GENERATOR, QUIET),
                          [1.0, 5e307, 1e308, -0.01])
    assert str(refusal) == "phase of exp(-i H t) overflows at t = 1e+308"


def test_noisy_refuses_an_infinite_eigenvalue_at_t_0(monkeypatch):
    eigh = np.linalg.eigh

    def overflowing(H):
        lam, V = eigh(H)
        return np.append(lam[:-1], np.inf), V

    monkeypatch.setattr(np.linalg, "eigh", overflowing)
    with pytest.raises(ValueError, match=r"^phase of exp\(-i H t\) overflows at t = 0$"):
        evolve_noisy_stack(bell_state(), GENERATOR, QUIET, [0.0, 1.0])


def test_noisy_long_time_coherence_floor():
    # gamma factor shrinks but never reaches zero at finite time
    rho = bell_state()
    out = evolve_noisy_stack(rho, GENERATOR, 0.5, [20.0])[0]
    assert abs(np.trace(out).real - 1.0) < 1e-12
    pur = float(np.trace(out @ out).real)
    assert 0.25 - 1e-12 <= pur <= 1.0


def test_noisy_at_a_huge_rate_matches_kraus_without_a_warning():
    # -rate * t overflows to -inf at t = 20, in Python floats as in
    # build_kraus_set, so the decay is 0 with no numpy overflow warning
    rate = 1e308
    rho0 = random_density()
    times = [0.0, 20.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evolve_noisy_stack(rho0, GENERATOR, rate, times)
        channel = apply_channel(rho0, build_kraus_set(rate, times))
    np.testing.assert_array_equal(channel[0], rho0)
    np.testing.assert_allclose(channel[1], np.diag(np.diag(rho0)), rtol=0, atol=1e-15)
    for t, out, want in zip(times, got, channel):
        U = reference_unitary(GENERATOR, t)
        np.testing.assert_allclose(out, U @ want @ U.conj().T, rtol=0, atol=1e-12)
