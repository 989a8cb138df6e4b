import numpy as np
import pytest

from bispinor.linalg import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z,
                             evolution_operator, hermitian_eigensystem,
                             partial_transpose, tensor_product,
                             trace_norm_hermitian)

RNG = np.random.default_rng(20260814)


def random_hermitian(n):
    G = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return G + G.conj().T


def random_density(n=4):
    G = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def test_pauli_algebra():
    assert np.allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z)
    assert np.allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X)
    assert np.allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y)
    for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        assert np.allclose(s @ s, IDENTITY_2)
        assert np.allclose(s, s.conj().T)


def test_tensor_product_index_convention():
    # (A (x) B)[2i+k, 2j+l] = A[i,j] B[k,l]
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[5.0, 6.0], [7.0, 8.0]])
    T = tensor_product(A, B)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for ell in range(2):
                    assert T[2 * i + k, 2 * j + ell] == A[i, j] * B[k, ell]


def test_tensor_product_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        tensor_product(np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        tensor_product(np.ones((2, 3)), np.eye(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_eigensystem_matches_numpy(n):
    """Eigenvalues and the reconstruction both agree with numpy.linalg."""
    for _ in range(50):
        H = random_hermitian(n)
        es = hermitian_eigensystem(H)
        np.testing.assert_allclose(es.eigenvalues, np.linalg.eigvalsh(H),
                                   rtol=0, atol=1e-10)
        rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.conj().T
        np.testing.assert_allclose(rebuilt, H, rtol=0, atol=1e-10)


def test_eigensystem_columns_orthonormal():
    H = random_hermitian(4)
    V = hermitian_eigensystem(H).eigenvectors
    np.testing.assert_allclose(V.conj().T @ V, np.eye(4), rtol=0, atol=1e-12)


def test_eigensystem_order_and_phase():
    H = random_hermitian(4)
    es = hermitian_eigensystem(H)
    assert np.all(np.diff(es.eigenvalues) >= -1e-14)
    for k in range(4):
        col = es.eigenvectors[:, k]
        piv = col[int(np.argmax(np.abs(col)))]
        assert abs(piv.imag) < 1e-12 and piv.real > 0


def test_eigensystem_deterministic():
    H = random_hermitian(4)
    a = hermitian_eigensystem(H)
    b = hermitian_eigensystem(H)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigensystem_diagonal_input():
    # already diagonal: the spectrum comes back sorted ascending and the
    # eigenvectors are exactly the matching unit vectors, phase-fixed to +1
    H = np.diag([3.0, -1.0, 2.0, -1.0]).astype(complex)
    es = hermitian_eigensystem(H)
    np.testing.assert_array_equal(es.eigenvalues, [-1.0, -1.0, 2.0, 3.0])
    V = es.eigenvectors
    assert set(np.unique(V)) == {0.0, 1.0}
    np.testing.assert_array_equal(V.sum(axis=0), np.ones(4))
    np.testing.assert_array_equal(V.sum(axis=1), np.ones(4))
    np.testing.assert_array_equal(V @ np.diag(es.eigenvalues) @ V.conj().T, H)


def test_eigensystem_degenerate_spectrum():
    # projector onto a 2d subspace, rotated; eigenvalues {0, 0, 1, 1}
    Q, _ = np.linalg.qr(RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))
    H = Q @ np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex) @ Q.conj().T
    es = hermitian_eigensystem(H)
    np.testing.assert_allclose(es.eigenvalues, [0.0, 0.0, 1.0, 1.0],
                               rtol=0, atol=1e-12)


def test_eigensystem_input_validation():
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.eye(5))
    with pytest.raises(ValueError):
        hermitian_eigensystem(np.ones((2, 3)))
    # LAPACK cannot converge on non-finite entries; they are refused up front
    for bad in (np.nan, np.inf):
        H = np.eye(4, dtype=complex)
        H[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            hermitian_eigensystem(H)


def test_partial_transpose_is_an_involution():
    rho = random_density()
    for side in (1, 2):
        pt = partial_transpose(rho, side)
        np.testing.assert_allclose(partial_transpose(pt, side), rho,
                                   rtol=0, atol=0)
        assert abs(np.trace(pt) - np.trace(rho)) < 1e-14


def test_partial_transpose_on_product_state():
    a = random_density(2)[:2, :2]
    a = a / np.trace(a).real
    b = random_density(2)[:2, :2]
    b = b / np.trace(b).real
    rho = np.kron(a, b)
    np.testing.assert_allclose(partial_transpose(rho, 1), np.kron(a.T, b),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(partial_transpose(rho, 2), np.kron(a, b.T),
                               rtol=0, atol=1e-15)


def test_partial_transpose_bell_state():
    """PT of the maximally entangled state has eigenvalue -1/2."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(vec, vec.conj())
    lam = hermitian_eigensystem(partial_transpose(rho, 1)).eigenvalues
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-12)


def test_partial_transpose_rejects_bad_subsystem():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4), 3)


def test_trace_norm_known_values():
    assert trace_norm_hermitian(np.diag([1.0, -2.0, 0.5, 0.0])) == pytest.approx(3.5)
    H = random_hermitian(4)
    want = float(np.sum(np.abs(np.linalg.eigvalsh(H))))
    assert trace_norm_hermitian(H) == pytest.approx(want, abs=1e-10)


def test_evolution_operator_properties():
    H = random_hermitian(4)
    np.testing.assert_allclose(evolution_operator(H, 0.0), np.eye(4),
                               rtol=0, atol=1e-12)
    U = evolution_operator(H, 0.73)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(4), rtol=0, atol=1e-12)
    np.testing.assert_allclose(U @ evolution_operator(H, -0.73), np.eye(4),
                               rtol=0, atol=1e-12)


def test_evolution_operator_matches_reference_exponential():
    H = random_hermitian(4)
    t = 1.37
    lam, V = np.linalg.eigh(H)
    want = (V * np.exp(-1j * lam * t)) @ V.conj().T
    np.testing.assert_allclose(evolution_operator(H, t), want, rtol=0, atol=1e-10)


def test_evolution_operator_generator():
    # d/dt at 0: (U(dt) - I)/dt -> -iH
    H = random_hermitian(4)
    dt = 1e-6
    approx = (evolution_operator(H, dt) - np.eye(4)) / dt
    np.testing.assert_allclose(approx, -1j * H, rtol=0, atol=1e-5 * np.max(np.abs(H)) * 10)


def test_evolution_operator_rejects_nonfinite_time():
    with pytest.raises(ValueError):
        evolution_operator(np.eye(4), float("nan"))
