import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.linalg import (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _require_hermitian,
                             partial_transpose, top_eigenvalue_3x3)
from stack_contract import check_case

RNG = np.random.default_rng(20260814)


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


def test_partial_transpose_is_an_involution():
    rho = np.array([random_density() for _ in range(3)])
    for side in (1, 2):
        pt = partial_transpose(rho, side)
        np.testing.assert_allclose(partial_transpose(pt, side), rho,
                                   rtol=0, atol=0)
        traces = np.trace(pt, axis1=1, axis2=2) - np.trace(rho, axis1=1, axis2=2)
        assert np.max(np.abs(traces)) < 1e-14


def test_partial_transpose_on_product_state():
    a = random_density(2)[:2, :2]
    a = a / np.trace(a).real
    b = random_density(2)[:2, :2]
    b = b / np.trace(b).real
    rho = np.kron(a, b)[None]
    np.testing.assert_allclose(partial_transpose(rho, 1)[0], np.kron(a.T, b),
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(partial_transpose(rho, 2)[0], np.kron(a, b.T),
                               rtol=0, atol=1e-15)


def test_partial_transpose_bell_state():
    """PT of the maximally entangled state has eigenvalue -1/2."""
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(vec, vec.conj())
    lam = np.linalg.eigvalsh(partial_transpose(rho[None], 1)[0])
    np.testing.assert_allclose(lam, [-0.5, 0.5, 0.5, 0.5], rtol=0, atol=1e-12)


def test_partial_transpose_rejects_bad_subsystem():
    with pytest.raises(ValueError):
        partial_transpose(np.eye(4)[None], 3)


def test_partial_transpose_takes_stacks_only():
    # one matrix is a one-row stack
    for shape in ((4, 4), (2, 2, 2), (1, 4, 3), (1, 2, 4, 4)):
        with pytest.raises(ValueError, match=r"expected a \(B, 4, 4\) stack"):
            partial_transpose(np.zeros(shape), 1)


def test_require_hermitian_on_a_stack():
    stack = np.array([random_density() for _ in range(5)])
    _require_hermitian(stack, "state")
    # a 1e-9 fault at any of the 16 positions of one matrix is caught, on
    # or below the diagonal too, where the residual is not read
    for i in range(4):
        for j in range(4):
            faults = [1e-9j] + ([1e-9] if i != j else [])
            for fault in faults:
                bad = stack.copy()
                bad[2, i, j] += fault
                with pytest.raises(ValueError, match=r"^state must be Hermitian$"):
                    _require_hermitian(bad, "state")
            bad = stack.copy()
            bad[2, i, j] = np.nan
            with pytest.raises(ValueError, match=r"^state entries must be finite$"):
                _require_hermitian(bad, "state")
    # bad keeps its NaN in matrix 2: the first refused matrix refuses the
    # stack, with its own first failing check (finite, then Hermitian)
    bad[1, 0, 1] += 1e-9
    with pytest.raises(ValueError, match=r"^state must be Hermitian$"):
        _require_hermitian(bad, "state")
    bad[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match=r"^state entries must be finite$"):
        _require_hermitian(bad, "state")


def test_require_hermitian_scales_with_the_largest_entry():
    # entries above 1 in magnitude: the tolerance is 1e-12 * max|A_ij| per matrix
    stack = 300.0 * np.array([random_density() for _ in range(3)])
    scale = np.max(np.abs(stack[1]))
    assert scale > 1.0
    _require_hermitian(stack, "generator")
    near = stack.copy()
    near[1, 0, 3] += 0.5e-12 * scale
    _require_hermitian(near, "generator")
    far = stack.copy()
    far[1, 3, 0] += 2e-12 * scale
    with pytest.raises(ValueError, match=r"^generator must be Hermitian$"):
        _require_hermitian(far, "generator")


# closed form against LAPACK: |error| <= TOP_TOL * max(1, max|K_ij|), fixed
# before the first run
TOP_TOL = 1e-13


def assert_top_eigenvalue_matches_lapack(K):
    K = np.asarray(K, dtype=float)
    got = top_eigenvalue_3x3(K)
    want = np.linalg.eigvalsh(K)[:, -1]
    bound = TOP_TOL * np.maximum(1.0, np.max(np.abs(K), axis=(1, 2)))
    worst = int(np.argmax(np.abs(got - want) / bound))
    assert abs(got[worst] - want[worst]) <= bound[worst], (K[worst], got[worst], want[worst])


def rotated(eigenvalues, count, seed):
    """count symmetric matrices Q diag(eigenvalues) Q^T with seeded random rotations Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(count, 3, 3)))
    return (Q * np.asarray(eigenvalues, dtype=float)) @ np.swapaxes(Q, 1, 2)


@settings(max_examples=200)
@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=9, max_size=9),
       st.floats(0.0, 4.0, allow_nan=False))
def test_top_eigenvalue_matches_lapack_on_psd(entries, scale):
    G = scale * np.array(entries).reshape(3, 3)
    assert_top_eigenvalue_matches_lapack((G @ G.T)[None])


@pytest.mark.parametrize("K", [
    np.zeros((3, 3)),
    0.7 * np.eye(3),
    np.outer([1.0, -2.0, 0.5], [1.0, -2.0, 0.5]),    # rank one
    np.diag([0.5, 1.0, 1.0]),                        # doubled top eigenvalue
    np.diag([1.0, 0.2, 0.2]),                        # doubled bottom eigenvalue
], ids=["zero", "multiple of identity", "rank one", "doubled top", "doubled bottom"])
def test_top_eigenvalue_special_matrices(K):
    assert_top_eigenvalue_matches_lapack(K[None])


@pytest.mark.parametrize("eigenvalues", [
    (1.0, 1.0, 0.3), (1.0, 1.0 - 1e-9, 0.2), (1.0, 0.3, 0.3), (1.0, 0.0, 0.0),
    (2.0, 2.0, 0.0), (1.0, 1.0 - 1e-9, 1.0 - 2e-9), (0.9, 0.5, 0.1),
], ids=str)
def test_top_eigenvalue_on_rotated_spectra(eigenvalues):
    # near r = -1 the plain trigonometric form is off by about 1e-8 here
    assert_top_eigenvalue_matches_lapack(rotated(eigenvalues, 2000, seed=5))


def test_stacked_linalg_keeps_the_stack_contract():
    check_case("partial_transpose")
    check_case("top_eigenvalue_3x3")


def test_top_eigenvalue_rejects_bad_shapes():
    for bad in (np.eye(3), np.zeros((2, 4, 4))):
        with pytest.raises(ValueError):
            top_eigenvalue_3x3(bad)

