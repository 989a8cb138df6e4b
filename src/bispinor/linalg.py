"""Dense complex linear algebra for matrices up to 4x4.

The Pauli matrices, partial transposition, the closed-form top
eigenvalue of real symmetric 3x3 matrices, the package's one Hermiticity
check and its one first-refusal rule for stacks (_first_refusal);
products of qubit factors are numpy's kron.
Eigenvectors are taken in one place only, the ``eigh`` of the
Hamiltonian in noise.evolve_noisy_stack.
Matrices are plain complex numpy arrays. Partial transposition takes
(B, 4, 4) stacks only, one matrix per trajectory sample (one matrix is a
one-row stack); the Hermiticity check takes a matrix or a stack, and the
top eigenvalue takes (B, 3, 3) stacks (both discord sides of a block in
one call). The Hermiticity residual is read on the ten entries on and
above the diagonal, and the top eigenvalue needs no floating-point error
guard: a matrix with p = 0 is divided by 1. All operations are pure
functions and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

#: the ten entries (i, j) with i <= j of a 4x4 matrix, as index arrays
_UPPER_4 = np.triu_indices(4)


def _first_refusal(checks):
    """The package's one first-refusal rule: the message that refuses a stack, or None.

    checks holds (ok, message) pairs in check order: ok has one boolean
    per row, stated as the condition that must hold (so a NaN fails it),
    and message(k) is the error for row k. The first row failing any
    check refuses the stack, by the first check it fails, so the message
    is the one a one-row call on that row gives.
    """
    refused = np.flatnonzero(~np.logical_and.reduce([ok for ok, _ in checks]))
    if not refused.size:
        return None
    k = int(refused[0])
    return next(message(k) for ok, message in checks if not ok[k])


def _hermitian_checks(A, what: str) -> tuple:
    """The package's one Hermiticity check, as _first_refusal pairs with one row per matrix.

    Entries must be finite and |A - A^dag| at most 1e-12 * max(1, max|A_ij|)
    entrywise, so a unit-trace state (entries of magnitude <= 1) is held to
    an absolute 1e-12. The residual is read on and above the diagonal
    only: |A_ij - conj(A_ji)| is the same number at (j, i).
    """
    # LAPACK cannot converge on non-finite entries, so they are checked first
    finite = np.all(np.isfinite(A), axis=(-2, -1)).ravel()
    scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
    rows, cols = _UPPER_4
    with np.errstate(invalid="ignore"):  # inf - inf in a refused matrix
        residual = np.max(np.abs(A[..., rows, cols] - A[..., cols, rows].conj()), axis=-1)
    return ((finite, lambda _: f"{what} entries must be finite"),
            ((residual <= 1e-12 * scale).ravel(), lambda _: f"{what} must be Hermitian"))


def _require_hermitian(A, what: str) -> None:
    """Raise ValueError naming `what` if _hermitian_checks refuses A."""
    if A.shape[-2:] != (4, 4):
        raise ValueError(f"{what}: expected 4x4 matrices, got shape {A.shape}")
    message = _first_refusal(_hermitian_checks(A, what))
    if message is not None:
        raise ValueError(message)


def partial_transpose(rho, subsystem: int) -> np.ndarray:
    """Transpose one qubit factor of every two-qubit operator of a stack.

    Parameters
    ----------
    rho : array_like, shape (B, 4, 4)
        A stack of operators, transposed matrix by matrix.
    subsystem : int
        1 transposes the first qubit's indices, 2 the second's.

    Returns
    -------
    numpy.ndarray
        Entry permutation only, so trace and Hermiticity survive exactly;
        applying the same transpose twice returns the input.
    """
    A = np.asarray(rho, dtype=complex)
    if A.ndim != 3 or A.shape[1:] != (4, 4):
        raise ValueError(f"expected a (B, 4, 4) stack, got shape {A.shape}")
    if subsystem not in (1, 2):
        raise ValueError("subsystem must be 1 or 2")
    # indices (..., i, k, j, l): row qubits, then column qubits
    blocks = A.shape[:-2] + (2, 2, 2, 2)
    axes = (-4, -2) if subsystem == 1 else (-3, -1)
    # written through a view of one fresh C-ordered array: a reshape of the
    # swapped view would copy, and a further copy would double the traffic
    out = np.empty(A.shape, dtype=complex)
    out.reshape(blocks)[...] = np.swapaxes(A.reshape(blocks), *axes)
    return out


def top_eigenvalue_3x3(K) -> np.ndarray:
    """Largest eigenvalue of every real symmetric 3x3 matrix of a (B, 3, 3) stack.

    Closed form, without LAPACK, reading the lower triangle as LAPACK's
    eigvalsh does. With q = tr K / 3, p = sqrt(||K - qI||_F^2 / 6) and
    r = det(K - qI) / (2 p^3), the eigenvalues are
    q + 2p cos(phi + 2 pi k / 3) with phi = arccos(r) / 3 in [0, pi/3],
    largest for k = 0 (Smith, Commun. ACM 4, 168 (1961)).

    That form is well conditioned for r >= 0. Towards r = -1 the top two
    eigenvalues meet, and an error e in r moves the top one by about
    p sqrt(e) (1e-8 on unit matrices). For r < 0 the smallest eigenvalue
    (k = 1) is well separated instead, so its eigenvector u is taken from
    the adjugate of K - lambda_min I (rank one, u u^T up to scale), and
    the top eigenvalue is that of K restricted to the plane orthogonal to
    u, whose 2x2 closed form has no cancellation. K = qI (p = 0) gives q.
    Either way the result is within a few units in the last place of
    max|K_ij|.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 3 or K.shape[1:] != (3, 3):
        raise ValueError(f"expected a (B, 3, 3) stack, got shape {K.shape}")
    q = np.trace(K, axis1=1, axis2=2) / 3.0
    d0, d1, d2 = K[:, 0, 0] - q, K[:, 1, 1] - q, K[:, 2, 2] - q
    k10, k20, k21 = K[:, 1, 0], K[:, 2, 0], K[:, 2, 1]
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2
                 + 2.0 * (k10 * k10 + k20 * k20 + k21 * k21)) / 6.0)
    # the entries of (K - qI) / p. Where p = 0 they are 0, or so small that
    # their squares underflow, and are divided by 1 instead: r is then 0 and
    # the result q
    scale = np.where(p == 0.0, 1.0, p)
    b0, b1, b2, b10, b20, b21 = (x / scale for x in (d0, d1, d2, k10, k20, k21))
    r = 0.5 * (b0 * (b1 * b2 - b21 * b21) - b10 * (b10 * b2 - b21 * b20)
               + b20 * (b10 * b21 - b1 * b20))
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)

    low = np.flatnonzero(r < 0.0)
    # S = (K - lambda_min I) / p on the r < 0 rows, and its adjugate
    shift = 2.0 * np.cos(phi[low] + 2.0 * np.pi / 3.0)
    s0, s1, s2 = b0[low] - shift, b1[low] - shift, b2[low] - shift
    s10, s20, s21 = b10[low], b20[low], b21[low]
    a0, a1, a2 = s1 * s2 - s21 * s21, s0 * s2 - s20 * s20, s0 * s1 - s10 * s10
    a10, a20, a21 = s20 * s21 - s10 * s2, s10 * s21 - s20 * s1, s10 * s20 - s0 * s21
    adj = np.stack([[a0, a10, a20], [a10, a1, a21], [a20, a21, a2]])
    # u: the adjugate's column with the largest diagonal entry, normalized
    best = np.argmax(np.abs(np.stack([a0, a1, a2])), axis=0)
    u = adj[best, :, np.arange(low.size)]
    x, y, z = (u / np.sqrt(np.sum(u * u, axis=1))[:, None]).T
    # an orthonormal basis of the plane orthogonal to u (Duff et al.,
    # J. Comput. Graph. Tech. 6(1), 1 (2017)), as the columns of E
    sign = np.where(z < 0.0, -1.0, 1.0)
    a = -1.0 / (sign + z)
    c = x * y * a
    E = np.stack([np.stack([1.0 + sign * x * x * a, sign * c, -sign * x], axis=1),
                  np.stack([c, sign + y * y * a, -y], axis=1)], axis=2)
    C = np.swapaxes(E, 1, 2) @ K[low] @ E
    top[low] = (0.5 * (C[:, 0, 0] + C[:, 1, 1])
                + np.hypot(0.5 * (C[:, 0, 0] - C[:, 1, 1]), C[:, 1, 0]))
    return top

