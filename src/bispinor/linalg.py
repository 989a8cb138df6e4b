"""Dense complex linear algebra for matrices up to 4x4.

Everything the rest of the package needs is here: Kronecker products on
qubit factors, the LAPACK Hermitian eigensolver with a fixed eigenvector
phase convention, partial transposition, the closed-form top eigenvalue
of real symmetric 3x3 matrices and spectral evolution operators.
Matrices are plain complex numpy arrays; partial transposition also
takes (B, 4, 4) stacks, one matrix per trajectory sample, the top
eigenvalue takes (B, 3, 3) stacks, and the evolution operator takes a
1-D array of times. All operations are pure functions and never mutate
their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(M, dims=(2, 3, 4), stacked: bool = False) -> np.ndarray:
    """Complex array of a square matrix, or of a (B, n, n) stack, shape-checked."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != (3 if stacked else 2) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix{' stack' if stacked else ''}, "
                         f"got shape {A.shape}")
    if A.shape[-1] not in dims:
        raise ValueError(f"unsupported dimension {A.shape[-1]}, expected one of {dims}")
    return A


def _require_hermitian(A, what: str) -> None:
    """The package's one Hermiticity check, on a matrix or every matrix of a stack.

    Entries must be finite and |A - A^dag| at most 1e-12 * max(1, max|A_ij|)
    entrywise, so a unit-trace state (entries of magnitude <= 1) is held to
    an absolute 1e-12. Raises ValueError naming `what`.
    """
    # LAPACK cannot converge on non-finite entries, and NaN passes the
    # residual test below, so they are refused first
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{what} entries must be finite")
    scale = np.maximum(1.0, np.max(np.abs(A), axis=(-2, -1)))
    residual = np.max(np.abs(A - np.swapaxes(A.conj(), -1, -2)), axis=(-2, -1))
    if np.any(residual > 1e-12 * scale):
        raise ValueError(f"{what} must be Hermitian")


def tensor_product(A, B) -> np.ndarray:
    """Kronecker product of two 2x2 matrices in basis order |00>,|01>,|10>,|11>.

    Parameters
    ----------
    A, B : 2x2 array_like
        Factors acting on qubit 1 and qubit 2 respectively.

    Returns
    -------
    numpy.ndarray
        The 4x4 product with (A (x) B)[2i+k, 2j+l] = A[i,j] B[k,l].
    """
    A = _as_square(A, dims=(2,))
    B = _as_square(B, dims=(2,))
    # np.kron's elementwise products, without its generic-shape overhead
    return (A[:, None, :, None] * B[None, :, None, :]).reshape(4, 4)


def hermitian_eigensystem(H) -> EigenSystem:
    """Diagonalize a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are returned ascending; each eigenvector's phase is fixed
    by making its largest-magnitude component real and positive (ties
    broken by lowest index) so results are reproducible.

    Parameters
    ----------
    H : array_like, dim in {2, 3, 4}
        Hermitian input with finite entries.

    Returns
    -------
    EigenSystem

    Raises
    ------
    ValueError
        If the input is not finite or not Hermitian.
    """
    A = _as_square(H)
    _require_hermitian(A, "eigensystem input")
    lam, V = np.linalg.eigh(A)
    piv = V[np.argmax(np.abs(V), axis=0), np.arange(A.shape[0])]  # first maximal index on ties
    return EigenSystem(eigenvalues=lam, eigenvectors=V * (np.conj(piv) / np.abs(piv)))


def partial_transpose(rho, subsystem: int) -> np.ndarray:
    """Transpose one qubit factor of a 4x4 two-qubit operator.

    Parameters
    ----------
    rho : array_like, shape (4, 4) or (B, 4, 4)
        One operator, or a stack transposed matrix by matrix.
    subsystem : int
        1 transposes the first qubit's indices, 2 the second's.

    Returns
    -------
    numpy.ndarray
        Entry permutation only, so trace and Hermiticity survive exactly;
        applying the same transpose twice returns the input.
    """
    A = np.asarray(rho)
    A = _as_square(A, dims=(4,), stacked=A.ndim == 3)
    lead = A.shape[:-2]
    # indices (..., i, k, j, l): row qubits, then column qubits
    blocks = A.reshape(lead + (2, 2, 2, 2))
    if subsystem == 1:
        out = np.swapaxes(blocks, -4, -2)
    elif subsystem == 2:
        out = np.swapaxes(blocks, -3, -1)
    else:
        raise ValueError("subsystem must be 1 or 2")
    return out.reshape(lead + (4, 4)).copy()


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
    with np.errstate(invalid="ignore", divide="ignore"):
        # the entries of (K - qI) / p; nan where p = 0, where any phi gives q
        b0, b1, b2, b10, b20, b21 = (x / p for x in (d0, d1, d2, k10, k20, k21))
    r = 0.5 * (b0 * (b1 * b2 - b21 * b21) - b10 * (b10 * b2 - b21 * b20)
               + b20 * (b10 * b21 - b1 * b20))
    phi = np.arccos(np.clip(np.nan_to_num(r), -1.0, 1.0)) / 3.0
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


def evolution_operator(H, times) -> np.ndarray:
    """U(t) = exp(-i H t) assembled spectrally from the Hermitian eigensystem.

    Parameters
    ----------
    H : array_like
        Hermitian generator.
    times : float or 1-D array_like
        Elapsed time(s); U(0) is the identity and U(t) U(-t) = I.

    Returns
    -------
    numpy.ndarray
        One n x n operator for a scalar time, a (B, n, n) stack for B times.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        raise ValueError("time must be finite")
    es = hermitian_eigensystem(H)
    phases = np.exp(-1j * np.multiply.outer(times, es.eigenvalues))
    return (es.eigenvectors * phases[..., None, :]) @ es.eigenvectors.conj().T
