"""Dense complex linear algebra for matrices up to 4x4.

Everything the rest of the package needs is here: Kronecker products on
qubit factors, the LAPACK Hermitian eigensolver with a fixed eigenvector
phase convention, partial transposition, the Hermitian trace norm and
spectral evolution operators. Matrices are plain complex numpy arrays;
partial transposition and the trace norm also take (B, 4, 4) stacks, one
matrix per trajectory sample. All operations are pure functions and never
mutate their inputs.
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
    # LAPACK cannot converge on non-finite entries, and NaN passes the
    # residual test below, so they are refused first
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{what} entries must be finite")
    # relative max-norm test on every matrix of a stack
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


def trace_norm_hermitian(M):
    """Sum of absolute eigenvalues of a Hermitian matrix.

    A (B, n, n) stack gives a length-B array, one norm per matrix; a
    single matrix gives a float.
    """
    A = np.asarray(M)
    A = _as_square(A, stacked=A.ndim == 3)
    _require_hermitian(A, "trace norm input")
    norms = np.sum(np.abs(np.linalg.eigvalsh(A)), axis=-1)
    return norms if A.ndim == 3 else float(norms)


def evolution_operator(H, t: float) -> np.ndarray:
    """U(t) = exp(-i H t) assembled spectrally from the Hermitian eigensystem.

    Parameters
    ----------
    H : array_like
        Hermitian generator.
    t : float
        Elapsed time; U(0) is the identity and U(t) U(-t) = I.
    """
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    es = hermitian_eigensystem(H)
    phases = np.exp(-1j * es.eigenvalues * t)
    return (es.eigenvectors * phases) @ es.eigenvectors.conj().T
