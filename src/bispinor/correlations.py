"""Two-qubit correlation measures on 4x4 states.

Negativity (trace norm of the partial transpose minus one), geometric
discord for either measured side via the Bloch/Fano decomposition, and
purity. Both measures are clamped at 1e-12 so CSV output never carries
negative zeros.

Every measure is evaluated on a (B, 4, 4) stack of states at once:
batched LAPACK eigenvalues of the states and their partial transposes,
one contraction against the 15 Pauli products for the Fano data, and a
batched 3x3 eigenvalue solve per discord side. The single-state functions
evaluate a one-state stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (IDENTITY_2, PAULI, partial_transpose, tensor_product,
                     trace_norm_hermitian)

CLAMP_TOL = 1e-12

_AXES = ("x", "y", "z")
#: the 15 Fano basis operators: s_i (x) I, then I (x) s_j, then s_i (x) s_j
#: with j running fastest
_FANO_BASIS = np.array(
    [tensor_product(PAULI[a], IDENTITY_2) for a in _AXES]
    + [tensor_product(IDENTITY_2, PAULI[b]) for b in _AXES]
    + [tensor_product(PAULI[a], PAULI[b]) for a in _AXES for b in _AXES]
)


@dataclass(frozen=True)
class FanoData:
    """Bloch vectors of each qubit and the 3x3 correlation matrix.

    Stacked data carry a leading axis of length B on each field.
    """

    a1: np.ndarray
    a2: np.ndarray
    T: np.ndarray


@dataclass(frozen=True)
class CorrelationSample:
    """One trajectory point: measures plus numerical diagnostics."""

    t: float
    negativity: float
    discord_1: float
    discord_2: float
    purity: float
    min_eigenvalue: float
    trace_deviation: float


def _state_stack(rho, stacked: bool) -> np.ndarray:
    """Validated (B, 4, 4) stack: finite and Hermitian to 1e-10 state by state.

    A single 4x4 state (stacked=False) becomes a one-state stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != (3 if stacked else 2) or rho.shape[-2:] != (4, 4):
        want = "a (B, 4, 4) stack" if stacked else "a 4x4 state"
        raise ValueError(f"expected {want}, got shape {rho.shape}")
    stack = rho if stacked else rho[None]
    if not np.all(np.isfinite(stack)):
        raise ValueError("state entries must be finite")
    residual = np.max(np.abs(stack - np.swapaxes(stack.conj(), 1, 2)),
                      axis=(1, 2), initial=0.0)
    if np.any(residual > 1e-10):
        raise ValueError("state must be Hermitian")
    return stack


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) < CLAMP_TOL, 0.0, values)


def _fano_stack(stack: np.ndarray) -> FanoData:
    # Tr[rho P] for every state and every basis operator P in one contraction
    traces = np.einsum("bij,pji->bp", stack, _FANO_BASIS)
    worst_imag = float(np.max(np.abs(traces.imag), initial=0.0))
    if worst_imag > 1e-10:
        raise ValueError(f"Pauli trace has imaginary part {worst_imag:g}")
    real = traces.real
    return FanoData(a1=real[:, 0:3], a2=real[:, 3:6], T=real[:, 6:].reshape(-1, 3, 3))


def _negativity_stack(stack: np.ndarray) -> np.ndarray:
    return _clamp(trace_norm_hermitian(partial_transpose(stack, 1)) - 1.0)


def _discord_stack(f: FanoData, side: int) -> np.ndarray:
    a = f.a1 if side == 1 else f.a2
    T, Tt = f.T, np.swapaxes(f.T, 1, 2)
    gram = T @ Tt if side == 1 else Tt @ T
    K = a[:, :, None] * a[:, None, :] + gram
    k_max = np.linalg.eigvalsh(K)[:, -1]
    return _clamp(0.25 * (np.sum(a * a, axis=1) + np.sum(T * T, axis=(1, 2)) - k_max))


def _purity_stack(stack: np.ndarray) -> np.ndarray:
    return np.trace(stack @ stack, axis1=1, axis2=2).real


def fano_decompose(rho) -> FanoData:
    """Expansion coefficients over the local Pauli basis.

    a1_i = Tr[rho (s_i (x) I)], a2_j = Tr[rho (I (x) s_j)],
    T_ij = Tr[rho (s_i (x) s_j)]. Imaginary parts of the traces are
    checked small (< 1e-10) and discarded.
    """
    f = _fano_stack(_state_stack(rho, stacked=False))
    return FanoData(a1=f.a1[0], a2=f.a2[0], T=f.T[0])


def negativity(rho) -> float:
    """Trace norm of the qubit-1 partial transpose, minus one.

    Side choice is immaterial for two qubits (the two partial transposes
    are related by a full transpose). Values within 1e-12 of zero clamp
    to exactly 0.
    """
    return float(_negativity_stack(_state_stack(rho, stacked=False))[0])


def geometric_discord(rho, side: int) -> float:
    """Distance-based discord of the measured qubit (side 1 or 2).

    D = (||a_side||^2 + ||T||_F^2 - k_max) / 4 where k_max is the top
    eigenvalue of a1 a1^T + T T^T for side 1 and of a2 a2^T + T^T T for
    side 2. The transposed Gram matrix on side 2 keeps the measure
    invariant under local unitaries, which the naive T T^T would break.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    return float(_discord_stack(_fano_stack(_state_stack(rho, stacked=False)), side)[0])


def purity(rho) -> float:
    """Tr[rho^2], between 1/4 (maximally mixed) and 1 (pure)."""
    return float(_purity_stack(np.asarray(rho, dtype=complex)[None])[0])


def sample_correlations_stack(rhos, times) -> list:
    """All measures and diagnostics of a (B, 4, 4) stack of trajectory states.

    Returns one CorrelationSample per state, in stack order, with t taken
    from the matching entry of the length-B array times.
    """
    stack = _state_stack(rhos, stacked=True)
    times = np.asarray(times, dtype=float)
    if times.shape != stack.shape[:1]:
        raise ValueError(f"{stack.shape[0]} states but times of shape {times.shape}")
    f = _fano_stack(stack)
    columns = (
        times,
        _negativity_stack(stack),
        _discord_stack(f, 1),
        _discord_stack(f, 2),
        _purity_stack(stack),
        np.linalg.eigvalsh(stack)[:, 0],
        np.trace(stack, axis1=1, axis2=2).real - 1.0,
    )
    return [CorrelationSample(*row) for row in zip(*(c.tolist() for c in columns))]


def sample_correlations(rho, t: float) -> CorrelationSample:
    """All measures and diagnostics of one trajectory state."""
    return sample_correlations_stack(_state_stack(rho, stacked=False), [t])[0]
