"""Two-qubit correlation measures on 4x4 states.

Negativity (trace norm of the partial transpose minus one), geometric
discord for either measured side via the Bloch/Fano decomposition, and
purity. Both measures are clamped at 1e-12 so CSV output never carries
negative zeros.

Every measure is evaluated on a (B, 4, 4) stack of states at once:
batched LAPACK eigenvalues of the states and their partial transposes,
one contraction against the 15 Pauli products for the Fano data, and a
batched 3x3 eigenvalue solve per discord side. A trajectory stack is
measured into the seven float64 columns named by COLUMNS; the
single-state functions evaluate a one-state stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import (IDENTITY_2, PAULI, _require_hermitian, partial_transpose,
                     tensor_product, trace_norm_hermitian)

CLAMP_TOL = 1e-12

#: the trajectory columns, in CSV order: the time, the four measures and
#: two numerical diagnostics of each state
COLUMNS = ("t", "negativity", "discord_1", "discord_2", "purity",
           "min_eigenvalue", "trace_deviation")

_AXES = ("x", "y", "z")
#: the 15 Fano basis operators: s_i (x) I, then I (x) s_j, then s_i (x) s_j
#: with j running fastest
_FANO_BASIS = np.array(
    [tensor_product(PAULI[a], IDENTITY_2) for a in _AXES]
    + [tensor_product(IDENTITY_2, PAULI[b]) for b in _AXES]
    + [tensor_product(PAULI[a], PAULI[b]) for a in _AXES for b in _AXES]
)


def _state_stack(rho, stacked: bool) -> np.ndarray:
    """Validated (B, 4, 4) stack: finite and Hermitian (linalg's check) state by state.

    A single 4x4 state (stacked=False) becomes a one-state stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != (3 if stacked else 2) or rho.shape[-2:] != (4, 4):
        want = "a (B, 4, 4) stack" if stacked else "a 4x4 state"
        raise ValueError(f"expected {want}, got shape {rho.shape}")
    stack = rho if stacked else rho[None]
    _require_hermitian(stack, "state")
    return stack


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) < CLAMP_TOL, 0.0, values)


def _fano_stack(stack: np.ndarray) -> tuple:
    """Bloch vectors a1, a2 (B, 3) and correlation matrices T (B, 3, 3).

    a1_i = Tr[rho (s_i (x) I)], a2_j = Tr[rho (I (x) s_j)],
    T_ij = Tr[rho (s_i (x) s_j)]. Imaginary parts of the traces are
    checked small (< 1e-10) and discarded.
    """
    # Tr[rho P] for every state and every basis operator P in one contraction
    traces = np.einsum("bij,pji->bp", stack, _FANO_BASIS)
    worst_imag = float(np.max(np.abs(traces.imag), initial=0.0))
    if worst_imag > 1e-10:
        raise ValueError(f"Pauli trace has imaginary part {worst_imag:g}")
    real = traces.real
    return real[:, 0:3], real[:, 3:6], real[:, 6:].reshape(-1, 3, 3)


def _negativity_stack(stack: np.ndarray) -> np.ndarray:
    return _clamp(trace_norm_hermitian(partial_transpose(stack, 1)) - 1.0)


def _discord_stack(fano: tuple, side: int) -> np.ndarray:
    a1, a2, T = fano
    a = a1 if side == 1 else a2
    Tt = np.swapaxes(T, 1, 2)
    gram = T @ Tt if side == 1 else Tt @ T
    K = a[:, :, None] * a[:, None, :] + gram
    k_max = np.linalg.eigvalsh(K)[:, -1]
    return _clamp(0.25 * (np.sum(a * a, axis=1) + np.sum(T * T, axis=(1, 2)) - k_max))


def _purity_stack(stack: np.ndarray) -> np.ndarray:
    return np.trace(stack @ stack, axis1=1, axis2=2).real


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
    return float(_purity_stack(_state_stack(rho, stacked=False))[0])


def sample_correlations_stack(rhos, times) -> dict:
    """All measures and diagnostics of a (B, 4, 4) stack of trajectory states.

    Returns the seven COLUMNS as length-B float64 arrays, in COLUMNS
    order and in stack order; the t column is the length-B array times.
    """
    stack = _state_stack(rhos, stacked=True)
    times = np.asarray(times, dtype=float)
    if times.shape != stack.shape[:1]:
        raise ValueError(f"{stack.shape[0]} states but times of shape {times.shape}")
    fano = _fano_stack(stack)
    return dict(zip(COLUMNS, (
        times,
        _negativity_stack(stack),
        _discord_stack(fano, 1),
        _discord_stack(fano, 2),
        _purity_stack(stack),
        np.linalg.eigvalsh(stack)[:, 0],
        np.trace(stack, axis1=1, axis2=2).real - 1.0,
    )))
