"""Two-qubit correlation measures on 4x4 states.

Negativity (trace norm of the partial transpose minus one), geometric
discord for either measured side via the Bloch/Fano decomposition, and
purity. Both measures are clamped at 1e-12 so CSV output never carries
negative zeros.

Every measure is evaluated on a (B, 4, 4) stack of states at once, with
two LAPACK eigenvalue solves per state: one batched call on the states
and their partial transposes together. The Fano data are one product of
the flattened states with the 15 Pauli products, each discord side's
top eigenvalue has a closed form (linalg.top_eigenvalue_3x3) and the
purity is the sum of |rho_ij|^2. A trajectory stack is measured into the
seven float64 columns named by COLUMNS; the single-state functions
evaluate a one-state stack.
"""

from __future__ import annotations

import numpy as np

from .linalg import (IDENTITY_2, PAULI, _require_hermitian, partial_transpose,
                     tensor_product, top_eigenvalue_3x3)

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
#: Tr[rho P] = sum_ij rho_ij P_ji for every Fano operator P as one product
#: with the row-major flattened state: row 4 i + j, column P holds P_ji
_FANO_TRACE = np.ascontiguousarray(_FANO_BASIS.transpose(0, 2, 1).reshape(15, 16).T)


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
    traces = stack.reshape(-1, 16) @ _FANO_TRACE
    worst_imag = float(np.max(np.abs(traces.imag), initial=0.0))
    if worst_imag > 1e-10:
        raise ValueError(f"Pauli trace has imaginary part {worst_imag:g}")
    real = traces.real
    return real[:, 0:3], real[:, 3:6], real[:, 6:].reshape(-1, 3, 3)


def _spectra(stack: np.ndarray) -> tuple:
    """Ascending eigenvalues of the states and of their qubit-1 partial transposes.

    One LAPACK call on the (2B, 4, 4) concatenation. The partial
    transpose permutes entries, so it is Hermitian whenever the state is.
    """
    eigs = np.linalg.eigvalsh(np.concatenate([stack, partial_transpose(stack, 1)]))
    return eigs[:len(stack)], eigs[len(stack):]


def _negativity_stack(pt_eigs: np.ndarray) -> np.ndarray:
    return _clamp(np.sum(np.abs(pt_eigs), axis=1) - 1.0)


def _discord_stack(fano: tuple, side: int) -> np.ndarray:
    a1, a2, T = fano
    a = a1 if side == 1 else a2
    Tt = np.swapaxes(T, 1, 2)
    gram = T @ Tt if side == 1 else Tt @ T
    k_max = top_eigenvalue_3x3(a[:, :, None] * a[:, None, :] + gram)
    return _clamp(0.25 * (np.sum(a * a, axis=1) + np.sum(T * T, axis=(1, 2)) - k_max))


def _purity_stack(stack: np.ndarray) -> np.ndarray:
    # Tr[rho^2] = sum_ij |rho_ij|^2 for Hermitian rho
    flat = stack.reshape(-1, 16)
    return np.sum(flat.real ** 2 + flat.imag ** 2, axis=1)


def negativity(rho) -> float:
    """Trace norm of the qubit-1 partial transpose, minus one.

    Side choice is immaterial for two qubits (the two partial transposes
    are related by a full transpose). Values within 1e-12 of zero clamp
    to exactly 0.
    """
    stack = _state_stack(rho, stacked=False)
    return float(_negativity_stack(_spectra(stack)[1])[0])


def geometric_discord(rho, side: int) -> float:
    """Distance-based discord of the measured qubit (side 1 or 2).

    D = (||a_side||^2 + ||T||_F^2 - k_max) / 4 where k_max is the top
    eigenvalue of K = a1 a1^T + T T^T for side 1 and of a2 a2^T + T^T T
    for side 2, from the closed form of linalg.top_eigenvalue_3x3 rather
    than a LAPACK solve. The transposed Gram matrix on side 2 keeps the
    measure invariant under local unitaries, which the naive T T^T would
    break.
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
    One batched LAPACK call gives the spectra of the states (for
    min_eigenvalue) and of their partial transposes (for negativity);
    each discord's k_max is the closed-form top eigenvalue of its 3x3 K.
    """
    stack = _state_stack(rhos, stacked=True)
    times = np.asarray(times, dtype=float)
    if times.shape != stack.shape[:1]:
        raise ValueError(f"{stack.shape[0]} states but times of shape {times.shape}")
    fano = _fano_stack(stack)
    state_eigs, pt_eigs = _spectra(stack)
    return dict(zip(COLUMNS, (
        times,
        _negativity_stack(pt_eigs),
        _discord_stack(fano, 1),
        _discord_stack(fano, 2),
        _purity_stack(stack),
        state_eigs[:, 0],
        np.trace(stack, axis1=1, axis2=2).real - 1.0,
    )))
