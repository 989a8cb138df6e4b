"""Two-qubit correlation measures on 4x4 states.

Negativity (trace norm of the partial transpose minus one), geometric
discord for either measured side via the Bloch/Fano decomposition, and
purity. Both measures are clamped at 1e-12 so CSV output never carries
negative zeros.

Every measure is evaluated on a (B, 4, 4) stack of states at once, with
two LAPACK eigenvalue solves per state: one batched call on the states
and their partial transposes together. The Fano data are one product of
the flattened states with the 15 Pauli products, the top eigenvalues of
both discord sides come from one closed-form call on a (2B, 3, 3) stack
(linalg.top_eigenvalue_3x3) and the purity is the sum of |rho_ij|^2. A
trajectory stack, or one state as a one-row stack rho[None], is measured
into the seven float64 columns named by COLUMNS.
"""

from __future__ import annotations

import numpy as np

from .linalg import (IDENTITY_2, PAULI, _first_refusal, _hermitian_checks, partial_transpose,
                     top_eigenvalue_3x3)

CLAMP_TOL = 1e-12

#: the trajectory columns, in CSV order: the time, the four measures and
#: two numerical diagnostics of each state
COLUMNS = ("t", "negativity", "discord_1", "discord_2", "purity",
           "min_eigenvalue", "trace_deviation")

_AXES = ("x", "y", "z")
#: the 15 Fano basis operators: s_i (x) I, then I (x) s_j, then s_i (x) s_j
#: with j running fastest
_FANO_BASIS = np.array(
    [np.kron(PAULI[a], IDENTITY_2) for a in _AXES]
    + [np.kron(IDENTITY_2, PAULI[b]) for b in _AXES]
    + [np.kron(PAULI[a], PAULI[b]) for a in _AXES for b in _AXES]
)
#: Tr[rho P] = sum_ij rho_ij P_ji for every Fano operator P as one product
#: with the row-major flattened state: row 4 i + j, column P holds P_ji
_FANO_TRACE = np.ascontiguousarray(_FANO_BASIS.transpose(0, 2, 1).reshape(15, 16).T)


def _checked_stack(rhos) -> tuple:
    """Validated (B, 4, 4) stack and its Fano data (a1, a2, T).

    Bloch vectors a1_i = Tr[rho (s_i (x) I)] and a2_j = Tr[rho (I (x) s_j)],
    (B, 3), and correlation matrices T_ij = Tr[rho (s_i (x) s_j)],
    (B, 3, 3). Each state must be finite and Hermitian (linalg's check),
    then have Pauli traces with imaginary parts of at most 1e-10, which
    are discarded. A refused state refuses the stack by
    linalg._first_refusal.
    """
    stack = np.asarray(rhos, dtype=complex)
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise ValueError(f"expected a (B, 4, 4) stack, got shape {stack.shape}")
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite state
        traces = stack.reshape(-1, 16) @ _FANO_TRACE
    message = _first_refusal((
        *_hermitian_checks(stack, "state"),
        (np.all(np.abs(traces.imag) <= 1e-10, axis=1),
         lambda k: f"Pauli trace has imaginary part {np.max(np.abs(traces[k].imag)):g}")))
    if message is not None:
        raise ValueError(message)
    real = traces.real
    return stack, (real[:, 0:3], real[:, 3:6], real[:, 6:].reshape(-1, 3, 3))


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) < CLAMP_TOL, 0.0, values)


def _spectra(stack: np.ndarray) -> tuple:
    """Ascending eigenvalues of the states and of their qubit-1 partial transposes.

    One LAPACK call on a (2B, 4, 4) buffer holding the states, then their
    partial transposes. The partial transpose permutes entries, so it is
    Hermitian whenever the state is.
    """
    n = len(stack)
    both = np.empty((2 * n, 4, 4), dtype=complex)
    both[:n] = stack
    both[n:] = partial_transpose(stack, 1)
    eigs = np.linalg.eigvalsh(both)
    return eigs[:n], eigs[n:]


def _negativity_stack(pt_eigs: np.ndarray) -> np.ndarray:
    # the transposed side is immaterial for two qubits: the two partial
    # transposes are related by a full transpose
    return _clamp(np.sum(np.abs(pt_eigs), axis=1) - 1.0)


def _discord_stacks(fano: tuple) -> tuple:
    """Distance-based discord of each measured side, (D1, D2).

    D = (||a_side||^2 + ||T||_F^2 - k_max) / 4 with k_max the top
    eigenvalue of K = a1 a1^T + T T^T (side 1) or a2 a2^T + T^T T (side
    2); the transposed Gram matrix keeps side 2 invariant under local
    unitaries, which T T^T would break. Both sides' K share one
    (2B, 3, 3) stack, side 1 first; every step is per row, so each value
    has the bits of a one-side evaluation.
    """
    a1, a2, T = fano
    n = len(T)
    Tt = np.swapaxes(T, 1, 2)
    t_sq = np.sum(T * T, axis=(1, 2))
    a = np.concatenate((a1, a2))
    K = a[:, :, None] * a[:, None, :]
    K[:n] += T @ Tt
    K[n:] += Tt @ T
    d = _clamp(0.25 * (np.sum(a * a, axis=1) + np.concatenate((t_sq, t_sq))
                       - top_eigenvalue_3x3(K)))
    return d[:n], d[n:]


def _purity_stack(stack: np.ndarray) -> np.ndarray:
    # Tr[rho^2] = sum_ij |rho_ij|^2 for Hermitian rho
    flat = stack.reshape(-1, 16)
    return np.sum(flat.real ** 2 + flat.imag ** 2, axis=1)


def sample_correlations_stack(rhos, times) -> dict:
    """All measures and diagnostics of a (B, 4, 4) stack of trajectory states.

    Returns the seven COLUMNS as length-B float64 arrays, in COLUMNS
    order and in stack order; the t column is the length-B array times.
    One batched LAPACK call gives the spectra of the states (for
    min_eigenvalue) and of their partial transposes (for negativity);
    the k_max of both discord sides come from one closed-form call on
    their 3x3 K matrices. A refused state refuses the stack by
    linalg._first_refusal.
    """
    stack, fano = _checked_stack(rhos)
    times = np.asarray(times, dtype=float)
    if times.shape != stack.shape[:1]:
        raise ValueError(f"{stack.shape[0]} states but times of shape {times.shape}")
    state_eigs, pt_eigs = _spectra(stack)
    return dict(zip(COLUMNS, (
        times,
        _negativity_stack(pt_eigs),
        *_discord_stacks(fano),
        _purity_stack(stack),
        state_eigs[:, 0],
        np.trace(stack, axis1=1, axis2=2).real - 1.0,
    )))
