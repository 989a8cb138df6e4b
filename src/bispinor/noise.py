"""Local dephasing channel and its composition with the coherent dynamics.

Each qubit dephases independently at the same rate Gamma. The channel is
applied in one shot at elapsed time t. Its operator-sum form has four
diagonal Kraus operators (products of per-qubit pairs); it is equivalent
to an elementwise rescaling of the density-matrix entries: single
coherences pick up gamma = exp(-Gamma t / 2), double coherences gamma^2,
populations are untouched. The noisy state at time t is the channel
output rotated by the coherent evolution exp(-i H t).

The engine takes H as a plain 4x4 matrix, from either route (the direct
builder dirac.operator_stacks or the ion assembly
ionmap.assemble_ion_stack), and Gamma as a plain float. H is
time-independent, so the engine works in its fixed eigenbasis,
H = V diag(lambda) V^dag, from the package's one LAPACK ``eigh``:

    rho(t) = V [Phi(t) o (B_0 + gamma B_1 + gamma^2 B_2)] V^dag,

with B_n = V^dag (F_n o rho0) V, F_n the entries whose coherence order is
n, and Phi_kl(t) = exp(-i (lambda_k - lambda_l) t). The B_n are formed
once per call; a stack of B times costs an elementwise product and one
16 x 16 rotation per row. Gamma = 0 is the noiseless evolution, and
H = 0 (whose eigh returns V = I) the channel alone. The Kraus form is
the reference the engine's channel is checked against, and a time stack
too: build_kraus_set gives the Kraus operators at T times as one
(T, 4, 4, 4) array, which apply_channel applies to one state, giving
(T, 4, 4). It computes its own decay.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _hermitian_checks, _refuse

#: qubits whose level differs between row and column of each entry: the
#: channel scales rho_kl by gamma ** _FLIPS[k, l]
_FLIPS = np.array([
    [0, 1, 1, 2],
    [1, 0, 2, 1],
    [1, 2, 0, 1],
    [2, 1, 1, 0],
])
#: F_n, the 0/1 mask of the entries with _FLIPS == n, for n = 0, 1, 2
_FLIP_MASKS = np.array([_FLIPS == n for n in range(3)], dtype=float)

#: largest entry of sum K^dag K - I that apply_channel accepts in a Kraus row
KRAUS_TOL = 1e-12


def _time_checks(gamma_rate: float, times) -> tuple:
    """Times as a 1-D float array, and the _refuse pairs each time must pass.

    The rate must be finite and nonnegative, and so must each time.
    """
    if not math.isfinite(gamma_rate) or gamma_rate < 0:
        raise ValueError("gamma_rate must be finite and nonnegative")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    return times, ((np.isfinite(times), lambda _: "time must be finite"),
                   (times >= 0, lambda _: "channel is defined forward in time only (t >= 0)"))


def _checked_matrix(A, what: str) -> np.ndarray:
    """A as a complex 4x4 array, refused unless it is finite and Hermitian."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 {what}, got shape {A.shape}")
    _refuse(_hermitian_checks(A, what))
    return A


def build_kraus_set(gamma_rate: float, times) -> np.ndarray:
    """Kraus operators of two-sided dephasing at rate Gamma and each of T elapsed times.

    E1 = diag(1, gamma) (x) I, E2 = diag(0, omega) (x) I on qubit 1 and
    the mirrored F pair on qubit 2, with gamma = exp(-Gamma t / 2) and
    omega = sqrt(1 - exp(-Gamma t)). Returns a (T, 4, 4, 4) array whose
    row k holds the four products F_nu E_mu at times[k], nu outer; one
    time is the one-row call build_kraus_set(gamma_rate, [t])[0]. All
    four are real diagonal, built entry by entry from the per-qubit
    diagonals. At t = 0 (or Gamma = 0) a row degenerates to {I, 0, 0, 0}.

    The rate must be finite and nonnegative; times must be 1-D, finite
    and nonnegative. The decay is computed here, time by time, and not
    taken from the engine's coherence factors, so a fault in those still
    shows against this reference.
    """
    times, checks = _time_checks(gamma_rate, times)
    _refuse(checks)
    decay = np.array([math.exp(-gamma_rate * t) for t in times.tolist()])
    # (T, 2, 2): the diagonals of diag(1, gamma) and diag(0, omega)
    factors = np.stack([np.ones_like(decay), np.sqrt(decay), np.zeros_like(decay),
                        np.sqrt(1.0 - decay)], axis=-1).reshape(-1, 2, 2)
    # entry 2i + k of F_nu E_mu is f_nu[k] e_mu[i]: axes (T, nu, mu, i, k)
    diagonals = factors[:, :, None, None, :] * factors[:, None, :, :, None]
    return diagonals.reshape(-1, 4, 4, 1) * np.eye(4, dtype=complex)


def apply_channel(rho, ks) -> np.ndarray:
    """Operator-sum action of a (T, k, 4, 4) Kraus stack on one 4x4 state.

    ks is a stack as build_kraus_set returns it; row t of the (T, 4, 4)
    result is sum_k K rho K^dag over the operators of row t. Refuses a
    state that is not finite and Hermitian, and the stack if any row
    fails trace preservation (sum K^dag K = I to KRAUS_TOL, a NaN
    included). The operators are real diagonal, so the dagger placement
    is immaterial; the standard K rho K^dag form is used.
    """
    rho = _checked_matrix(rho, "state")
    ks = np.asarray(ks, dtype=complex)
    if ks.ndim != 4 or ks.shape[-2:] != (4, 4):
        raise ValueError(f"expected a (T, k, 4, 4) Kraus stack, got shape {ks.shape}")
    kh = np.swapaxes(ks.conj(), -1, -2)
    if not np.all(np.abs(np.sum(kh @ ks, axis=1) - np.eye(4)) <= KRAUS_TOL):
        raise ValueError("Kraus set failed the completeness check")
    return np.sum(ks @ rho @ kh, axis=1)


def evolve_noisy_stack(rho0, H, gamma_rate: float, times) -> np.ndarray:
    """Noisy states at each of B elapsed times: one-shot channel, then rotation.

    rho(t) = U(t) [channel_t(rho0)] U(t)^dag with U(t) = exp(-i H t) for
    the 4x4 generator H and dephasing rate gamma_rate, evaluated in H's
    eigenbasis (see the module docstring). rho0 is one 4x4 state and
    times a 1-D array of finite, nonnegative times. Returns a (B, 4, 4)
    stack whose rows do not depend on the other times of the call, bit
    for bit: every operation is elementwise or one product per row.

    Raises ValueError if the rate is not finite and nonnegative, if rho0
    or H is not a finite Hermitian 4x4 matrix, or if a time is refused:
    one that is not finite, a negative one, and one whose phases
    lambda_k t overflow (an infinite lambda refuses t = 0).
    """
    times, time_checks = _time_checks(gamma_rate, times)
    rho0 = _checked_matrix(rho0, "initial state")
    lam, V = np.linalg.eigh(_checked_matrix(H, "evolution generator"))
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.multiply.outer(times, lam)
    _refuse((*time_checks, (np.all(np.isfinite(phases), axis=1),
                            lambda k: f"phase of exp(-i H t) overflows at t = {times[k]:g}")))
    # gamma(t) = sqrt(exp(-Gamma t)) by build_kraus_set's expression, math.exp
    # on Python floats: np.exp differs from libm in the last bit on a few
    # percent of arguments, and a product that overflows to -inf gives 0
    # without a numpy overflow warning
    gamma = np.sqrt(np.array([math.exp(-gamma_rate * t) for t in times.tolist()]))
    Vh = V.conj().T
    b0, b1, b2 = ((Vh @ (F * rho0)) @ V for F in _FLIP_MASKS)
    # rho_ij = sum_kl V_ik Y_kl conj(V_jl), so T[(k, l), (i, j)] = V_ik conj(V_jl)
    T = (V.T[:, None, :, None] * Vh[None, :, None, :]).reshape(16, 16)
    p = np.exp(-1j * phases)
    g = gamma[:, None, None]
    # Y = Phi o (b0 + g b1 + g^2 b2), built in place. Complex sums commute bit
    # for bit but complex products need not, so each product keeps its
    # operand order; no block-sized partial sum outlives its next step
    B = g * b1
    B += b0
    B += (g * g) * b2
    Y = p[:, :, None] * p.conj()[:, None, :]
    Y *= B
    # one (1, 16) @ (16, 16) product per row: a flat (B, 16) product rounds
    # differently with the number of rows
    return (Y.reshape(-1, 1, 16) @ T).reshape(-1, 4, 4)
