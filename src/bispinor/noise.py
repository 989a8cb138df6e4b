"""Local dephasing channel and its composition with the coherent dynamics.

Each qubit dephases independently at the same rate Gamma. The channel is
applied in one shot at elapsed time t. Its operator-sum form has four
diagonal Kraus operators (products of per-qubit pairs); it is equivalent
to an elementwise rescaling of the density-matrix entries: single
coherences pick up gamma = exp(-Gamma t / 2), double coherences gamma^2,
populations are untouched. The noisy state at time t is the channel
output rotated by the coherent evolution operator.

Trajectories are evaluated on a whole stack of times at once: the
channel as a (B, 4, 4) coefficient mask and the rotation as a (B, 4, 4)
stack of evolution operators. The Kraus form (build_kraus_set,
apply_channel) is the reference the elementwise form is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dirac import DiracParams, eigenprojectors
from .errors import DegenerateSpectrumError, InvariantViolation
from .linalg import hermitian_eigensystem, tensor_product

#: DensityMatrix invariant tolerances
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

#: qubits whose level differs between row and column of each entry: the
#: channel scales rho_kl by gamma ** _FLIPS[k, l]
_FLIPS = np.array([
    [0, 1, 1, 2],
    [1, 0, 2, 1],
    [1, 2, 0, 1],
    [2, 1, 1, 0],
])


@dataclass(frozen=True)
class NoiseParams:
    """Phase relaxation rate Gamma, applied equally to both qubits."""

    gamma_rate: float

    def __post_init__(self):
        if not math.isfinite(self.gamma_rate) or self.gamma_rate < 0:
            raise ValueError("gamma_rate must be finite and nonnegative")


@dataclass(frozen=True)
class KrausSet:
    """The four diagonal operators {F_nu E_mu} at a fixed (Gamma, t)."""

    operators: tuple
    gamma_factor: float
    omega_factor: float


def build_kraus_set(noise: NoiseParams, t: float) -> KrausSet:
    """Kraus operators of two-sided dephasing after elapsed time t.

    E1 = diag(1, gamma) (x) I, E2 = diag(0, omega) (x) I on qubit 1 and
    the mirrored F pair on qubit 2, with gamma = exp(-Gamma t / 2) and
    omega = sqrt(1 - exp(-Gamma t)). Returns the four products F_nu E_mu.
    At t = 0 (or Gamma = 0) the set degenerates to {I, 0, 0, 0}.
    """
    if t < 0:
        raise ValueError("channel is defined forward in time only (t >= 0)")
    decay = math.exp(-noise.gamma_rate * t)
    gamma = math.sqrt(decay)
    omega = math.sqrt(1.0 - decay)
    i2 = np.eye(2, dtype=complex)
    e1 = tensor_product(np.diag([1.0, gamma]).astype(complex), i2)
    e2 = tensor_product(np.diag([0.0, omega]).astype(complex), i2)
    f1 = tensor_product(i2, np.diag([1.0, gamma]).astype(complex))
    f2 = tensor_product(i2, np.diag([0.0, omega]).astype(complex))
    ops = tuple(f @ e for f in (f1, f2) for e in (e1, e2))
    return KrausSet(operators=ops, gamma_factor=gamma, omega_factor=omega)


def _mask_from_gamma(gamma: np.ndarray) -> np.ndarray:
    # (B,) gamma factors -> (B, 4, 4) masks of 1, gamma and gamma * gamma
    powers = np.stack((np.ones_like(gamma), gamma, gamma * gamma), axis=-1)
    return powers[..., _FLIPS]


def coefficient_matrix(ks: KrausSet) -> np.ndarray:
    """Elementwise form of the channel: rho_kl -> c_kl * rho_kl."""
    return _mask_from_gamma(np.array(ks.gamma_factor))


def dephasing_mask(noise: NoiseParams, times) -> np.ndarray:
    """Elementwise channel coefficients at B elapsed times, shape (B, 4, 4).

    times is a 1-D array. gamma(t) = sqrt(exp(-Gamma t)) is computed
    exactly as build_kraus_set computes it. Every mask is checked to leave
    the populations untouched (unit diagonal to 1e-12), the elementwise
    form of Kraus completeness.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValueError("channel is defined forward in time only (t >= 0)")
    # math.exp, not np.exp: the vectorised exp differs from libm in the last
    # bit on a few percent of arguments, and gamma must match the Kraus set's
    rate = noise.gamma_rate
    mask = _mask_from_gamma(np.sqrt([math.exp(-rate * t) for t in times.tolist()]))
    if np.max(np.abs(np.diagonal(mask, axis1=-2, axis2=-1) - 1.0), initial=0.0) > 1e-12:
        raise ValueError("dephasing mask failed the completeness check")
    return mask


def apply_channel(rho, ks: KrausSet) -> np.ndarray:
    """Operator-sum action of the dephasing channel.

    Rejects Kraus sets that fail trace preservation (sum K^dag K = I to
    1e-12). The operators are real diagonal, so the dagger placement is
    immaterial; the standard K rho K^dag form is used.
    """
    rho = np.asarray(rho, dtype=complex)
    total = sum(K.conj().T @ K for K in ks.operators)
    if np.max(np.abs(total - np.eye(4))) > 1e-12:
        raise ValueError("Kraus set failed the completeness check")
    out = np.zeros((4, 4), dtype=complex)
    for K in ks.operators:
        out += K @ rho @ K.conj().T
    return out


def validate_density_matrix(rho, where: str = "density matrix") -> np.ndarray:
    """Check the DensityMatrix invariants, returning the validated array.

    Hermitian to 1e-10, unit trace to 1e-10, smallest eigenvalue above
    -1e-9 and purity inside [1/4 - 1e-9, 1 + 1e-9]. Violations raise
    InvariantViolation naming the failed check.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvariantViolation(f"{where}: expected shape (4, 4), got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvariantViolation(f"{where}: not Hermitian to {HERMITICITY_TOL:g}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"{where}: trace {tr} deviates from 1")
    min_eig = float(hermitian_eigensystem(rho).eigenvalues[0])
    if min_eig < -PSD_TOL:
        raise InvariantViolation(f"{where}: negative eigenvalue {min_eig:g}")
    pur = float(np.trace(rho @ rho).real)
    if not (0.25 - PSD_TOL <= pur <= 1.0 + PSD_TOL):
        raise InvariantViolation(f"{where}: purity {pur:g} out of [1/4, 1]")
    return rho


@lru_cache(maxsize=64)
def _spectral_or_none(params: DiracParams):
    """Analytic spectral data, or None when the spectrum is degenerate."""
    try:
        return eigenprojectors(params)
    except DegenerateSpectrumError:
        return None


@lru_cache(maxsize=64)
def _hamiltonian_eigensystem(params: DiracParams):
    from .dirac import build_dirac_hamiltonian

    return hermitian_eigensystem(build_dirac_hamiltonian(params))


def _evolution_stack(params: DiracParams, times: np.ndarray) -> np.ndarray:
    """U(t) = exp(-i H t) for each of B times, shape (B, 4, 4).

    Nondegenerate spectra use the analytic projectors,
    U(t) = sum_k exp(-i lambda_k t) P_k; degenerate ones route to
    V diag(exp(-i lambda t)) V^dag from the numeric eigensystem.
    """
    spectral = _spectral_or_none(params)
    if spectral is None:
        es = _hamiltonian_eigensystem(params)
        phases = np.exp(-1j * np.multiply.outer(times, es.eigenvalues))
        return (es.eigenvectors * phases[:, None, :]) @ es.eigenvectors.conj().T
    keys = list(spectral.projectors)
    lambdas = np.array([spectral.lambdas[key] for key in keys])
    projectors = np.array([spectral.projectors[key] for key in keys])
    phases = np.exp(-1j * np.multiply.outer(times, lambdas))
    return np.einsum("bk,kij->bij", phases, projectors)


def evolve_noiseless_stack(rho0, params: DiracParams, times) -> np.ndarray:
    """Coherent evolution U(t) rho0 U(t)^dag at each of B times, (B, 4, 4).

    rho0 is one 4x4 state or a (B, 4, 4) stack, one state per time. The
    projector path and the degenerate-spectrum fallback agree to 1e-10
    wherever both apply, and either preserves purity.
    """
    U = _evolution_stack(params, np.asarray(times, dtype=float))
    return U @ np.asarray(rho0, dtype=complex) @ np.swapaxes(U.conj(), -1, -2)


def evolve_noisy_stack(rho0, params: DiracParams, noise: NoiseParams,
                       times) -> np.ndarray:
    """Noisy states at each of B elapsed times: one-shot channel, then rotation.

    rho(t) = U(t) [channel_t(rho0)] U(t)^dag with the channel applied as
    the elementwise dephasing_mask. Returns a (B, 4, 4) stack.
    """
    times = np.asarray(times, dtype=float)
    dephased = dephasing_mask(noise, times) * np.asarray(rho0, dtype=complex)
    return evolve_noiseless_stack(dephased, params, times)


def evolve_noiseless(rho0, params: DiracParams, t: float) -> np.ndarray:
    """Coherent evolution of a state for time t (one-sample evolve_noiseless_stack)."""
    return evolve_noiseless_stack(rho0, params, [t])[0]


def evolve_noisy(rho0, params: DiracParams, noise: NoiseParams, t: float) -> np.ndarray:
    """Noisy state at elapsed time t (one-sample evolve_noisy_stack).

    Reduces to evolve_noiseless when Gamma = 0 (the mask is all ones).
    """
    return evolve_noisy_stack(rho0, params, noise, [t])[0]
