"""Four-level Hamiltonian of a spin-parity qubit pair in external fields.

The system is a single four-level unit viewed as two qubits: qubit 1 is
the parity (F) degree of freedom, qubit 2 the spin (M) one, with basis
order (|a>,|b>,|c>,|d>) = (|00>,|01>,|10>,|11>). The generator combines a
mass term, a kinetic term for momentum p along x, and tensor/pseudotensor
couplings (kappa, mu) to an electric-type field of magnitude E in the xy
plane at angle theta. Units are natural (hbar = c = 1), so every quantity
is an energy in units of p.

The commuting invariant operator built here squares to a scalar g2, which
yields a closed-form spectrum and four rank-1 analytic eigenprojectors.
Both operators are combinations of Pauli products built once at import;
the four projectors come from one stacked (4, 4, 4) matrix product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, UnsupportedConfigurationError
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product

#: below this, g2 or |lambda| counts as degenerate and the analytic
#: projector construction is refused
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class DiracParams:
    """Physical configuration (all energies in units of hbar = c = 1).

    m, p and E_field must be nonnegative and finite; theta defaults to
    pi/4, the configuration the closed-form spectrum was derived for.
    """

    m: float
    p: float
    kappa: float
    mu: float
    E_field: float
    theta: float = math.pi / 4

    def __post_init__(self):
        vals = (self.m, self.p, self.kappa, self.mu, self.E_field, self.theta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("all parameters must be finite")
        if self.m < 0 or self.p < 0 or self.E_field < 0:
            raise ValueError("m, p and E_field must be nonnegative")


@dataclass(frozen=True)
class SpectralData:
    """Closed-form spectrum: g2, the four lambda_(n,s) and their projectors.

    lambdas and projectors are keyed by (n, s) with n, s in {0, 1};
    lambda_(1,s) is exactly -lambda_(0,s).
    """

    g2: float
    lambdas: dict
    projectors: dict


# fixed two-qubit representation: beta = sz (x) I, alpha_i = sx (x) s_i,
# Sigma_i = I (x) s_i
BETA = tensor_product(SIGMA_Z, IDENTITY_2)
ALPHA_X = tensor_product(SIGMA_X, SIGMA_X)
ALPHA_Y = tensor_product(SIGMA_X, SIGMA_Y)
ALPHA_Z = tensor_product(SIGMA_X, SIGMA_Z)

# the remaining Pauli products the builders combine; their entries are
# exactly 0, +-1 or +-i, so products built once give the same H and O bits
_ZX = tensor_product(SIGMA_Z, SIGMA_X)
_ZY = tensor_product(SIGMA_Z, SIGMA_Y)
_YX = tensor_product(SIGMA_Y, SIGMA_X)
_YY = tensor_product(SIGMA_Y, SIGMA_Y)
_IX = tensor_product(IDENTITY_2, SIGMA_X)
_IY = tensor_product(IDENTITY_2, SIGMA_Y)
_ZZ = tensor_product(SIGMA_Z, SIGMA_Z)
_YZ = tensor_product(SIGMA_Y, SIGMA_Z)


def build_dirac_hamiltonian(params: DiracParams) -> np.ndarray:
    """Assemble the 4x4 generator for the given configuration.

    H = m*beta + p*alpha_x + kappa*(beta Sigma . E_vec)
        + i*mu*(beta alpha . E_vec)
    with E_vec = E*(cos theta, sin theta, 0) and momentum (p, 0, 0).
    """
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    H = params.m * BETA + params.p * ALPHA_X
    # beta*Sigma_i = sz (x) s_i ; i*beta*alpha_i = -sy (x) s_i
    H = H + params.kappa * (ex * _ZX + ey * _ZY)
    H = H - params.mu * (ex * _YX + ey * _YY)
    return H


def build_invariant_operator(params: DiracParams) -> np.ndarray:
    """Operator commuting with the Hamiltonian whose square is g2 * I.

    O = m*kappa*(Sigma . E_vec) + mu*(beta Sigma . (p x E))
        - i*kappa*(beta alpha . (p x E)), where p x E = p*E*sin(theta) zhat.
    """
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    cross_z = params.p * params.E_field * math.sin(params.theta)
    O = params.m * params.kappa * (ex * _IX + ey * _IY)
    O = O + params.mu * cross_z * _ZZ
    # -i*beta*alpha_z = sy (x) sz
    O = O + params.kappa * cross_z * _YZ
    return O


def compute_g2(params: DiracParams) -> float:
    """Scalar square of the invariant operator, from the trace formula.

    Evaluates (1/16) Tr[(H^2 - Tr[H^2]/4 * I)^2]. At theta = pi/4 this
    equals E^2 [m^2 kappa^2 + (mu^2 + kappa^2) p^2 / 2].
    """
    return _g2_of(build_dirac_hamiltonian(params))


def _g2_of(H: np.ndarray) -> float:
    # compute_g2's trace formula on an already built Hamiltonian
    H2 = H @ H
    traceless = H2 - (np.trace(H2).real / 4.0) * np.eye(4)
    return float(np.trace(traceless @ traceless).real / 16.0)


def eigenvalue_closed_form(params: DiracParams, n: int, s: int) -> float:
    """Closed-form eigenvalue lambda_(n,s) for the theta = pi/4 configuration.

    lambda_(n,s) = (-1)^n sqrt(p^2 + m^2 + (kappa^2 + mu^2) E^2
                               + 2 (-1)^s E sqrt(m^2 kappa^2
                                                 + (mu^2 + kappa^2) p^2 / 2))
    """
    if n not in (0, 1) or s not in (0, 1):
        raise ValueError("indices n, s must be 0 or 1")
    if abs(params.theta - math.pi / 4) > 1e-12:
        raise UnsupportedConfigurationError(
            "closed-form spectrum requires theta = pi/4; use the numeric path"
        )
    m, p, k, mu, E = params.m, params.p, params.kappa, params.mu, params.E_field
    inner = m * m * k * k + 0.5 * (mu * mu + k * k) * p * p
    radicand = p * p + m * m + (k * k + mu * mu) * E * E \
        + 2.0 * (-1.0) ** s * E * math.sqrt(inner)
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand:g} in closed-form eigenvalue")
    return (-1.0) ** n * math.sqrt(radicand)


def eigenprojectors(params: DiracParams) -> SpectralData:
    """Build the four analytic rank-1 eigenprojectors.

    rho_(n,s) = 1/4 [I + (-1)^n / |lambda_(n,s)| * H]
                    [I + (-1)^s / sqrt(g2) * O]

    Works at any theta: the eigenvalues follow from
    lambda^2 = Tr[H^2]/4 + 2 (-1)^s sqrt(g2) since O^2 = g2 * I.

    g2 comes from the same H, by compute_g2's trace formula. The four
    products are formed as one (4, 4, 4) stack in the key order of
    lambdas; the dict values are views of it.

    Raises DegenerateSpectrumError when g2 or any |lambda| falls below
    1e-12. The projectors are the closed-form check on the numeric
    evolution (linalg.evolution_operator), which needs none.
    """
    H = build_dirac_hamiltonian(params)
    O = build_invariant_operator(params)
    g2 = _g2_of(H)
    if g2 <= DEGENERACY_TOL:
        raise DegenerateSpectrumError(
            f"g2 = {g2:g} is degenerate; use numeric diagonalization"
        )
    q = float(np.trace(H @ H).real / 4.0)
    sqrt_g2 = math.sqrt(g2)
    lambdas = {}
    for s in (0, 1):
        radicand = q + 2.0 * (-1.0) ** s * sqrt_g2
        if radicand <= DEGENERACY_TOL ** 2 or math.sqrt(radicand) <= DEGENERACY_TOL:
            raise DegenerateSpectrumError(
                "an eigenvalue magnitude is ~0; use numeric diagonalization"
            )
        lam = math.sqrt(radicand)
        lambdas[(0, s)] = lam
        lambdas[(1, s)] = -lam
    eye = np.eye(4, dtype=complex)
    keys = list(lambdas)
    h_coef = np.array([(-1.0) ** n / abs(lambdas[n, s]) for n, s in keys])
    o_coef = np.array([(-1.0) ** s / sqrt_g2 for _, s in keys])
    left = eye + h_coef[:, None, None] * H
    right = eye + o_coef[:, None, None] * O
    projectors = dict(zip(keys, 0.25 * (left @ right)))
    return SpectralData(g2=g2, lambdas=lambdas, projectors=projectors)
