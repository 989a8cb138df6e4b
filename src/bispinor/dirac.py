"""Four-level Hamiltonian of a spin-parity qubit pair in external fields.

The system is a single four-level unit viewed as two qubits: qubit 1 is
the parity (F) degree of freedom, qubit 2 the spin (M) one, with basis
order (|a>,|b>,|c>,|d>) = (|00>,|01>,|10>,|11>). The generator combines a
mass term, a kinetic term for momentum p along x, and tensor/pseudotensor
couplings (kappa, mu) to an electric-type field of magnitude E in the xy
plane at angle theta. Units are natural (hbar = c = 1), so every quantity
is an energy in units of p.

The commuting invariant operator built here squares to a scalar g2, which
yields a closed-form spectrum and four rank-1 analytic eigenprojectors;
eigenprojectors returns g2 with them.
Both operators are combinations of Pauli products built once at import.
One builder makes them for a whole sequence of DiracParams as (N, 4, 4)
stacks, and a second adds g2, the spectrum and the (N, 4, 4, 4)
projectors; the acceptance grid is built that way, and the public
one-point builders are one row of it, with the same bits. So is the
closed-form spectrum, which reads the parameters alone.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpectrumError, UnsupportedConfigurationError
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, tensor_product
from .values import ValueType

#: below this, g2 or |lambda| counts as degenerate and the analytic
#: projector construction is refused
DEGENERACY_TOL = 1e-12

#: the (n, s) order of the spectrum and projectors: s outer, n inner
SPECTRAL_KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))


class DiracParams(ValueType):
    """Physical configuration (all energies in units of hbar = c = 1).

    m, p and E_field must be nonnegative and finite; theta defaults to
    pi/4, the configuration the closed-form spectrum was derived for.
    """

    __slots__ = ("m", "p", "kappa", "mu", "E_field", "theta")

    def __init__(self, m: float, p: float, kappa: float, mu: float, E_field: float,
                 theta: float = math.pi / 4):
        super().__init__(m, p, kappa, mu, E_field, theta)
        if not all(math.isfinite(v) for v in (m, p, kappa, mu, E_field, theta)):
            raise ValueError("all parameters must be finite")
        if m < 0 or p < 0 or E_field < 0:
            raise ValueError("m, p and E_field must be nonnegative")


class SpectralData(ValueType):
    """Closed-form spectrum: g2, the four lambda_(n,s) and their projectors.

    lambdas and projectors are keyed by (n, s) with n, s in {0, 1};
    lambda_(1,s) is exactly -lambda_(0,s).
    """

    __slots__ = ("g2", "lambdas", "projectors")

    def __init__(self, g2: float, lambdas: dict, projectors: dict):
        super().__init__(g2, lambdas, projectors)


# fixed two-qubit representation: beta = sz (x) I, alpha_i = sx (x) s_i,
# Sigma_i = I (x) s_i
BETA = tensor_product(SIGMA_Z, IDENTITY_2)
ALPHA_X = tensor_product(SIGMA_X, SIGMA_X)

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


def _operator_stacks(grid) -> tuple:
    """H and O of every point of a sequence of DiracParams, as (N, 4, 4) stacks.

    The package's one builder of both operators. Row i gets the
    arithmetic a one-point build of grid[i] would get, in the same order:
    cos and sin are math.cos and math.sin per point (np.cos can differ
    in the last bit), and every other step is elementwise.
    """
    fields = np.array([(q.m, q.p, q.kappa, q.mu, q.E_field, math.cos(q.theta),
                        math.sin(q.theta)) for q in grid], dtype=float).reshape(-1, 7)
    m, p, kappa, mu, E, cos, sin = (column[:, None, None] for column in fields.T)
    ex = E * cos
    ey = E * sin
    H = m * BETA + p * ALPHA_X
    # beta*Sigma_i = sz (x) s_i ; i*beta*alpha_i = -sy (x) s_i
    H = H + kappa * (ex * _ZX + ey * _ZY)
    H = H - mu * (ex * _YX + ey * _YY)
    cross_z = p * E * sin
    O = m * kappa * (ex * _IX + ey * _IY)
    O = O + mu * cross_z * _ZZ
    # -i*beta*alpha_z = sy (x) sz
    O = O + kappa * cross_z * _YZ
    return H, O


def build_dirac_hamiltonian(params: DiracParams) -> np.ndarray:
    """Assemble the 4x4 generator for the given configuration.

    H = m*beta + p*alpha_x + kappa*(beta Sigma . E_vec)
        + i*mu*(beta alpha . E_vec)
    with E_vec = E*(cos theta, sin theta, 0) and momentum (p, 0, 0).
    One row of the stacked builder.
    """
    return _operator_stacks([params])[0][0]


def build_invariant_operator(params: DiracParams) -> np.ndarray:
    """Operator commuting with the Hamiltonian whose square is g2 * I.

    O = m*kappa*(Sigma . E_vec) + mu*(beta Sigma . (p x E))
        - i*kappa*(beta alpha . (p x E)), where p x E = p*E*sin(theta) zhat.
    One row of the stacked builder.
    """
    return _operator_stacks([params])[1][0]


def _closed_form_stack(grid) -> np.ndarray:
    """lambda_(0,s)^2 for s = 0, 1 at every point of grid, as an (N, 2) array.

    The radicands of eigenvalue_closed_form, the paper's theta = pi/4
    formula, from the parameters alone: H is never read, so the closed
    form stays an independent route to the spectrum. Row i has the bits
    of a one-point evaluation.
    """
    m, p, k, mu, E = np.array([(q.m, q.p, q.kappa, q.mu, q.E_field) for q in grid],
                              dtype=float).reshape(-1, 5).T[..., None]
    inner = m * m * k * k + 0.5 * (mu * mu + k * k) * p * p
    return p * p + m * m + (k * k + mu * mu) * E * E \
        + np.array([2.0, -2.0]) * E * np.sqrt(inner)


def eigenvalue_closed_form(params: DiracParams, n: int, s: int) -> float:
    """Closed-form eigenvalue lambda_(n,s) for the theta = pi/4 configuration.

    lambda_(n,s) = (-1)^n sqrt(p^2 + m^2 + (kappa^2 + mu^2) E^2
                               + 2 (-1)^s E sqrt(m^2 kappa^2
                                                 + (mu^2 + kappa^2) p^2 / 2)),
    one row of the stacked closed form.
    """
    if n not in (0, 1) or s not in (0, 1):
        raise ValueError("indices n, s must be 0 or 1")
    if abs(params.theta - math.pi / 4) > 1e-12:
        raise UnsupportedConfigurationError(
            "closed-form spectrum requires theta = pi/4; use the numeric path"
        )
    radicand = float(_closed_form_stack([params])[0, s])
    if radicand < 0.0:
        raise ValueError(f"negative radicand {radicand:g} in closed-form eigenvalue")
    return (-1.0) ** n * math.sqrt(radicand)


def _spectral_stacks(grid) -> tuple:
    """Operators, closed-form spectrum and projectors of every point of grid.

    Returns (H, O, g2, lambdas, projectors): the (N, 4, 4) operator
    stacks of _operator_stacks, g2 of shape (N,), and the four lambda_(n,s)
    of each point, (N, 4), with their projectors, (N, 4, 4, 4), both in
    SPECTRAL_KEYS order. Every step is per point or elementwise, so row i
    has the bits of a one-point call. Raises DegenerateSpectrumError for
    the first point a one-point call refuses, with that call's message.
    """
    H, O = _operator_stacks(grid)
    H2 = H @ H
    q = np.trace(H2, axis1=-2, axis2=-1).real / 4.0
    # g2 = (1/16) Tr[(H^2 - Tr[H^2]/4 * I)^2], the trace formula on the built H
    traceless = H2 - q[:, None, None] * np.eye(4)
    g2 = np.trace(traceless @ traceless, axis1=-2, axis2=-1).real / 16.0
    # stated as the refusal of the one-point check, so a NaN g2 is not refused
    g2_ok = ~(g2 <= DEGENERACY_TOL)
    sqrt_g2 = np.sqrt(np.where(g2_ok, g2, 0.0))
    # lambda_(0,s)^2 = Tr[H^2]/4 + 2 (-1)^s sqrt(g2), for s = 0, 1
    radicand = q[:, None] + np.array([2.0, -2.0]) * sqrt_g2[:, None]
    lam = np.sqrt(np.maximum(radicand, 0.0))
    degenerate = ~g2_ok | np.any((radicand <= DEGENERACY_TOL ** 2)
                                 | (lam <= DEGENERACY_TOL), axis=1)
    if np.any(degenerate):
        first = int(np.argmax(degenerate))
        if not g2_ok[first]:
            raise DegenerateSpectrumError(
                f"g2 = {g2[first]:g} is degenerate; use numeric diagonalization"
            )
        raise DegenerateSpectrumError(
            "an eigenvalue magnitude is ~0; use numeric diagonalization"
        )
    # SPECTRAL_KEYS order: lambda_(n,s) = (-1)^n lam_s and |lambda_(n,s)| = lam_s
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    lam_s = lam[:, [0, 0, 1, 1]]
    lambdas = lam_s * signs
    h_coef = signs / lam_s
    o_coef = np.array([1.0, 1.0, -1.0, -1.0]) / sqrt_g2[:, None]
    eye = np.eye(4, dtype=complex)
    left = eye + h_coef[..., None, None] * H[:, None]
    right = eye + o_coef[..., None, None] * O[:, None]
    return H, O, g2, lambdas, 0.25 * (left @ right)


def eigenprojectors(params: DiracParams) -> SpectralData:
    """Build the four analytic rank-1 eigenprojectors.

    rho_(n,s) = 1/4 [I + (-1)^n / |lambda_(n,s)| * H]
                    [I + (-1)^s / sqrt(g2) * O]

    Works at any theta: the eigenvalues follow from
    lambda^2 = Tr[H^2]/4 + 2 (-1)^s sqrt(g2) since O^2 = g2 * I.

    g2 comes from the same H, by the trace formula
    (1/16) Tr[(H^2 - Tr[H^2]/4 * I)^2]. One row of the stacked builder:
    the dict values are views of its (4, 4, 4) projector row, keyed in
    SPECTRAL_KEYS order.

    Raises DegenerateSpectrumError when g2 or any |lambda| falls below
    1e-12. The projectors are the closed-form check on the numeric
    evolution (noise.evolve_noisy_stack), which needs none.
    """
    _, _, g2, lambdas, projectors = _spectral_stacks([params])
    return SpectralData(g2=float(g2[0]), lambdas=dict(zip(SPECTRAL_KEYS, lambdas[0].tolist())),
                        projectors=dict(zip(SPECTRAL_KEYS, projectors[0])))
