"""Four-level Hamiltonian of a spin-parity qubit pair in external fields.

The system is a single four-level unit viewed as two qubits: qubit 1 is
the parity (F) degree of freedom, qubit 2 the spin (M) one, with basis
order (|a>,|b>,|c>,|d>) = (|00>,|01>,|10>,|11>). The generator combines a
mass term, a kinetic term for momentum p along x, and tensor/pseudotensor
couplings (kappa, mu) to an electric-type field of magnitude E in the xy
plane at angle theta. Units are natural (hbar = c = 1), so every quantity
is an energy in units of p.

The commuting invariant operator built here squares to a scalar g2, which
yields a closed-form spectrum and four rank-1 analytic spectral projectors.
Both operators are combinations of Pauli products built once at import.
The builders take a whole sequence of DiracParams and return stacks:
operator_stacks the (N, 4, 4) H and O, spectral_stacks adds g2, the
spectrum and the (N, 4, 4, 4) projectors, and closed_form_spectrum gives
the eigenvalues at any theta from the parameters alone. One point is a
one-row call, with the bits its row has in any longer one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpectrumError
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _first_refusal
from .values import ValueType

#: below this, g2 or |lambda| counts as degenerate and the analytic
#: projector construction is refused
DEGENERACY_TOL = 1e-12

#: the (n, s) order of the spectrum and projectors: s outer, n inner
SPECTRAL_KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))


class DiracParams(ValueType):
    """Physical configuration (all energies in units of hbar = c = 1).

    m, p and E_field must be nonnegative and finite; theta defaults to
    pi/4, the field angle of the paper's figures.
    """

    __slots__ = ("m", "p", "kappa", "mu", "E_field", "theta")

    def __init__(self, m: float, p: float, kappa: float, mu: float, E_field: float,
                 theta: float = math.pi / 4):
        super().__init__(m, p, kappa, mu, E_field, theta)
        if not all(math.isfinite(v) for v in (m, p, kappa, mu, E_field, theta)):
            raise ValueError("all parameters must be finite")
        if m < 0 or p < 0 or E_field < 0:
            raise ValueError("m, p and E_field must be nonnegative")


# fixed two-qubit representation: beta = sz (x) I, alpha_i = sx (x) s_i,
# Sigma_i = I (x) s_i
BETA = np.kron(SIGMA_Z, IDENTITY_2)
ALPHA_X = np.kron(SIGMA_X, SIGMA_X)

# the remaining Pauli products the builders combine; their entries are
# exactly 0, +-1 or +-i, so products built once give the same H and O bits
_ZX = np.kron(SIGMA_Z, SIGMA_X)
_ZY = np.kron(SIGMA_Z, SIGMA_Y)
_YX = np.kron(SIGMA_Y, SIGMA_X)
_YY = np.kron(SIGMA_Y, SIGMA_Y)
_IX = np.kron(IDENTITY_2, SIGMA_X)
_IY = np.kron(IDENTITY_2, SIGMA_Y)
_ZZ = np.kron(SIGMA_Z, SIGMA_Z)
_YZ = np.kron(SIGMA_Y, SIGMA_Z)


def operator_stacks(grid) -> tuple:
    """H and O of every point of a sequence of DiracParams, as (N, 4, 4) stacks.

    H = m*beta + p*alpha_x + kappa*(beta Sigma . E_vec)
        + i*mu*(beta alpha . E_vec)
    with E_vec = E*(cos theta, sin theta, 0) and momentum (p, 0, 0), and
    the invariant operator, which commutes with H and squares to g2 * I,

    O = m*kappa*(Sigma . E_vec) + mu*(beta Sigma . (p x E))
        - i*kappa*(beta alpha . (p x E)), where p x E = p*E*sin(theta) zhat.

    The package's one builder of both operators; one point is a one-row
    call. Row i does not depend on the other rows, bit for bit: cos and
    sin are math.cos and math.sin per point (np.cos can differ in the
    last bit), and every other step is elementwise.
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


def _eigenvalues(q, root_g2) -> np.ndarray:
    """(N, 4) lambda_(n,s) in SPECTRAL_KEYS order from (N, 1) Tr[H^2]/4 and sqrt(g2).

    lambda_(n,s) = (-1)^n sqrt(q + 2 (-1)^s sqrt(g2)), since O^2 = g2 * I.
    The radicand is lambda^2 of a Hermitian H, so a negative one is
    rounding and counts as 0.
    """
    lam = np.sqrt(np.maximum(q + np.array([2.0, -2.0]) * root_g2, 0.0))
    return lam[:, [0, 0, 1, 1]] * np.array([1.0, -1.0, 1.0, -1.0])


def closed_form_spectrum(grid) -> np.ndarray:
    """The eigenvalues of every point of grid, as (N, 4), from the parameters alone.

    lambda_(n,s) = (-1)^n sqrt(p^2 + m^2 + (kappa^2 + mu^2) E^2
                               + 2 (-1)^s E sqrt(m^2 kappa^2
                                                 + (mu^2 + kappa^2) p^2 sin^2 theta)),
    in SPECTRAL_KEYS order, at any theta; the paper's formula is the case
    sin^2 theta = 1/2. H is never read, so the closed form stays an
    independent route to the spectrum. Where an eigenvalue is near 0 its
    radicand cancels, and it keeps about half the digits of the largest.
    sin is math.sin per point, so row i does not depend on the other
    rows, bit for bit.
    """
    m, p, k, mu, E, sin = np.array([(q.m, q.p, q.kappa, q.mu, q.E_field, math.sin(q.theta))
                                    for q in grid], dtype=float).reshape(-1, 6).T[..., None]
    inner = m * m * k * k + (mu * mu + k * k) * p * p * (sin * sin)
    return _eigenvalues(p * p + m * m + (k * k + mu * mu) * E * E, E * np.sqrt(inner))


def spectral_stacks(grid) -> tuple:
    """Operators, spectrum and analytic spectral projectors of every point of grid.

    Returns (H, O, g2, lambdas, projectors): the (N, 4, 4) stacks of
    operator_stacks, g2 of shape (N,), and the four lambda_(n,s) of each
    point, (N, 4), with their rank-1 projectors, (N, 4, 4, 4), both in
    SPECTRAL_KEYS order:

    rho_(n,s) = 1/4 [I + (-1)^n / |lambda_(n,s)| * H]
                    [I + (-1)^s / sqrt(g2) * O]

    g2 comes from the same H, by the trace formula
    (1/16) Tr[(H^2 - Tr[H^2]/4 * I)^2], and the eigenvalues from
    lambda^2 = Tr[H^2]/4 + 2 (-1)^s sqrt(g2), since O^2 = g2 * I; so this
    works at any theta. Every step is per point or elementwise, so row i
    has the bits of a one-row call. The projectors are the closed-form
    check on the numeric evolution (noise.evolve_noisy_stack), which
    needs none.

    Raises DegenerateSpectrumError when g2 or any |lambda| of a point
    falls below 1e-12, by linalg._first_refusal on a stack.
    """
    H, O = operator_stacks(grid)
    H2 = H @ H
    q = np.trace(H2, axis1=-2, axis2=-1).real / 4.0
    traceless = H2 - q[:, None, None] * np.eye(4)
    g2 = np.trace(traceless @ traceless, axis1=-2, axis2=-1).real / 16.0
    # stated as a refusal, so a NaN g2 is not refused
    g2_ok = ~(g2 <= DEGENERACY_TOL)
    sqrt_g2 = np.sqrt(np.where(g2_ok, g2, 0.0))
    lambdas = _eigenvalues(q[:, None], sqrt_g2[:, None])
    message = _first_refusal((
        (g2_ok, lambda k: f"g2 = {g2[k]:g} is degenerate; use numeric diagonalization"),
        (~np.any(np.abs(lambdas) <= DEGENERACY_TOL, axis=1),
         lambda _: "an eigenvalue magnitude is ~0; use numeric diagonalization")))
    if message is not None:
        raise DegenerateSpectrumError(message)
    # (-1)^n / |lambda_(n,s)| = 1 / lambda_(n,s), and (-1)^s / sqrt(g2)
    o_coef = np.array([1.0, 1.0, -1.0, -1.0]) / sqrt_g2[:, None]
    eye = np.eye(4, dtype=complex)
    left = eye + (1.0 / lambdas)[..., None, None] * H[:, None]
    right = eye + o_coef[..., None, None] * O[:, None]
    return H, O, g2, lambdas, 0.25 * (left @ right)
