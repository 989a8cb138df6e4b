"""Four-level Hamiltonian of a spin-parity qubit pair in external fields.

The system is a single four-level unit viewed as two qubits: qubit 1 is
the parity (F) degree of freedom, qubit 2 the spin (M) one, with basis
order (|a>,|b>,|c>,|d>) = (|00>,|01>,|10>,|11>). The generator combines a
mass term, a kinetic term for momentum p along x, and tensor/pseudotensor
couplings (kappa, mu) to an electric-type field of magnitude E in the xy
plane at angle theta. Units are natural (hbar = c = 1), and p is the unit
of energy: every quantity is in units of p, so p = 1 and is no parameter.

The commuting invariant operator built here squares to a scalar g2, which
yields a closed-form spectrum and four rank-1 analytic spectral projectors.
Both operators are combinations of Pauli products built once at import.
The builders take a whole sequence of DiracParams and return stacks:
operator_stacks the (N, 4, 4) H and O, closed_form_spectrum the
eigenvalues at any theta from the parameters alone, and spectral_stacks
adds g2, that spectrum (both from the parameters, with nothing
cancelling) and the (N, 4, 4, 4) projectors. The closed form is the
package's one spectrum formula. One point is a one-row call, with the
bits its row has in any longer one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSpectrumError
from .linalg import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, _refuse
from .values import ValueType

#: below this, g2 or |lambda| counts as degenerate and the analytic
#: projector construction is refused
DEGENERACY_TOL = 1e-12

#: the (n, s) order of the spectrum and projectors: s outer, n inner
SPECTRAL_KEYS = ((0, 0), (1, 0), (0, 1), (1, 1))


class DiracParams(ValueType):
    """Physical configuration in units of p (hbar = c = 1); keywords only.

    m and E_field must be nonnegative and finite; theta defaults to
    pi/4, the field angle of the paper's figures.
    """

    __slots__ = ("m", "kappa", "mu", "E_field", "theta")

    def __init__(self, *, m: float, kappa: float, mu: float, E_field: float,
                 theta: float = math.pi / 4):
        super().__init__(m, kappa, mu, E_field, theta)
        if not all(math.isfinite(v) for v in (m, kappa, mu, E_field, theta)):
            raise ValueError("all parameters must be finite")
        if m < 0 or E_field < 0:
            raise ValueError("m and E_field must be nonnegative")


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


def _fields(grid) -> np.ndarray:
    """The (N, 6) float64 (m, kappa, mu, E, cos theta, sin theta) of every point of grid."""
    return np.array([(q.m, q.kappa, q.mu, q.E_field, math.cos(q.theta),
                      math.sin(q.theta)) for q in grid], dtype=float).reshape(-1, 6)


def operator_stacks(grid) -> tuple:
    """H and O of every point of a sequence of DiracParams, as (N, 4, 4) stacks.

    H = m*beta + alpha_x + kappa*(beta Sigma . E_vec)
        + i*mu*(beta alpha . E_vec)
    with E_vec = E*(cos theta, sin theta, 0) and momentum (1, 0, 0) (p is the
    unit), and the invariant operator, which commutes with H and squares to g2 I,

    O = m*kappa*(Sigma . E_vec) + mu*(beta Sigma . (p x E))
        - i*kappa*(beta alpha . (p x E)), where p x E = E*sin(theta) zhat.

    The package's one builder of both operators; one point is a one-row
    call. Row i does not depend on the other rows, bit for bit: cos and
    sin are math.cos and math.sin per point (np.cos can differ in the
    last bit), and every other step is elementwise. Parameters whose
    products overflow give inf or NaN entries without a numpy warning;
    the engine, noise.evolve_noisy_stack, takes one row of H as its
    generator and refuses such a row as not finite.
    """
    m, kappa, mu, E, cos, sin = (column[:, None, None] for column in _fields(grid).T)
    with np.errstate(over="ignore", invalid="ignore"):
        ex = E * cos
        ey = E * sin
        H = m * BETA + ALPHA_X
        # beta*Sigma_i = sz (x) s_i ; i*beta*alpha_i = -sy (x) s_i
        H = H + kappa * (ex * _ZX + ey * _ZY)
        H = H - mu * (ex * _YX + ey * _YY)
        cross_z = E * sin
        O = m * kappa * (ex * _IX + ey * _IY)
        O = O + mu * cross_z * _ZZ
        # -i*beta*alpha_z = sy (x) sz
        O = O + kappa * cross_z * _YZ
    return H, O


def _closed_form(grid) -> tuple:
    """closed_form_spectrum's (N, 4) eigenvalues and the (N,) g2 of every point of grid."""
    m, k, mu, E, cos, sin = _fields(grid).T
    with np.errstate(over="ignore", invalid="ignore"):
        inner = m * m * k * k + (mu * mu + k * k) * (sin * sin)
        mass, field = 1.0 + m * m, (k * k + mu * mu) * E * E
        plus = mass + field + 2.0 * (E * np.sqrt(inner))
        det = (mass - field) ** 2 + 4.0 * (field * (cos * cos) + E * E * m * m * mu * mu)
        # lambda_(0,0) = 0 only where H = 0, and then det H = 0 too
        lam = np.sqrt(np.stack((plus, det / np.where(plus > 0.0, plus, 1.0)), axis=1))
        return lam[:, [0, 0, 1, 1]] * np.array([1.0, -1.0, 1.0, -1.0]), E * E * inner


def closed_form_spectrum(grid) -> np.ndarray:
    """The eigenvalues of every point of grid, as (N, 4), from the parameters alone.

    lambda_(n,s) = (-1)^n sqrt(1 + m^2 + (kappa^2 + mu^2) E^2 + 2 (-1)^s sqrt(g2)),
    g2 = E^2 (m^2 kappa^2 + (mu^2 + kappa^2) sin^2 theta), in SPECTRAL_KEYS order,
    in units of p, at any theta; the paper's formula is the case sin^2 theta = 1/2.
    H is never read, so the closed form stays an independent route to the spectrum.
    The s = 1 radicand would cancel; it is det H / lambda_(0,0)^2, with the sum of
    squares det H = (1 + m^2 - (kappa^2 + mu^2) E^2)^2 + 4 E^2 ((kappa^2 + mu^2)
    cos^2 theta + m^2 mu^2); only inputs whose squares underflow (|x| < 1e-154)
    still give 0. Row i does not depend on the other rows, bit for bit.
    """
    return _closed_form(grid)[0]


def spectral_stacks(grid) -> tuple:
    """Operators, spectrum and analytic spectral projectors of every point of grid.

    Returns (H, O, g2, lambdas, projectors): the (N, 4, 4) stacks of
    operator_stacks, g2 of shape (N,), and the four lambda_(n,s) of each
    point, (N, 4), with their rank-1 projectors, (N, 4, 4, 4), both in
    SPECTRAL_KEYS order:

    rho_(n,s) = 1/4 [I + (-1)^n / |lambda_(n,s)| * H]
                    [I + (-1)^s / sqrt(g2) * O]

    The eigenvalues (closed_form_spectrum's, bit for bit) and g2 come from
    the parameters, not from H or O, so nothing cancels. Every step is per
    point or elementwise, so row i has the bits of a one-row call. The
    projectors are the closed-form check on the numeric evolution of the
    same H (noise.evolve_noisy_stack), which needs none.

    Raises DegenerateSpectrumError, by linalg._refuse on a stack, when a
    point's spectrum or g2 is not finite, or g2 or any |lambda| is below 1e-12.
    """
    H, O = operator_stacks(grid)
    lambdas, g2 = _closed_form(grid)
    _refuse((
        (np.isfinite(g2) & np.all(np.isfinite(lambdas), axis=1),
         lambda k: f"closed-form spectrum is not finite (g2 = {g2[k]:g})"),
        (g2 > DEGENERACY_TOL,
         lambda k: f"g2 = {g2[k]:g} is degenerate; use numeric diagonalization"),
        (np.all(np.abs(lambdas) > DEGENERACY_TOL, axis=1),
         lambda _: "an eigenvalue magnitude is ~0; use numeric diagonalization")),
        error=DegenerateSpectrumError)
    # (-1)^n / |lambda_(n,s)| = 1 / lambda_(n,s), and (-1)^s / sqrt(g2)
    o_coef = np.array([1.0, 1.0, -1.0, -1.0]) / np.sqrt(g2)[:, None]
    eye = np.eye(4, dtype=complex)
    left = eye + (1.0 / lambdas)[..., None, None] * H[:, None]
    right = eye + o_coef[..., None, None] * O[:, None]
    return H, O, g2, lambdas, 0.25 * (left @ right)
