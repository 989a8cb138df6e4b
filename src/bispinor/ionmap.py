"""Trapped-ion realization of the four-level model.

A single ion with four internal levels (a, b, c, d) driven by carrier,
red-sideband and blue-sideband lasers realizes the same 4x4 generator as
the direct builder in `dirac`. This module maps Dirac parameters to
laser parameters and assembles the ionic Hamiltonian from Pauli operators
acting on level pairs, whose sums are built once at import; the assembly
takes a whole sequence of points as one (N, 4, 4) stack, and one point
is a one-row call. The two constructions must agree entrywise, which is
what pins down every sign convention below.
"""

from __future__ import annotations

import math

import numpy as np

from .dirac import DiracParams
from .values import ValueType

LEVELS = {"a": 0, "b": 1, "c": 2, "d": 3}


class IonParams(ValueType):
    """Laser parameters of the four-level ion (hbar = 1).

    delta is the carrier detuning, eta_delta_omega the combined
    sideband coupling eta * Delta * Omega-tilde (the velocity analog,
    c/2 = 1/2 in natural units), omega1 and omega2 the three carrier
    Rabi frequencies of the tensor and pseudotensor channels.
    """

    __slots__ = ("delta", "eta_delta_omega", "omega1", "omega2")

    def __init__(self, delta: float, eta_delta_omega: float, omega1: tuple, omega2: tuple):
        super().__init__(delta, eta_delta_omega, omega1, omega2)
        if not all(math.isfinite(v) for v in (delta, eta_delta_omega, *omega1, *omega2)):
            raise ValueError("all ion parameters must be finite")
        if delta < 0:
            raise ValueError("delta must be nonnegative")
        if len(omega1) != 3 or len(omega2) != 3:
            raise ValueError("omega1 and omega2 must be 3-vectors")


def pair_sigma(axis: str, j: str, k: str) -> np.ndarray:
    """Pauli operator on the two-level subspace spanned by levels j, k.

    x: |j><k| + |k><j|, y: -i|j><k| + i|k><j|, z: |j><j| - |k><k|.
    """
    jj, kk = LEVELS[j], LEVELS[k]
    M = np.zeros((4, 4), dtype=complex)
    if axis == "x":
        M[jj, kk] = 1.0
        M[kk, jj] = 1.0
    elif axis == "y":
        M[jj, kk] = -1.0j
        M[kk, jj] = 1.0j
    elif axis == "z":
        M[jj, jj] = 1.0
        M[kk, kk] = -1.0
    else:
        raise ValueError("axis must be 'x', 'y' or 'z'")
    return M


def dirac_to_ion(params: DiracParams) -> IonParams:
    """Forward parameter map: delta = m/2, couplings Omega_j = coupling*E_j/2."""
    ex = params.E_field * math.cos(params.theta)
    ey = params.E_field * math.sin(params.theta)
    return IonParams(
        delta=params.m / 2.0,
        eta_delta_omega=0.5,
        omega1=(params.kappa * ex / 2.0, params.kappa * ey / 2.0, 0.0),
        omega2=(params.mu * ex / 2.0, params.mu * ey / 2.0, 0.0),
    )


#: the level-pair sums the assembly combines, in coupling order: mass and
#: kinetic on (a,d) and (b,c), the tensor channel's x, y, z on (a,b)
#: against (c,d), and the pseudotensor channel's x, y, z. Their entries are
#: exactly 0, +-1 or +-i, so sums built once give the same bits.
_PAIR_SUMS = np.array([
    pair_sigma("z", "a", "d") + pair_sigma("z", "b", "c"),
    pair_sigma("x", "a", "d") + pair_sigma("x", "b", "c"),
    pair_sigma("x", "a", "b") - pair_sigma("x", "c", "d"),
    pair_sigma("y", "a", "b") - pair_sigma("y", "c", "d"),
    pair_sigma("z", "a", "b") - pair_sigma("z", "c", "d"),
    -pair_sigma("y", "a", "d") - pair_sigma("y", "b", "c"),
    pair_sigma("x", "a", "d") - pair_sigma("x", "b", "c"),
    pair_sigma("y", "b", "d") - pair_sigma("y", "a", "c"),
])


def assemble_ion_stack(ions, momenta) -> np.ndarray:
    """Ionic Hamiltonians of paired sequences of IonParams and momenta, (N, 4, 4).

    The package's one ion assembly, from Pauli operators on level pairs:
    H = sum_k c_k S_k over _PAIR_SUMS with
    c = 2 (delta, eta_delta_omega p, omega1, omega2), summed in that
    order. Mass and kinetic parts act on the (a,d) and (b,c) pairs; the
    tensor channel couples (a,b) against (c,d); the pseudotensor channel
    acts back on (a,d), (b,c). The y pseudotensor term carries the pair
    order (a,d) minus (b,c): the opposite order fails the entrywise
    equality with the direct builder (see the sign tests). Row i does
    not depend on the other rows, bit for bit. Coefficients that overflow
    give inf or NaN entries without a numpy warning, as in
    dirac.operator_stacks; noise.evolve_noisy_stack refuses such an H.
    """
    coef = np.array([(2.0 * ion.delta, 2.0 * ion.eta_delta_omega * p,
                      *(2.0 * w for w in ion.omega1), *(2.0 * w for w in ion.omega2))
                     for ion, p in zip(ions, momenta, strict=True)], dtype=float).reshape(-1, 8)
    with np.errstate(over="ignore", invalid="ignore"):
        # each term is added as it is formed: one (N, 4, 4) term at a time
        H = coef[:, 0, None, None] * _PAIR_SUMS[0]
        for c, S in zip(coef.T[1:], _PAIR_SUMS[1:]):
            H += c[:, None, None] * S
    return H
