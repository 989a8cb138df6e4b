import math
import warnings

import numpy as np
import pytest

from bispinor import acceptance, ionmap
from bispinor.dirac import DiracParams
from bispinor.ionmap import IonParams, assemble_ion_stack, dirac_to_ion, pair_sigma
from bispinor.noise import evolve_noisy_stack
from stack_contract import check_case, hamiltonian, same_bits, traced_peak

RNG = np.random.default_rng(99)


def random_point():
    """A unit-momentum point and a momentum p in [0.2, 2], drawn in that field order."""
    m, p = float(RNG.uniform(0.0, 3.0)), float(RNG.uniform(0.2, 2.0))
    return DiracParams(m=m, kappa=float(RNG.uniform(-2.0, 2.0)),
                       mu=float(RNG.uniform(-2.0, 2.0)),
                       E_field=float(RNG.uniform(0.1, 3.0)),
                       theta=float(RNG.uniform(0.0, 2.0 * math.pi))), p


def ion_hamiltonian(ion):
    return assemble_ion_stack([ion])[0]


def test_pair_sigma_entries():
    sx_ad = pair_sigma("x", "a", "d")
    assert sx_ad[0, 3] == 1.0 and sx_ad[3, 0] == 1.0
    assert np.count_nonzero(sx_ad) == 2
    sy_bc = pair_sigma("y", "b", "c")
    assert sy_bc[1, 2] == -1.0j and sy_bc[2, 1] == 1.0j
    sz_ab = pair_sigma("z", "a", "b")
    assert sz_ab[0, 0] == 1.0 and sz_ab[1, 1] == -1.0
    with pytest.raises(ValueError):
        pair_sigma("w", "a", "b")
    with pytest.raises(KeyError):
        pair_sigma("x", "a", "e")


def test_pair_sigma_algebra():
    # each pair carries its own su(2): [sx, sy] = 2i sz on the same pair
    for j, k in (("a", "d"), ("b", "c"), ("a", "b")):
        sx = pair_sigma("x", j, k)
        sy = pair_sigma("y", j, k)
        sz = pair_sigma("z", j, k)
        assert np.allclose(sx @ sy - sy @ sx, 2.0j * sz)


def test_ion_params_validation():
    with pytest.raises(ValueError):
        IonParams(delta=-0.1, eta_delta_omega=0.5, omega1=(0, 0), omega2=(0, 0))
    # the drives are in-plane: a z entry is refused
    with pytest.raises(ValueError, match="2-vectors"):
        IonParams(delta=0.1, eta_delta_omega=0.5, omega1=(0, 0, 0), omega2=(0, 0))
    with pytest.raises(ValueError, match="2-vectors"):
        IonParams(delta=0.1, eta_delta_omega=0.5, omega1=(0, 0), omega2=(0,))
    with pytest.raises(ValueError):
        IonParams(delta=0.1, eta_delta_omega=float("nan"), omega1=(0, 0), omega2=(0, 0))


def test_assembly_equals_direct_builder():
    """The ionic construction and the direct one agree entrywise, at momenta p.

    At momentum p the sideband coupling is p/2 and the direct H is
    p H(m/p, kappa, mu, E/p) of the unit-momentum builder.
    """
    for _ in range(30):
        params, p = random_point()
        ion = dirac_to_ion(params)
        ion = IonParams(delta=ion.delta, eta_delta_omega=p / 2.0,
                        omega1=ion.omega1, omega2=ion.omega2)
        direct = p * hamiltonian(DiracParams(m=params.m / p, kappa=params.kappa, mu=params.mu,
                                             E_field=params.E_field / p, theta=params.theta))
        assert np.max(np.abs(direct - ion_hamiltonian(ion))) < 1e-12


def test_assembly_pseudotensor_y_sign():
    # the y channel must enter as (a,d) minus (b,c); the flipped order is
    # a different operator and misses the direct builder by 4*w2y
    params = DiracParams(m=0.4, kappa=0.9, mu=1.3, E_field=1.5)
    ion = dirac_to_ion(params)
    direct = hamiltonian(params)
    flipped = IonParams(delta=ion.delta, eta_delta_omega=ion.eta_delta_omega,
                        omega1=ion.omega1,
                        omega2=(ion.omega2[0], -ion.omega2[1]))
    bad = ion_hamiltonian(flipped)
    dev = np.max(np.abs(direct - bad))
    assert dev > 4.0 * abs(ion.omega2[1]) - 1e-12
    good = ion_hamiltonian(ion)
    assert np.max(np.abs(direct - good)) < 1e-12


def test_every_ion_term_is_driven_on_the_acceptance_grid():
    # criterion 3 pins a term's sign only where dirac_to_ion gives it a
    # nonzero coefficient. The pair sums are orthogonal in the trace inner
    # product, so projecting the assembled H onto each reads its coefficient
    S = ionmap._PAIR_SUMS
    norms = np.einsum("kij,lij->kl", S.conj(), S).real
    assert np.array_equal(norms, np.diag(np.diag(norms)))
    H = assemble_ion_stack([dirac_to_ion(params) for params in acceptance._tilted_grid()])
    coef = np.einsum("kij,nij->nk", S.conj(), H).real / np.diag(norms)
    assert np.all(np.any(coef != 0.0, axis=0)), np.flatnonzero(~np.any(coef != 0.0, axis=0))


def test_forward_map_values():
    params = DiracParams(m=1.2, kappa=0.8, mu=0.5, E_field=2.0,
                         theta=math.pi / 3)
    ion = dirac_to_ion(params)
    assert ion.delta == pytest.approx(0.6)
    assert ion.eta_delta_omega == 0.5
    ex, ey = 2.0 * math.cos(math.pi / 3), 2.0 * math.sin(math.pi / 3)
    np.testing.assert_allclose(ion.omega1, (0.8 * ex / 2.0, 0.8 * ey / 2.0))
    np.testing.assert_allclose(ion.omega2, (0.5 * ex / 2.0, 0.5 * ey / 2.0))


def test_inverse_map_zero_tensor_channel():
    """With the tensor channel off the field direction is the pseudotensor vector's.

    dirac_to_ion never produces these ion settings; the Dirac parameters
    they stand for are written out by hand: kappa = 0, mu = 1,
    E = 2*|omega2| and theta its direction.
    """
    ion = IonParams(delta=0.5, eta_delta_omega=0.5,
                    omega1=(0.0, 0.0), omega2=(0.3, 0.4))
    params = DiracParams(m=1.0, kappa=0.0, mu=1.0, E_field=1.0, theta=math.atan2(0.4, 0.3))
    H0 = ion_hamiltonian(ion)
    H1 = hamiltonian(params)
    assert np.max(np.abs(H0 - H1)) < 1e-12


def test_inverse_map_rescaled_sideband():
    """A sideband coupling other than 1/2 lands in the effective momentum.

    eta*delta*Omega = 0.8 stands for the momentum p = 1.6 of the direct
    builder, with m = E = 1 and the field carried by the tensor channel
    alone. In units of p that point is m = E = 1/1.6, and its H is
    1.6 times the one of the unit-momentum builder.
    """
    ion = IonParams(delta=0.5, eta_delta_omega=0.8,
                    omega1=(0.4, 0.3), omega2=(0.0, 0.0))
    params = DiracParams(m=1.0 / 1.6, kappa=1.0, mu=0.0, E_field=1.0 / 1.6,
                         theta=math.atan2(0.3, 0.4))
    H0 = ion_hamiltonian(ion)
    H1 = 1.6 * hamiltonian(params)
    assert np.max(np.abs(H0 - H1)) < 1e-12


# ------------------------------------------- stacked assembly against one point

def formula_ion_hamiltonian(ion):
    """The ion assembly term by term, every level-pair operator from pair_sigma."""
    def sx(j, k):
        return pair_sigma("x", j, k)

    def sy(j, k):
        return pair_sigma("y", j, k)

    w1x, w1y = ion.omega1
    w2x, w2y = ion.omega2
    H = 2.0 * ion.delta * (pair_sigma("z", "a", "d") + pair_sigma("z", "b", "c"))
    H = H + 2.0 * ion.eta_delta_omega * (sx("a", "d") + sx("b", "c"))
    H = H + 2.0 * w1x * (sx("a", "b") - sx("c", "d"))
    H = H + 2.0 * w1y * (sy("a", "b") - sy("c", "d"))
    H = H + 2.0 * w2x * (-sy("a", "d") - sy("b", "c"))
    return H + 2.0 * w2y * (sx("a", "d") - sx("b", "c"))


def assembly_matches_formula(_, ion, H):
    assert same_bits(H[0], formula_ion_hamiltonian(ion)), ion


def test_stacked_assembly_matches_one_point_builds_bitwise():
    # every stack row is a one-row call, bit for bit, and the level-pair
    # sums built once give the term-by-term bits
    check_case("assemble_ion_stack", assemble_ion_stack=assembly_matches_formula)


def test_the_assembly_holds_one_term_at_a_time():
    # the 240 tilted grid points give a 60 KiB output. Adding each
    # coefficient-times-sum term as it is formed peaks at 259 KiB under
    # tracemalloc, most of it the coefficient rows built from Python
    # floats; the (8, N, 4, 4) term stack took it to 755 KiB
    grid = acceptance._tilted_grid()
    ions = [dirac_to_ion(params) for params in grid]
    peak = traced_peak(lambda: assemble_ion_stack(ions))
    assert peak <= 300 * 1024, peak / 1024


def test_an_overflowing_ion_generator_is_refused_without_a_warning():
    # 2 delta = inf, and inf times the zeros of the other pair sums is NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = ion_hamiltonian(IonParams(1e308, 0.5, (0, 0), (0, 0)))
        assert not np.all(np.isfinite(H))
        with pytest.raises(ValueError, match="^evolution generator entries must be finite$"):
            evolve_noisy_stack(np.eye(4) / 4.0, H, 0.5, [0.0, 1.0])
