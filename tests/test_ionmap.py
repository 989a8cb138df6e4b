import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispinor.dirac import DiracParams, build_dirac_hamiltonian
from bispinor.ionmap import (IonParams, _assemble_stack, assemble_ion_hamiltonian,
                             dirac_to_ion, pair_sigma)

RNG = np.random.default_rng(99)


def random_params():
    return DiracParams(m=float(RNG.uniform(0.0, 3.0)), p=float(RNG.uniform(0.2, 2.0)),
                       kappa=float(RNG.uniform(-2.0, 2.0)),
                       mu=float(RNG.uniform(-2.0, 2.0)),
                       E_field=float(RNG.uniform(0.1, 3.0)),
                       theta=float(RNG.uniform(0.0, 2.0 * math.pi)))


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
        IonParams(delta=-0.1, eta_delta_omega=0.5, omega1=(0, 0, 0), omega2=(0, 0, 0))
    with pytest.raises(ValueError):
        IonParams(delta=0.1, eta_delta_omega=0.5, omega1=(0, 0), omega2=(0, 0, 0))
    with pytest.raises(ValueError):
        IonParams(delta=0.1, eta_delta_omega=float("nan"),
                  omega1=(0, 0, 0), omega2=(0, 0, 0))


def test_assembly_equals_direct_builder():
    """The ionic construction and the direct one agree entrywise."""
    for _ in range(30):
        params = random_params()
        direct = build_dirac_hamiltonian(params)
        mapped = assemble_ion_hamiltonian(dirac_to_ion(params), params.p)
        assert np.max(np.abs(direct - mapped)) < 1e-12


def test_assembly_pseudotensor_y_sign():
    # the y channel must enter as (a,d) minus (b,c); the flipped order is
    # a different operator and misses the direct builder by 4*w2y
    params = DiracParams(m=0.4, p=1.0, kappa=0.9, mu=1.3, E_field=1.5)
    ion = dirac_to_ion(params)
    direct = build_dirac_hamiltonian(params)
    flipped = IonParams(delta=ion.delta, eta_delta_omega=ion.eta_delta_omega,
                        omega1=ion.omega1,
                        omega2=(ion.omega2[0], -ion.omega2[1], ion.omega2[2]))
    bad = assemble_ion_hamiltonian(flipped, params.p)
    dev = np.max(np.abs(direct - bad))
    assert dev > 4.0 * abs(ion.omega2[1]) - 1e-12
    good = assemble_ion_hamiltonian(ion, params.p)
    assert np.max(np.abs(direct - good)) < 1e-12


def test_forward_map_values():
    params = DiracParams(m=1.2, p=1.0, kappa=0.8, mu=0.5, E_field=2.0,
                         theta=math.pi / 3)
    ion = dirac_to_ion(params)
    assert ion.delta == pytest.approx(0.6)
    assert ion.eta_delta_omega == 0.5
    ex, ey = 2.0 * math.cos(math.pi / 3), 2.0 * math.sin(math.pi / 3)
    np.testing.assert_allclose(ion.omega1, (0.8 * ex / 2.0, 0.8 * ey / 2.0, 0.0))
    np.testing.assert_allclose(ion.omega2, (0.5 * ex / 2.0, 0.5 * ey / 2.0, 0.0))


def test_inverse_map_zero_tensor_channel():
    """With the tensor channel off the field direction is the pseudotensor vector's.

    dirac_to_ion never produces these ion settings; the Dirac parameters
    they stand for are written out by hand: kappa = 0, mu = 1,
    E = 2*|omega2| and theta its direction.
    """
    ion = IonParams(delta=0.5, eta_delta_omega=0.5,
                    omega1=(0.0, 0.0, 0.0), omega2=(0.3, 0.4, 0.0))
    params = DiracParams(m=1.0, p=1.0, kappa=0.0, mu=1.0, E_field=1.0,
                         theta=math.atan2(0.4, 0.3))
    H0 = assemble_ion_hamiltonian(ion, 1.0)
    H1 = build_dirac_hamiltonian(params)
    assert np.max(np.abs(H0 - H1)) < 1e-12


def test_inverse_map_rescaled_sideband():
    """A sideband coupling other than 1/2 lands in the effective momentum.

    eta*delta*Omega = 0.8 at p = 1 stands for the momentum p = 1.6 of the
    direct builder, with the field carried by the tensor channel alone.
    """
    ion = IonParams(delta=0.5, eta_delta_omega=0.8,
                    omega1=(0.4, 0.3, 0.0), omega2=(0.0, 0.0, 0.0))
    params = DiracParams(m=1.0, p=1.6, kappa=1.0, mu=0.0, E_field=1.0,
                         theta=math.atan2(0.3, 0.4))
    H0 = assemble_ion_hamiltonian(ion, 1.0)
    H1 = build_dirac_hamiltonian(params)
    assert np.max(np.abs(H0 - H1)) < 1e-12


# ------------------------------------------- stacked assembly against one point

def formula_ion_hamiltonian(ion, p):
    """The ion assembly term by term, every level-pair operator from pair_sigma."""
    def sx(j, k):
        return pair_sigma("x", j, k)

    def sy(j, k):
        return pair_sigma("y", j, k)

    def sz(j, k):
        return pair_sigma("z", j, k)

    w1x, w1y, w1z = ion.omega1
    w2x, w2y, w2z = ion.omega2
    H = 2.0 * ion.delta * (sz("a", "d") + sz("b", "c"))
    H = H + 2.0 * ion.eta_delta_omega * p * (sx("a", "d") + sx("b", "c"))
    H = H + 2.0 * w1x * (sx("a", "b") - sx("c", "d"))
    H = H + 2.0 * w1y * (sy("a", "b") - sy("c", "d"))
    H = H + 2.0 * w1z * (sz("a", "b") - sz("c", "d"))
    H = H + 2.0 * w2x * (-sy("a", "d") - sy("b", "c"))
    H = H + 2.0 * w2y * (sx("a", "d") - sx("b", "c"))
    return H + 2.0 * w2z * (sy("b", "d") - sy("a", "c"))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


energies = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
couplings = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2.0 * math.pi, allow_nan=False) | st.just(math.pi / 4)
#: mapped points, with E = 0 and kappa = mu = 0 among them, and free ion settings
mapped_points = st.builds(
    lambda params: (dirac_to_ion(params), params.p),
    st.builds(DiracParams, m=energies, p=energies, kappa=couplings, mu=couplings,
              E_field=energies | st.just(0.0), theta=angles)
    | st.builds(DiracParams, m=energies, p=energies, kappa=st.just(0.0), mu=st.just(0.0),
                E_field=energies, theta=angles))
free_points = st.tuples(
    st.builds(IonParams, delta=energies, eta_delta_omega=couplings,
              omega1=st.tuples(couplings, couplings, couplings),
              omega2=st.tuples(couplings, couplings, couplings)),
    energies)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(mapped_points | free_points, min_size=1, max_size=10))
def test_stacked_assembly_matches_one_point_builds_bitwise(points):
    ions, momenta = zip(*points)
    stack = _assemble_stack(ions, momenta)
    assert stack.shape == (len(points), 4, 4)
    for i, (ion, p) in enumerate(points):
        one = assemble_ion_hamiltonian(ion, p)
        assert same_bits(stack[i], one), i
        # the level-pair sums built once give the term-by-term bits
        assert same_bits(one, formula_ion_hamiltonian(ion, p)), i
