import math

import numpy as np
import pytest

from bispinor.dirac import DiracParams, build_dirac_hamiltonian
from bispinor.ionmap import IonParams, assemble_ion_hamiltonian, dirac_to_ion, pair_sigma

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
