import math

import numpy as np
import pytest

from bispinor.correlations import COLUMNS, _checked_stack, sample_correlations_stack
from bispinor.linalg import partial_transpose

RNG = np.random.default_rng(17)


def random_density():
    G = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_local_unitaries():
    out = []
    for _ in range(2):
        G = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        Q, R = np.linalg.qr(G)
        out.append(Q * (np.diag(R) / np.abs(np.diag(R))))
    return out


def schmidt_state(chi):
    vec = np.zeros(4, dtype=complex)
    vec[0] = math.cos(chi)
    vec[3] = math.sin(chi)
    return np.outer(vec, vec.conj())


def isotropic(q):
    return q * schmidt_state(math.pi / 4) + (1.0 - q) * np.eye(4) / 4.0


def measures(rho):
    """The seven columns of one state, measured as a one-row stack."""
    return {name: values[0] for name, values in
            sample_correlations_stack(rho[None], [0.0]).items()}


def fano_data(rho):
    """a1, a2 and T of one state, through the validated one-row stack."""
    a1, a2, T = _checked_stack(rho[None])[1]
    assert a1.shape == a2.shape == (1, 3) and T.shape == (1, 3, 3)
    return a1[0], a2[0], T[0]


def test_fano_decompose_bell():
    a1, a2, T = fano_data(schmidt_state(math.pi / 4))
    np.testing.assert_allclose(a1, np.zeros(3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(a2, np.zeros(3), rtol=0, atol=1e-14)
    np.testing.assert_allclose(T, np.diag([1.0, -1.0, 1.0]), rtol=0, atol=1e-14)


def test_fano_decompose_product_state():
    a = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    b = np.array([[0.6, -0.25j], [0.25j, 0.4]])
    a1, a2, T = fano_data(np.kron(a, b))
    # T factorizes as the outer product of the two local vectors
    np.testing.assert_allclose(T, np.outer(a1, a2), rtol=0, atol=1e-12)


def test_fano_reconstruction():
    """rho = 1/4 (I + a1.s (x) I + I (x) a2.s + T_ij s_i (x) s_j)."""
    from bispinor.linalg import PAULI, IDENTITY_2

    rho = random_density()
    a1, a2, T = fano_data(rho)
    axes = ("x", "y", "z")
    rebuilt = np.eye(4, dtype=complex)
    for i, ax in enumerate(axes):
        rebuilt = rebuilt + a1[i] * np.kron(PAULI[ax], IDENTITY_2)
        rebuilt = rebuilt + a2[i] * np.kron(IDENTITY_2, PAULI[ax])
        for j, bx in enumerate(axes):
            rebuilt = rebuilt + T[i, j] * np.kron(PAULI[ax], PAULI[bx])
    np.testing.assert_allclose(rho, rebuilt / 4.0, rtol=0, atol=1e-12)


def test_fano_rejects_non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        fano_data(bad)


def test_negativity_anchors():
    assert measures(schmidt_state(math.pi / 4))["negativity"] == pytest.approx(1.0, abs=1e-12)
    assert measures(np.eye(4, dtype=complex) / 4.0)["negativity"] == 0.0
    v = np.kron([1.0, 0.0], [0.0, 1.0]).astype(complex)
    assert measures(np.outer(v, v))["negativity"] == 0.0


def test_negativity_isotropic_family():
    # max(0, (3q - 1)/2), entangled only above q = 1/3
    for q in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        want = max(0.0, (3.0 * q - 1.0) / 2.0)
        assert measures(isotropic(q))["negativity"] == pytest.approx(want, abs=1e-12)


def test_negativity_schmidt_closed_form():
    for chi in (0.0, 0.1, math.pi / 8, 0.6, math.pi / 4):
        assert measures(schmidt_state(chi))["negativity"] == pytest.approx(
            abs(math.sin(2.0 * chi)), abs=1e-12)


def test_negativity_side_symmetry():
    # transposing the other side gives the same trace norm
    for _ in range(5):
        rho = random_density()
        n2 = np.sum(np.abs(np.linalg.eigvalsh(partial_transpose(rho[None], 2)[0]))) - 1.0
        assert measures(rho)["negativity"] == pytest.approx(max(n2, 0.0), abs=1e-10)


def test_discord_anchors():
    bell = measures(schmidt_state(math.pi / 4))
    assert bell["discord_1"] == pytest.approx(0.5, abs=1e-12)
    assert bell["discord_2"] == pytest.approx(0.5, abs=1e-12)
    assert measures(np.eye(4, dtype=complex) / 4.0)["discord_1"] == 0.0
    v = np.kron([0.6, 0.8], [1.0, 0.0]).astype(complex)
    product = measures(np.outer(v, v))
    assert product["discord_1"] == pytest.approx(0.0, abs=1e-12)
    assert product["discord_2"] == pytest.approx(0.0, abs=1e-12)


def test_discord_schmidt_closed_form():
    for chi in (0.0, math.pi / 16, math.pi / 8, 3 * math.pi / 16, math.pi / 4):
        want = math.sin(2.0 * chi) ** 2 / 2.0
        got = measures(schmidt_state(chi))
        assert got["discord_1"] == pytest.approx(want, abs=1e-12)
        assert got["discord_2"] == pytest.approx(want, abs=1e-12)


def test_discord_local_unitary_invariance():
    """Both sides of the measure survive U1 (x) U2 conjugation."""
    for _ in range(5):
        rho = random_density()
        U1, U2 = random_local_unitaries()
        U = np.kron(U1, U2)
        rotated = measures(U @ rho @ U.conj().T)
        original = measures(rho)
        for side in ("discord_1", "discord_2"):
            assert rotated[side] == pytest.approx(original[side], abs=1e-10)


def test_discord_nonnegative_and_bounded():
    for _ in range(20):
        got = measures(random_density())
        for side in ("discord_1", "discord_2"):
            assert 0.0 <= got[side] <= 0.5 + 1e-12


def test_hierarchy_on_random_states():
    # squared half-negativity never exceeds side-1 discord
    for _ in range(50):
        got = measures(random_density())
        assert (got["negativity"] / 2.0) ** 2 <= got["discord_1"] + 1e-12


def test_purity_values():
    assert measures(schmidt_state(0.3))["purity"] == pytest.approx(1.0, abs=1e-12)
    assert measures(np.eye(4, dtype=complex) / 4.0)["purity"] == pytest.approx(0.25, abs=1e-14)
    # a state that is not Hermitian, not finite or not 4x4 is refused
    non_hermitian = np.eye(4, dtype=complex) / 4.0
    non_hermitian[0, 1] = 0.3
    for bad in (non_hermitian, np.full((4, 4), np.nan), np.eye(3)):
        with pytest.raises(ValueError):
            measures(bad)


def test_sample_correlations_fields():
    rho = schmidt_state(math.pi / 4)
    s = {name: values.tolist() for name, values in
         sample_correlations_stack(rho[None], [2.5]).items()}
    assert tuple(s) == COLUMNS
    assert s["t"] == [2.5]
    assert s["negativity"] == [pytest.approx(1.0, abs=1e-12)]
    assert s["discord_1"] == [pytest.approx(0.5, abs=1e-12)]
    assert s["discord_2"] == [pytest.approx(0.5, abs=1e-12)]
    assert s["purity"] == [pytest.approx(1.0, abs=1e-12)]
    assert s["min_eigenvalue"] == [pytest.approx(0.0, abs=1e-12)]
    assert s["trace_deviation"] == [pytest.approx(0.0, abs=1e-12)]


def test_sample_correlations_flags_trace_drift():
    s = sample_correlations_stack(np.eye(4, dtype=complex)[None] / 3.9, [0.0])
    assert abs(s["trace_deviation"][0]) > 1e-3
