"""The batched (B, 4, 4) engine against a per-sample loop reference.

The reference evolves one time at a time through the Kraus form of the
channel and a closed-form rotation (the analytic projector sum, or
cos/sin of H where H^2 is a multiple of the identity), so the engine's
numeric eigensystem is never checked against itself. It measures one
state at a time with numpy's eigvalsh and explicit Pauli traces. The
engine reorders the arithmetic, so the two are compared at a tolerance
fixed beforehand (1e-12 absolute on quantities of order one).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bispinor import scenario
from bispinor.correlations import COLUMNS, sample_correlations_stack
from bispinor.dirac import DiracParams, operator_stacks, spectral_stacks
from bispinor.errors import InvariantViolation
from bispinor.linalg import IDENTITY_2, PAULI, partial_transpose
from bispinor.noise import apply_channel, build_kraus_set, evolve_noisy_stack
from bispinor.scenario import ScenarioConfig, initial_state, run_trajectory
from stack_contract import (BLOCK_STATES, NO_HAMILTONIAN, ROUNDING_RATE, ROUNDING_TIMES, check_case,
                            check_stack, density_matrices, hamiltonian, rates, times, unit)

TOL = 1e-12
PROPERTY = settings(max_examples=40)
FIELDS = ("negativity", "discord_1", "discord_2", "purity", "min_eigenvalue",
          "trace_deviation")


# ------------------------------------------------------------- reference

def reference_evolution(params, t):
    """U(t) = exp(-i H t) from closed forms, without a numeric eigensolver.

    With E = 0 or kappa = mu = 0 the field terms vanish, H = m beta + p alpha_x
    squares to (m^2 + p^2) I and U = cos(w t) I - i sin(w t) H / w. Otherwise
    U = sum_k exp(-i lambda_k t) P_k over the analytic projectors.
    """
    if params.E_field == 0.0 or params.kappa == params.mu == 0.0:
        w = math.hypot(params.m, params.p)
        H = operator_stacks([params])[0][0]
        return math.cos(w * t) * np.eye(4) - 1j * (math.sin(w * t) / w) * H
    _, _, _, lambdas, projectors = spectral_stacks([params])
    return sum(np.exp(-1j * lam * t) * P for lam, P in zip(lambdas[0], projectors[0]))


def reference_state(rho0, params, rate, t):
    """Kraus channel, then U(t) rho U(t)^dag with the closed-form U."""
    U = reference_evolution(params, t)
    return U @ apply_channel(rho0, build_kraus_set(rate, [t]))[0] @ U.conj().T


def _clamped(value):
    return 0.0 if abs(value) < 1e-12 else value


def reference_measures(rho):
    """Measures of one state from per-matrix eigvalsh and explicit Pauli traces."""
    def tr(op):
        return complex(np.trace(rho @ op)).real

    axes = ("x", "y", "z")
    a1 = np.array([tr(np.kron(PAULI[a], IDENTITY_2)) for a in axes])
    a2 = np.array([tr(np.kron(IDENTITY_2, PAULI[b])) for b in axes])
    T = np.array([[tr(np.kron(PAULI[a], PAULI[b])) for b in axes] for a in axes])
    discords = []
    for a, gram in ((a1, T @ T.T), (a2, T.T @ T)):
        k_max = np.linalg.eigvalsh(np.outer(a, a) + gram)[-1]
        discords.append(_clamped(0.25 * (a @ a + np.sum(T * T) - k_max)))
    pt_eigs = np.linalg.eigvalsh(partial_transpose(rho[None], 1)[0])
    return {
        "negativity": _clamped(np.sum(np.abs(pt_eigs)) - 1.0),
        "discord_1": discords[0],
        "discord_2": discords[1],
        "purity": np.trace(rho @ rho).real,
        "min_eigenvalue": np.linalg.eigvalsh(rho)[0],
        "trace_deviation": np.trace(rho).real - 1.0,
    }


def assert_matches_reference(columns, k, rho):
    """Row k of a column table against the reference measures of rho."""
    want = reference_measures(rho)
    for field in FIELDS:
        assert abs(columns[field][k] - want[field]) <= TOL, field


def assert_same_columns(got, want, names=COLUMNS):
    assert tuple(got) == tuple(want) == names
    for name in names:
        assert np.array_equal(got[name], want[name]), name


# ------------------------------------------------------------- strategies

# bounded away from a degenerate spectrum, where the analytic projectors
# are ill-conditioned or undefined
nondegenerate_params = st.builds(
    lambda m, E, k, mu, theta: DiracParams(m=m, p=1.0, kappa=k, mu=mu,
                                           E_field=E, theta=theta),
    st.floats(0.0, 3.0), st.floats(0.25, 2.0),
    st.floats(0.25, 1.5), st.floats(-1.5, -0.25) | st.floats(0.25, 1.5),
    st.floats(0.3, 1.3),
)
# E = 0, or kappa = mu = 0: degenerate spectrum, no analytic projectors
degenerate_params = st.one_of(
    st.builds(lambda m, k, mu: DiracParams(m=m, p=1.0, kappa=k, mu=mu, E_field=0.0),
              st.floats(0.0, 3.0), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.builds(lambda m, E: DiracParams(m=m, p=1.0, kappa=0.0, mu=0.0, E_field=E),
              st.floats(0.0, 3.0), st.floats(0.0, 2.0)),
)


# ------------------------------------------------------------- evolution

@PROPERTY
@given(density_matrices(), nondegenerate_params | degenerate_params, rates,
       st.lists(times, min_size=1, max_size=6))
def test_evolve_noisy_stack_matches_kraus_reference(rho0, params, rate, ts):
    got = evolve_noisy_stack(rho0, hamiltonian(params), rate, ts)
    assert got.shape == (len(ts), 4, 4)
    for state, t in zip(got, ts):
        np.testing.assert_allclose(state, reference_state(rho0, params, rate, t),
                                   rtol=0, atol=TOL)


def test_scalar_evolution_is_one_row_of_the_stack():
    check_case("evolve_noisy_stack")


def mask_equals_kraus_coefficients(context, t, mask):
    # gamma is computed the same way, so the two forms agree bit for bit
    g = build_kraus_set(context[2], [t])[0, 0, 1, 1].real
    g2 = g * g
    np.testing.assert_array_equal(mask[0], [[1.0, g, g, g2], [g, 1.0, g2, g],
                                            [g, g2, 1.0, g], [g2, g, g, 1.0]])


@PROPERTY
@given(rates, st.lists(times, min_size=1, max_size=8))
@example(ROUNDING_RATE, ROUNDING_TIMES)
def test_dephasing_mask_equals_kraus_coefficients(rate, ts):
    # at H = 0 the engine applies the channel alone, and on the all-ones
    # matrix it returns the channel's elementwise coefficients, row by row
    context = (np.ones((4, 4)), NO_HAMILTONIAN, rate)
    assert check_stack("evolve_noisy_stack", context, ts, mask_equals_kraus_coefficients) is None


def test_dephasing_mask_rejects_negative_time():
    # at H = 0, as at any H: the first refused time refuses the stack
    refusal = check_stack("evolve_noisy_stack",
                          (np.ones((4, 4)), NO_HAMILTONIAN, 0.5),
                          [0.0, 1.0, -0.01, math.nan])
    assert "forward in time" in str(refusal)


def test_kraus_stack_rows_are_one_row_calls():
    check_case("build_kraus_set")
    check_case("apply_channel")


# ------------------------------------------------------------- measures

@PROPERTY
@given(st.lists(density_matrices(), min_size=1, max_size=5))
def test_correlation_stack_matches_loop_reference(states):
    columns = sample_correlations_stack(np.array(states))
    assert tuple(columns) == COLUMNS[1:]
    for values in columns.values():
        assert values.shape == (len(states),) and values.dtype == np.float64
    for k, rho in enumerate(states):
        assert_matches_reference(columns, k, rho)


def test_stack_rows_equal_one_row_calls():
    # one state is measured as a one-row stack, with the bits of its row,
    # in a block-sized stack too
    check_case("sample_correlations_stack")


def test_block_sized_stack_rows_equal_one_row_calls():
    # a block, and stacks of 1-5 rows: a row's bits may hang on the stack
    # length at either end (a BLAS product, for one, picks its kernel by it)
    for length in (1, 2, 3, 4, 5, len(BLOCK_STATES)):
        assert check_stack("sample_correlations_stack", None, list(BLOCK_STATES[:length])) is None


# ------------------------------------------------------------- trajectory

FIG = dict(m_over_p=1.0, E_over_p=1.0, kappa=1.0, mu=1.0, gamma_over_p=0.5,
           initial_state="cat")


def _trajectory_config(n_samples, dt=0.01, **overrides):
    return ScenarioConfig(t_max=(n_samples - 1) * dt, dt=dt, **dict(FIG, **overrides))


def _check_against_reference(columns, cfg):
    params = scenario.scenario_params(cfg)
    rho0 = initial_state(cfg.initial_state)
    for k in range(cfg.n_samples):
        t = k * cfg.dt
        rho = rho0 if k == 0 else reference_state(rho0, params, cfg.gamma_over_p, t)
        assert columns["t"][k] == t
        assert_matches_reference(columns, k, rho)


@pytest.mark.parametrize("block, n_samples", [
    (1, 3),                                           # every block has length 1
    (4, 4),                                           # exactly one full block
    (4, 5),                                           # one full block plus one
    (scenario.BLOCK_SAMPLES, scenario.BLOCK_SAMPLES),
    (scenario.BLOCK_SAMPLES, scenario.BLOCK_SAMPLES + 1),
])
def test_trajectory_blocks_match_loop_reference(monkeypatch, block, n_samples):
    monkeypatch.setattr(scenario, "BLOCK_SAMPLES", block)
    cfg = _trajectory_config(n_samples)
    assert cfg.n_samples == n_samples
    columns = run_trajectory(cfg)
    assert tuple(columns) == COLUMNS
    for values in columns.values():
        assert values.shape == (n_samples,) and values.dtype == np.float64
    _check_against_reference(columns, cfg)


def test_trajectory_degenerate_fallback_matches_loop_reference():
    cfg = _trajectory_config(40, dt=0.05, E_over_p=0.0)
    _check_against_reference(run_trajectory(cfg), cfg)


def test_trajectory_does_not_depend_on_block_size(monkeypatch):
    figure = _trajectory_config(2001)  # the paper figure, several blocks long
    assert figure.n_samples > scenario.BLOCK_SAMPLES
    cases = ((_trajectory_config(300), (1, 7, 299, 300)), (figure, (256,)))
    references = [run_trajectory(cfg) for cfg, _ in cases]
    for (cfg, blocks), reference in zip(cases, references):
        for block in blocks:
            monkeypatch.setattr(scenario, "BLOCK_SAMPLES", block)
            assert_same_columns(run_trajectory(cfg), reference)


def test_initial_row_is_the_initial_state_itself():
    # U(0) = V V^dag is the identity only up to roundoff,
    # which shows in the last bits of a pure state's smallest eigenvalue
    rng = np.random.default_rng(11)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho0 = np.outer(psi, psi.conj())
    cfg = _trajectory_config(3, initial_state="custom", custom_state=tuple(rho0.ravel()))
    first = {name: values[:1] for name, values in run_trajectory(cfg).items() if name != "t"}
    assert_same_columns(first, sample_correlations_stack(rho0[None]), COLUMNS[1:])


@PROPERTY
@given(st.lists(unit, min_size=16, max_size=16))
def test_clamp_gives_exact_zeros_on_product_states(entries):
    factors = []
    for chunk in (entries[:8], entries[8:]):
        G = np.array(chunk[:4]).reshape(2, 2) + 1j * np.array(chunk[4:]).reshape(2, 2)
        sigma = G @ G.conj().T
        assume(np.trace(sigma).real > 1e-3)
        factors.append(sigma / np.trace(sigma).real)
    rho = np.kron(*factors)
    columns = sample_correlations_stack(rho[None])
    for name in ("negativity", "discord_1", "discord_2"):
        (value,) = columns[name].tolist()
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


@pytest.mark.parametrize("bad_indices, earliest", [
    ((6, 9), 6),     # mid-block in the second block, a later one in the third
    ((5, 6), 5),     # two violations inside one block
    ((3, 4), 3),     # last sample of one block, first of the next
])
def test_violation_mid_block_raises_for_earliest_time(monkeypatch, bad_indices, earliest):
    cfg = _trajectory_config(12)
    real_stack = scenario.sample_correlations_stack
    # the running row count across the blocks of 4 is the sample index
    rows = itertools.count()

    def corrupting_stack(rhos):
        columns = real_stack(rhos)
        bad = np.isin([next(rows) for _ in rhos], bad_indices)
        columns["trace_deviation"] = np.where(bad, 1e-3, columns["trace_deviation"])
        return columns

    monkeypatch.setattr(scenario, "BLOCK_SAMPLES", 4)
    monkeypatch.setattr(scenario, "sample_correlations_stack", corrupting_stack)
    with pytest.raises(InvariantViolation,
                       match=rf"trace deviation violated at t = {earliest * cfg.dt:g} "):
        run_trajectory(cfg)


def test_sample_times_are_k_dt_bit_for_bit():
    cfg = _trajectory_config(1001, dt=0.013)
    got = run_trajectory(cfg)["t"].tolist()
    assert got == [k * cfg.dt for k in range(cfg.n_samples)]
    assert all(math.isfinite(t) for t in got)
