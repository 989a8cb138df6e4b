"""The stack contract, checked one way for every public stacked function.

A function that takes a stack of rows (points, times, Kraus rows, states
or matrices) promises: (a) row k of a stack has the bits of a one-row call
on row k; (b) the first refused row refuses the stack, with the exception
type and message of a one-row call on that row. CASES holds one case per
function, run on fixed stacks (cut to 0-5 rows, and whole) and on
hypothesis draws of 1-5 rows, each also with refused rows mixed in. A
zero-row stack refuses nothing and gives arrays of 0 rows; the fixed
stacks of array rows are arrays, so a cut keeps the row shape. The
random fixed stacks of BLOCK rows round in the last bit far more often
than hypothesis's mostly simple draws, and BLAS picks kernels by length.
"""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bispinor import scenario
from bispinor.correlations import sample_correlations_stack
from bispinor.dirac import DiracParams, closed_form_spectrum, operator_stacks, spectral_stacks
from bispinor.ionmap import IonParams, assemble_ion_stack, dirac_to_ion
from bispinor.linalg import partial_transpose, top_eigenvalue_3x3
from bispinor.noise import apply_channel, build_kraus_set, evolve_noisy_stack

BLOCK = scenario.BLOCK_SAMPLES + 37
#: H = 0: the engine applies the dephasing channel alone
NO_HAMILTONIAN = np.zeros((4, 4))


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def hamiltonian(params):
    """H of one point, as a one-row call."""
    return operator_stacks([params])[0][0]


def traced_peak(call) -> int:
    """Bytes call() allocates at its peak under tracemalloc, after a warm call.

    numpy's buffers are traced too; what call() keeps is counted.
    """
    call()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------- rows

unit = st.floats(-1.0, 1.0)
times = st.floats(0.0, 20.0)
rates = st.floats(0.0, 2.0)
energies = st.floats(0.0, 5.0)
couplings = st.floats(-3.0, 3.0)
angles = st.floats(0.0, 2.0 * math.pi) | st.just(math.pi / 4)


def _points(E_field=energies, kappa=couplings, mu=couplings):
    return st.builds(DiracParams, m=energies, kappa=kappa, mu=mu, E_field=E_field,
                     theta=angles)


#: random points, with E = 0 and kappa = mu = 0 (degenerate spectra) among them
dirac_points = _points() | _points(E_field=st.just(0.0)) | _points(kappa=st.just(0.0),
                                                                   mu=st.just(0.0))
#: IonParams: mapped points, and free ion settings
ion_points = (st.builds(dirac_to_ion, dirac_points)
              | st.builds(IonParams, delta=energies, eta_delta_omega=couplings,
                          omega1=st.tuples(couplings, couplings),
                          omega2=st.tuples(couplings, couplings)))


@st.composite
def hermitian_matrices(draw):
    """G + G^dag of a random complex G: Hermitian bit for bit, in every direction."""
    entries = np.array(draw(st.lists(couplings, min_size=32, max_size=32)))
    G = entries[:16].reshape(4, 4) + 1j * entries[16:].reshape(4, 4)
    return G + G.conj().T


#: generators from both routes, random Hermitian ones (which reach the
#: directions neither route drives, such as sigma_z (x) sigma_z), and H = 0
generators = (dirac_points.map(hamiltonian)
              | ion_points.map(lambda ion: assemble_ion_stack([ion])[0])
              | hermitian_matrices()
              | st.just(NO_HAMILTONIAN))


@st.composite
def density_matrices(draw):
    entries = np.array(draw(st.lists(unit, min_size=32, max_size=32)))
    G = entries[:16].reshape(4, 4) + 1j * entries[16:].reshape(4, 4)
    rho = G @ G.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-3)
    return rho / trace


#: times the Kraus reference and the engine refuse, each with its own message
REFUSED_TIMES = (-0.01, -math.inf, math.inf, math.nan)
#: a time the engine refuses where H has an eigenvalue of magnitude >= 2:
#: its phases lambda_k t overflow
HUGE_TIME = 1e308


def engine_refused_times(context):
    """The times the engine refuses in a (state, H, rate) context."""
    refused = st.sampled_from(REFUSED_TIMES)
    top = float(np.max(np.abs(np.linalg.eigvalsh(context[1]))))
    return refused | st.just(HUGE_TIME) if top >= 2.0 else refused


#: Kraus rows that fail completeness: K_0 (a 1 on its diagonal) scaled, and NaN
BROKEN_KRAUS_ROWS = (build_kraus_set(0.5, [1.0])[0]
                     * np.array([1.0 + 1e-9, 1.0, 1.0, 1.0])[:, None, None],
                     np.full((4, 4, 4), np.nan))
_SKEW = np.zeros((4, 4))
_SKEW[0, 1], _SKEW[1, 0] = 1.0, -1.0
#: a state refused as not finite, one as not Hermitian, and two Hermitian to
#: 1e-12 of their scale 1000 whose Pauli traces (on I (x) sigma_y) keep an
#: imaginary part of 4e-10 and 9.8e-10
REFUSED_STATES = (np.diag([0.25, 0.25, 0.25, np.nan]), np.eye(4) / 4.0 + 1e-9 * _SKEW.clip(0.0),
                  *(1000.0 * np.eye(4) + skew * _SKEW for skew in (2e-10, 4.9e-10)))


# ------------------------------------------------------------- fixed stacks

#: spectral_stacks accepts the first point and refuses the second (g2 = 0);
#: the third is the point m = 2, E = 0.8 at p = 0.7, in units of p
MIXED_GRID = [DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=1.0),
              DiracParams(m=0.5, kappa=0.0, mu=0.0, E_field=2.0, theta=1.3),
              DiracParams(m=2.0 / 0.7, kappa=-1.5, mu=0.4, E_field=0.8 / 0.7, theta=5.9),
              DiracParams(m=1.0, kappa=1.0, mu=1.0, E_field=0.0)]
#: BLOCK rows of uniform draws: a Dirac point reads the first five columns,
#: an ion setting the first six
_UNIFORM = np.random.default_rng(5).uniform(0.0, 5.0, (BLOCK, 8))
_ROUNDING = np.random.default_rng(5)
_G = _ROUNDING.normal(size=(4, 4)) + 1j * _ROUNDING.normal(size=(4, 4))
ROUNDING_STATE = _G @ _G.conj().T / np.trace(_G @ _G.conj().T).real
ROUNDING_RATE = float(_ROUNDING.uniform(0.0, 2.0))
ROUNDING_TIMES = _ROUNDING.uniform(0.0, 20.0, BLOCK).tolist()
#: BLOCK random states, normalised
_G = np.random.default_rng(5).normal(size=(BLOCK, 4, 4, 2)) @ np.array([1.0, 1j])
BLOCK_STATES = _G @ np.swapaxes(_G.conj(), 1, 2)
BLOCK_STATES /= np.trace(BLOCK_STATES, axis1=1, axis2=2).real[:, None, None]


# ------------------------------------------------------------- cases

class Case(NamedTuple):
    stacked: object     # stacked(context, rows) calls the function on a list of rows
    context: object     # strategy for what the rows share, such as a time stack's state
    row: object         # strategy for a row
    refused: object     # strategy for a refused row, a function of the context giving
                        # one, or None where no row is refused
    stacks: tuple       # fixed (context, rows) stacks
    max_examples: int = 40


_NONE = st.none()
_DIRAC_STACKS = ((None, MIXED_GRID),
                 (None, [DiracParams(m=m, kappa=kappa, mu=mu, E_field=E, theta=theta)
                         for m, kappa, mu, E, theta in _UNIFORM[:, :5].tolist()]))


def _dirac_case(stacked, refused=None):
    return Case(lambda _, grid: stacked(grid), _NONE, dirac_points, refused, _DIRAC_STACKS, 100)


CASES = {
    "operator_stacks": _dirac_case(operator_stacks),
    "spectral_stacks": _dirac_case(spectral_stacks, _points(E_field=st.just(0.0))),
    "closed_form_spectrum": _dirac_case(closed_form_spectrum),
    "assemble_ion_stack": Case(
        lambda _, ions: assemble_ion_stack(ions), _NONE, ion_points, None,
        ((None, [IonParams(v[0], v[1], v[2:4], v[4:6]) for v in _UNIFORM.tolist()]),), 100),
    "build_kraus_set": Case(build_kraus_set, rates, times, st.sampled_from(REFUSED_TIMES),
                            ((ROUNDING_RATE, ROUNDING_TIMES),)),
    "apply_channel": Case(
        apply_channel, density_matrices(),
        st.builds(lambda rate, t: build_kraus_set(rate, [t])[0], rates, times),
        st.sampled_from(BROKEN_KRAUS_ROWS),
        ((ROUNDING_STATE, build_kraus_set(ROUNDING_RATE, ROUNDING_TIMES)),)),
    "evolve_noisy_stack": Case(
        lambda context, ts: evolve_noisy_stack(*context, ts),
        st.tuples(density_matrices(), generators, rates), times, engine_refused_times,
        (((ROUNDING_STATE, hamiltonian(MIXED_GRID[0]), ROUNDING_RATE), ROUNDING_TIMES),)),
    "sample_correlations_stack": Case(
        lambda _, rhos: sample_correlations_stack(rhos), _NONE,
        density_matrices(), st.sampled_from(REFUSED_STATES),
        # and two refused states, whichever check reads which first; a NaN or
        # an inf entry, whose Pauli traces are NaN, refuses before the traces
        ((None, BLOCK_STATES), *((None, np.array([REFUSED_STATES[i], REFUSED_STATES[j]]))
                                 for i, j in ((1, 0), (2, 3), (2, 1), (0, 2))),
         (None, np.array([np.diag([0.25, 0.25, 0.25, np.inf]), REFUSED_STATES[2]])))),
    "partial_transpose": Case(
        lambda side, rhos: partial_transpose(rhos, side), st.sampled_from([1, 2]),
        density_matrices(), None, ((1, BLOCK_STATES), (2, BLOCK_STATES))),
    # the real 3x3 corner of a state is symmetric and positive
    "top_eigenvalue_3x3": Case(
        lambda _, ks: top_eigenvalue_3x3(ks), _NONE,
        st.builds(lambda entries, scale: scale * np.array(entries).reshape(3, 3),
                  st.lists(unit, min_size=9, max_size=9), energies),
        None, ((None, BLOCK_STATES.real[:, :3, :3]),)),
}


# ------------------------------------------------------------- the check

def check_stack(name, context, rows, row_check=None):
    """(b) if a one-row call refuses some row, else (a), on one stack of CASES[name].

    row_check(context, row, one) also runs on each row of an accepted stack,
    `one` the result of its one-row call. Returns the refusal, or None.
    """
    stacked = CASES[name].stacked
    ones = []
    for row in rows:
        try:
            ones.append(stacked(context, [row]))
        except ValueError as refusal:
            with pytest.raises(ValueError) as info:
                stacked(context, rows)
            assert (type(info.value), str(info.value)) == (type(refusal), str(refusal)), name
            return info.value
    got = _arrays(stacked(context, rows))
    assert all(len(values) == len(rows) for values in got), name
    for k, (row, one) in enumerate(zip(rows, ones)):
        assert all(same_bits(values[k:k + 1], value)
                   for values, value in zip(got, _arrays(one), strict=True)), (name, k)
        if row_check is not None:
            row_check(context, row, one)
    return None


def _arrays(out):
    """The arrays of a stacked result: its columns, its tuple, or itself."""
    return list(out.values() if isinstance(out, dict) else out if isinstance(out, tuple)
                else [out])


def check_case(*names, **row_checks):
    """Both promises for each case named, on its fixed stacks and on hypothesis draws.

    The cases named share their strategies and fixed stacks, so one draw
    serves them all. row_checks maps a case name to its check_stack row_check.
    """
    case = CASES[names[0]]
    assert all((CASES[name].context, CASES[name].row, CASES[name].stacks)
               == (case.context, case.row, case.stacks) for name in names)
    for context, rows in case.stacks:
        for length in sorted({min(n, len(rows)) for n in (0, 1, 2, 3, 4, 5, len(rows))}):
            for name in names:
                check_stack(name, context, rows[:length], row_checks.get(name))

    @settings(max_examples=max(CASES[name].max_examples for name in names))
    @given(case.context, st.lists(case.row, min_size=1, max_size=5), st.data())
    def drawn(context, rows, data):
        for name in names:
            check_stack(name, context, rows, row_checks.get(name))
            refused = CASES[name].refused
            if refused is not None:
                if callable(refused):
                    refused = refused(context)
                mixed = list(rows)
                for _ in range(data.draw(st.integers(1, 2))):
                    mixed.insert(data.draw(st.integers(0, len(mixed))), data.draw(refused))
                assert check_stack(name, context, mixed) is not None

    drawn()
