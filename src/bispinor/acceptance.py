"""Built-in acceptance battery.

Eleven numbered checks cover the package end to end: spectrum and
projector algebra, the ion-map equivalence, channel physicality, the
channel composed with the rotation, correlation-measure anchors,
trajectory features for the catalog scenarios, the measure hierarchy,
pure-state closed forms and output determinism. The CLI `selftest`
subcommand and the acceptance test module both run exactly these
functions, so the shipped package can always re-verify itself. They
import no underscore name from the other modules, so they check what a
user can call.

Criteria 1-6 and 10 evaluate their inputs as stacks: the grid
Hamiltonians, spectra, projectors and ion assemblies, and the
closed-form spectrum, come from the builders of dirac and ionmap as
(N, ...) arrays, the channel and composition checks evolve all times
of a start and rate in one engine call against one Kraus stack per rate,
and the measure anchors are one stack of states each. Each element gets
the arithmetic a per-item loop would give it, so the worst deviations
they report are the same bits.

The grid is 48 points at the paper's field angle theta = pi/4, where
E_x = E_y and a swap of x and y leaves every check unchanged. So
criteria 1 and 3 run it at every angle of GRID_THETA. Criterion 2 keeps
pi/4: at theta = 0 with m = 0, g2 = 0 and the projectors are undefined.
Criterion 5 adds an E = 0 point, whose spectrum is degenerate, as that
of every run at E = 0 is.

Deviations are folded with numpy's max, which keeps a NaN (Python's
max(0.0, nan) is 0.0), so a NaN anywhere fails its criterion.

Each criterion returns (ok, detail). Two feature checks (7 and 8) are
expected to fail under the implemented one-shot dephasing composition;
they are kept as stated rather than loosened, and their detail strings
report the measured values.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np

from .correlations import sample_correlations_stack
from .dirac import DiracParams, closed_form_spectrum, operator_stacks, spectral_stacks
from .ionmap import assemble_ion_stack, dirac_to_ion
from .noise import KRAUS_TOL, apply_channel, build_kraus_set, evolve_noisy_stack
from .scenario import (MEASURE_TOL, PSD_TOL, TRACE_TOL, ScenarioConfig, death_runs,
                       initial_state, run_scenario, run_trajectory)

GRID_M = (0.0, 0.5, 1.0, 10.0)
GRID_E = (0.5, 1.0, 2.0)
GRID_COUPLING = (0.5, 1.0)
#: field angles of criteria 1 and 3, the paper's pi/4 first
GRID_THETA = (math.pi / 4, 0.0, math.pi / 6, math.pi / 3, math.pi / 2)

#: the figure configuration: E/p = 1, kappa = mu = 1, Gamma/p = 1/2
FIG_KWARGS = dict(E_over_p=1.0, kappa=1.0, mu=1.0, gamma_over_p=0.5,
                  t_max=20.0, dt=0.01)

#: no Hamiltonian: eigh of the zero matrix returns V = I, so the engine
#: applies the channel alone
NO_HAMILTONIAN = np.zeros((4, 4))


def _product_state() -> np.ndarray:
    """A pure product state whose 16 entries are all nonzero, some complex."""
    v1 = np.array([math.cos(0.3), math.sin(0.3)], dtype=complex)
    v2 = np.array([math.cos(1.1), math.sin(1.1) * np.exp(0.4j)], dtype=complex)
    return np.outer(np.kron(v1, v2), np.kron(v1, v2).conj())


def _grid(theta=math.pi / 4) -> list:
    return [DiracParams(m=m, p=1.0, kappa=k, mu=mu, E_field=E, theta=theta)
            for m, E, k, mu in itertools.product(GRID_M, GRID_E, GRID_COUPLING,
                                                 GRID_COUPLING)]


def _tilted_grid() -> list:
    """The grid at every angle of GRID_THETA, angle outer: 240 points."""
    return [params for theta in GRID_THETA for params in _grid(theta)]


class AcceptanceCache:
    """Shares the expensive figure trajectories between criteria.

    Each trajectory is run_trajectory's dict of columns.
    """

    def __init__(self):
        self.started = time.monotonic()
        self._trajs = {}

    def traj(self, state: str, m: float):
        key = (state, m)
        if key not in self._trajs:
            cfg = ScenarioConfig(m_over_p=m, initial_state=state, **FIG_KWARGS)
            self._trajs[key] = run_trajectory(cfg)
        return self._trajs[key]

    def all_trajectories(self):
        for state, m in (("a", 1.0), ("cat", 0.0), ("cat", 1.0),
                         ("werner", 0.0), ("werner", 1.0)):
            yield self.traj(state, m)

    def column(self, name: str) -> np.ndarray:
        """One column of every acceptance trajectory, end to end."""
        return np.concatenate([columns[name] for columns in self.all_trajectories()])


def criterion_01(cache) -> tuple:
    """Closed-form eigenvalues match numeric LAPACK diagonalization (rel 1e-10).

    The closed form is one stack over the grid at every angle of
    GRID_THETA and two anchors.
    """
    grid = _tilted_grid()
    anchors = [DiracParams(m, 1.0, 1.0, 1.0, 1.0) for m in (0.0, 1.0)]
    closed = np.sort(closed_form_spectrum(grid + anchors))
    numeric = np.linalg.eigvalsh(operator_stacks(grid)[0])
    worst = float(np.max(np.abs(closed[:-2] - numeric) / np.abs(closed[:-2])))
    want = np.array([[-math.sqrt(5.0), -1.0, 1.0, math.sqrt(5.0)],
                     sorted(sgn * math.sqrt(4.0 + pm * 2.0 * math.sqrt(2.0))
                            for sgn in (1.0, -1.0) for pm in (1.0, -1.0))])
    anchors_ok = bool(np.all(np.abs(closed[-2:] - want) <= 1e-10 * np.abs(want)))
    ok = worst <= 1e-10 and anchors_ok
    return ok, (f"worst relative deviation {worst:.3g} over {len(grid)} grid points "
                f"at {len(GRID_THETA)} angles, anchors ok: {anchors_ok}")


def criterion_02(cache) -> tuple:
    """Projector completeness, orthogonality, idempotence, trace, eigenrelation."""
    # P is (48, 4, 4, 4): grid point, projector (SPECTRAL_KEYS order), matrix
    H, _, _, lam, P = spectral_stacks(_grid())
    total = P[:, 0] + P[:, 1] + P[:, 2] + P[:, 3]
    # P_i P_j - delta_ij P_i
    products = P[:, :, None] @ P[:, None, :]
    products[:, range(4), range(4)] -= P
    worst = float(np.max([np.max(np.abs(total - np.eye(4))),
                          np.max(np.abs(np.trace(P, axis1=-2, axis2=-1) - 1.0)),
                          np.max(np.abs(H[:, None] @ P - lam[..., None, None] * P)),
                          np.max(np.abs(products))]))
    return worst <= 1e-10, f"worst deviation {worst:.3g} across all grid points"


def criterion_03(cache) -> tuple:
    """Ion assembly equals the direct builder entrywise to 1e-12, at every angle."""
    grid = _tilted_grid()
    direct = operator_stacks(grid)[0]
    mapped = assemble_ion_stack([dirac_to_ion(params) for params in grid],
                                [params.p for params in grid])
    worst = float(np.max(np.abs(direct - mapped)))
    return worst <= 1e-12, (f"worst entrywise deviation {worst:.3g} over {len(grid)} "
                            f"grid points at {len(GRID_THETA)} angles")


def criterion_04(cache) -> tuple:
    """Kraus completeness, engine channel equals Kraus sum, physical diagnostics.

    With NO_HAMILTONIAN the engine, evolve_noisy_stack, applies its
    channel alone. Fed a product state whose 16 entries are all nonzero,
    all four times of a rate in one call, it must reproduce the operator
    sum of the rate's Kraus stack to KRAUS_TOL on the (Gamma, t) grid, so
    a wrong coherence factor and a transposed or conjugated output each
    fail. The trajectory diagnostics are read from every acceptance run.
    """
    worst_kraus = 0.0
    worst_engine = 0.0
    times = (0.0, 0.7, 5.0, 50.0)
    state = _product_state()
    for gamma in (0.0, 0.5, 2.0):
        ks = build_kraus_set(gamma, times)  # (t, k, 4, 4)
        total = np.sum(np.swapaxes(ks.conj(), -1, -2) @ ks, axis=1)
        worst_kraus = np.maximum(worst_kraus, np.max(np.abs(total - np.eye(4))))
        outs = evolve_noisy_stack(state, NO_HAMILTONIAN, gamma, times)
        worst_engine = np.maximum(worst_engine,
                                  np.max(np.abs(outs - apply_channel(state, ks))))
    worst_trace = float(np.max(np.abs(cache.column("trace_deviation")), initial=0.0))
    worst_eig = float(np.min(cache.column("min_eigenvalue"), initial=0.0))
    purity = cache.column("purity")
    pur_lo = float(np.min(purity, initial=1.0))
    pur_hi = float(np.max(purity, initial=0.0))
    ok = (worst_kraus <= KRAUS_TOL and worst_engine <= KRAUS_TOL
          and worst_trace <= TRACE_TOL and worst_eig >= -PSD_TOL
          and 0.25 - PSD_TOL <= pur_lo and pur_hi <= 1.0 + PSD_TOL)
    return ok, (f"kraus dev {worst_kraus:.3g}, engine vs kraus dev {worst_engine:.3g}, "
                f"trace dev {worst_trace:.3g}, "
                f"min eig {worst_eig:.3g}, purity in [{pur_lo:.6g}, {pur_hi:.6g}]")


def criterion_05(cache) -> tuple:
    """Noisy evolution equals U(t) [sum_k K_k rho0 K_k^dag] U(t)^dag.

    U(t) shares neither the engine's eigh nor its coherence masks, so an
    engine that rotates before the channel fails. At E = 1 it is
    sum_k exp(-i lambda_k t) P_k from the closed-form projectors. At
    E = 0 the spectrum is degenerate and has no projectors, but
    H^2 = w^2 I with w^2 = m^2 + p^2, so U(t) = cos(w t) I - i sin(w t) H / w;
    the product start, whose 16 entries are all nonzero, is evolved there.
    Gamma = 0 (Kraus set {I, 0, 0, 0}) is the noiseless limit.
    """
    times = np.array([0.5, 1.0, 5.0, 20.0])
    params = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=1.0)
    H, _, _, lambdas, P = spectral_stacks([params])
    terms = np.exp(-1j * np.multiply.outer(times, lambdas[0]))[..., None, None] * P[0]
    zero_field = DiracParams(m=1.0, p=1.0, kappa=1.0, mu=1.0, E_field=0.0)
    w = math.hypot(zero_field.m, zero_field.p)
    H_zero_field = operator_stacks([zero_field])[0][0]
    U_zero_field = (np.cos(w * times)[:, None, None] * np.eye(4)
                    - 1j * (np.sin(w * times) / w)[:, None, None] * H_zero_field)
    starts = [initial_state(name) for name in ("a", "cat", "werner")] + [_product_state()]
    cases = ((H[0], terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3], starts),
             (H_zero_field, U_zero_field, starts[-1:]))
    worst = [0.0, 0.0]
    for gamma in (0.0, 0.5, 2.0):
        ks = build_kraus_set(gamma, times)
        for case, (generator, U, rhos) in enumerate(cases):
            Uh = np.swapaxes(U.conj(), -1, -2)
            for rho0 in rhos:
                dev = np.max(np.abs(evolve_noisy_stack(rho0, generator, gamma, times)
                                    - U @ apply_channel(rho0, ks) @ Uh))
                worst[case] = np.maximum(worst[case], dev)
    ok = bool(worst[0] <= 1e-10 and worst[1] <= 1e-10)
    return ok, (f"worst deviation {worst[0]:.3g} at E = 1 (4 starts), "
                f"{worst[1]:.3g} at E = 0 (product start)")


def criterion_06(cache) -> tuple:
    """Anchor values of the correlation measures, all anchors as one stack."""
    bell = initial_state("cat")  # (|00> + |11>)/sqrt(2)
    product = _product_state()
    iso = 0.5 * bell + 0.5 * np.eye(4) / 4.0
    # bell, then three uncorrelated states, then the isotropic mixture
    states = np.array([bell, initial_state("a"), product, np.eye(4, dtype=complex) / 4.0, iso])
    c = sample_correlations_stack(states)
    neg, d1, d2 = c["negativity"], c["discord_1"], c["discord_2"]
    devs = np.concatenate([[abs(neg[0] - 1.0), abs(d1[0] - 0.5), abs(neg[4] - 0.25)],
                           np.abs(neg[1:4]), np.abs(d1[1:4]), np.abs(d2[1:4])])
    worst = np.max(devs)
    return worst <= 1e-10, f"worst anchor deviation {worst:.3g}"


def criterion_07(cache) -> tuple:
    """Death interval, revival, and residual discord for the diagonal start."""
    c = cache.traj("a", 1.0)
    neg, times, d1 = c["negativity"], c["t"], c["discord_1"]
    runs = [(k0, k1) for k0, k1 in death_runs(neg, 1e-6)
            if times[k1] - times[k0] >= 0.1 - 1e-12]
    has_death = len(runs) >= 1
    has_revival = has_death and bool(np.any(neg[runs[0][1] + 1:] > 1e-2))
    discord_ok = has_death and all(d1[k0:k1 + 1].min() > 1e-4 for k0, k1 in runs)
    ok = has_death and has_revival and discord_ok
    return ok, (f"death intervals (span >= 0.1): {len(runs)}, revival: {has_revival}, "
                f"residual discord ok: {discord_ok}; "
                f"min N after t=0 is {float(neg[1:].min()):.3g}")


def criterion_08(cache) -> tuple:
    """Entanglement floor and oscillation for the superposition starts."""
    details = []
    ok = True
    for state in ("cat", "werner"):
        for m in (0.0, 1.0):
            c = cache.traj(state, m)
            neg, times = c["negativity"], c["t"]
            n_min, n_max = float(neg.min()), float(neg.max())
            floor_ok = n_min > 1e-3
            osc_ok = (n_max - n_min) > 0.05
            late_ok = bool(neg[times >= 0.75 * times[-1]].max() < 1.0)
            ok = ok and floor_ok and osc_ok and late_ok
            details.append(f"{state} m={m:g}: min N {n_min:.3g}"
                           + ("" if floor_ok else " (< 1e-3)"))
    return ok, "; ".join(details)


def criterion_09(cache) -> tuple:
    """(N/2)^2 <= D1 + MEASURE_TOL (1e-9) on every sample of every acceptance run."""
    gap = (cache.column("negativity") / 2.0) ** 2 - cache.column("discord_1")
    worst = float(np.max(gap, initial=-1.0))
    return worst <= MEASURE_TOL, f"worst (N/2)^2 - D1 = {worst:.3g}"


def criterion_10(cache) -> tuple:
    """Schmidt-state closed forms: N = |sin 2chi|, D = sin^2(2chi)/2."""
    chis = [k * math.pi / 16.0 for k in range(5)]
    vecs = np.array([[math.cos(chi), 0.0, 0.0, math.sin(chi)] for chi in chis], dtype=complex)
    c = sample_correlations_stack(vecs[:, :, None] * vecs.conj()[:, None, :])
    sin2 = np.array([math.sin(2.0 * chi) for chi in chis])
    worst = np.max([np.max(np.abs(c["negativity"] - np.abs(sin2))),
                    np.max(np.abs(c["discord_1"] - sin2 ** 2 / 2.0))])
    return worst <= 1e-10, f"worst closed-form deviation {worst:.3g}"


def criterion_11(cache) -> tuple:
    """Byte-identical reruns, lossless report round-trip, selftest under 60 s."""
    with tempfile.TemporaryDirectory() as tmp:
        cfgs = [ScenarioConfig(initial_state="a", outputs=str(Path(tmp) / sub),
                               **dict(FIG_KWARGS, t_max=5.0))
                for sub in ("one", "two")]
        (cfg1, report, _), (cfg2, _, _) = run_scenario([cfgs[0]])[0], run_scenario([cfgs[1]])[0]
        identical = filecmp.cmp(Path(cfg1.outputs) / "trajectory.csv",
                                Path(cfg2.outputs) / "trajectory.csv", shallow=False)
        text = (Path(cfg1.outputs) / "report.json").read_text()
        parsed = json.loads(text)
        round_trip = (json.loads(json.dumps(parsed)) == parsed
                      and parsed["min_negativity"] == report.min_negativity
                      and parsed["max_negativity"] == report.max_negativity
                      and parsed["final_purity"] == report.final_purity
                      and parsed["revival_count"] == report.revival_count
                      and [tuple(x) for x in parsed["death_intervals"]]
                      == list(report.death_intervals))
    elapsed = time.monotonic() - cache.started
    ok = identical and round_trip and elapsed < 60.0
    return ok, (f"byte-identical reruns: {identical}, lossless round-trip: "
                f"{round_trip}, elapsed {elapsed:.1f} s")


CRITERIA = (
    (1, "closed-form spectrum vs numeric", criterion_01),
    (2, "analytic projector suite", criterion_02),
    (3, "ion assembly equals direct builder", criterion_03),
    (4, "channel CPTP and physical samples", criterion_04),
    (5, "engine equals Kraus channel then rotation", criterion_05),
    (6, "correlation measure anchors", criterion_06),
    (7, "death and revival features, diagonal start", criterion_07),
    (8, "entanglement floor, superposition starts", criterion_08),
    (9, "negativity-discord hierarchy", criterion_09),
    (10, "pure-state closed forms", criterion_10),
    (11, "determinism and serialization", criterion_11),
)


def run_selftest() -> bool:
    """Run all criteria, print one PASS/FAIL line each, return overall truth."""
    cache = AcceptanceCache()
    all_ok = True
    for number, label, func in CRITERIA:
        try:
            ok, detail = func(cache)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'} - {detail}")
    print(f"selftest {'PASSED' if all_ok else 'FAILED'} "
         f"({time.monotonic() - cache.started:.1f} s)")
    return all_ok
