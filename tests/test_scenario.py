import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bispinor import scenario
from bispinor.correlations import COLUMNS, sample_correlations_stack
from bispinor.errors import InvariantViolation, UsageError
from bispinor.scenario import (BLOCK_SAMPLES, CSV_HEADER, MAX_SAMPLES, ScenarioConfig,
                               _check_block, death_runs, detect_features,
                               emit_outputs, initial_state, load_config,
                               parse_config_text, run_scenario, run_trajectory)
from stack_contract import density_matrices, traced_peak, unit

CAT_ENTRIES = "0.5,0,0,0.5," "0,0,0,0," "0,0,0,0," "0.5,0,0,0.5"


def synthetic_record(negativities, dt=0.1, discord=0.2):
    """Given negativities at t = k dt; the other columns are those of a valid sample."""
    t = np.arange(len(negativities)) * dt
    n = len(t)
    columns = dict(t=t, negativity=np.array(negativities, dtype=float),
                   discord_1=discord + 0.01 * t, discord_2=np.full(n, discord),
                   purity=np.ones(n), min_eigenvalue=np.zeros(n),
                   trace_deviation=np.zeros(n))
    assert tuple(columns) == COLUMNS
    return columns


def sine_trajectory(t_max=7.0, dt=0.01):
    n = int(round(t_max / dt))
    return synthetic_record([abs(math.sin(k * dt)) for k in range(n + 1)], dt=dt)


def test_initial_state_catalog():
    for name, index in (("a", 0), ("b", 1), ("c", 2), ("d", 3)):
        rho = initial_state(name)
        want = np.zeros((4, 4), dtype=complex)
        want[index, index] = 1.0
        assert np.array_equal(rho, want)
    cat = initial_state("cat")
    assert cat[0, 0] == cat[0, 3] == cat[3, 0] == cat[3, 3] == pytest.approx(0.5)
    wer = initial_state("werner")
    assert wer[1, 1] == wer[1, 2] == wer[2, 1] == wer[2, 2] == pytest.approx(0.5)
    for rho in (cat, wer):
        assert abs(np.trace(rho) - 1.0) < 1e-14


def test_initial_state_custom():
    rho = initial_state("cat")
    out = initial_state("custom", rho)
    assert np.array_equal(out, rho)
    with pytest.raises(UsageError):
        initial_state("custom")
    with pytest.raises(InvariantViolation):
        initial_state("custom", np.eye(4) / 2.0)  # trace 2
    with pytest.raises(UsageError):
        initial_state("nope")


def random_density(rng):
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def test_custom_state_passes_good_states():
    rng = np.random.default_rng(3)
    for rho in (np.eye(4) / 4.0, initial_state("cat"), random_density(rng)):
        out = initial_state("custom", rho)
        assert np.array_equal(out, np.asarray(rho, dtype=complex))


def test_custom_state_diagnostics():
    # the start is checked as the t = 0 sample of its run
    with pytest.raises(InvariantViolation, match="^custom state: .*shape"):
        initial_state("custom", np.eye(3) / 3.0)
    bad = np.eye(4, dtype=complex) / 4.0
    bad[0, 1] = 0.2  # not Hermitian
    with pytest.raises(InvariantViolation, match="^custom state .*Hermitian"):
        initial_state("custom", bad)
    slightly = initial_state("cat")
    slightly[0, 3] += 5e-11j  # Hermitian to 1e-10, not to 1e-12
    with pytest.raises(InvariantViolation, match="^custom state must be Hermitian$"):
        initial_state("custom", slightly)
    nonfinite = initial_state("cat")
    nonfinite[1, 1] = np.nan
    with pytest.raises(InvariantViolation, match="^custom state .*finite"):
        initial_state("custom", nonfinite)
    with pytest.raises(InvariantViolation, match="^custom state: trace"):
        initial_state("custom", np.eye(4, dtype=complex) / 2.0)
    with pytest.raises(InvariantViolation, match="^custom state: positivity"):
        initial_state("custom", np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex))


def _pure_state(entries):
    vec = np.array(entries[:4]) + 1j * np.array(entries[4:])
    norm = np.vdot(vec, vec).real
    assume(norm > 1e-3)
    return np.outer(vec, vec.conj()) / norm


@settings(max_examples=200)
@given(density_matrices() | st.builds(_pure_state, st.lists(unit, min_size=8, max_size=8)))
@example(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
def test_the_entry_bound_refuses_no_density_matrix(rho):
    # |rho_ij| <= 1 for a unit-trace positive state, so the custom-state
    # bound, set from the checks' tolerances, never refuses one
    assert np.array_equal(initial_state("custom", rho), rho)


def test_config_validation():
    with pytest.raises(UsageError):
        ScenarioConfig(t_max=0.0)
    with pytest.raises(UsageError):
        ScenarioConfig(dt=-0.1)
    with pytest.raises(UsageError):
        ScenarioConfig(dt=2.0, t_max=1.0)
    with pytest.raises(UsageError):
        ScenarioConfig(initial_state="vacuum")
    with pytest.raises(UsageError):
        ScenarioConfig(initial_state="custom")  # no matrix given
    with pytest.raises(UsageError):
        ScenarioConfig(initial_state="a", custom_state=(1.0,) * 16)
    with pytest.raises(UsageError, match="outputs"):
        ScenarioConfig(outputs="")
    with pytest.raises(UsageError, match="eps_dead <= eps_alive"):
        ScenarioConfig(eps_dead=0.5, eps_alive=0.01)
    ScenarioConfig(eps_dead=0.01, eps_alive=0.01)  # equal thresholds are accepted
    with pytest.raises(UsageError, match="t_max"):
        ScenarioConfig(**dict(ScenarioConfig()._asdict(), t_max=0.0))  # a rebuilt copy
    with pytest.raises(TypeError, match="flux"):
        ScenarioConfig(flux=1.21)
    with pytest.raises(TypeError):
        ScenarioConfig(1.0)  # keywords only


def test_config_rebuild_changes_only_its_overrides():
    cfg = ScenarioConfig(m_over_p=2.5, initial_state="cat", emit_plots=True)
    moved = ScenarioConfig(**dict(cfg._asdict(), outputs="elsewhere"))
    changed = [key for key in cfg.__slots__ if getattr(moved, key) != getattr(cfg, key)]
    assert changed == ["outputs"] and moved.outputs == "elsewhere"


@pytest.mark.parametrize("key, value", [
    ("t_max", math.inf), ("t_max", math.nan), ("dt", math.nan),
    ("m_over_p", math.nan), ("E_over_p", math.inf), ("kappa", -math.inf),
    ("mu", math.nan), ("theta", math.inf), ("gamma_over_p", math.inf),
    ("eps_dead", math.nan), ("eps_alive", math.inf),
    ("m_over_p", -1.0), ("E_over_p", -0.5), ("gamma_over_p", -0.1),
    ("eps_dead", -1e-6), ("eps_alive", -0.01),
])
def test_config_rejects_nonfinite_and_negative_values(key, value):
    with pytest.raises(UsageError, match=key):
        ScenarioConfig(**{key: value})


def test_config_rejects_nonfinite_custom_state():
    entries = (complex("nan"),) + (0.0,) * 14 + (1.0,)
    with pytest.raises(UsageError, match="custom_state"):
        ScenarioConfig(initial_state="custom", custom_state=entries)


def test_config_stores_each_key_as_its_schema_type(tmp_path):
    # an int-built config writes the bytes of its float-built twin, and a
    # path is stored as its str, so the run writes its report.json
    reports = []
    for t_max, m in ((2, 1), (2.0, 1.0)):
        cfg = ScenarioConfig(t_max=t_max, dt=0.5, m_over_p=m, outputs=tmp_path / "run")
        assert all(type(getattr(cfg, key)) is float for key in scenario._FLOAT_KEYS)
        assert type(cfg.outputs) is str
        run_scenario([cfg])
        reports.append((tmp_path / "run" / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert b'"t_max": 2.0' in reports[0]


@pytest.mark.parametrize("key, value", [
    ("t_max", True), ("kappa", False), ("kappa", "1.0"), ("emit_plots", "false"),
    ("emit_plots", 0), ("outputs", b"out"), ("outputs", 3),
])
def test_config_refuses_a_value_of_another_type(key, value):
    with pytest.raises(TypeError):
        ScenarioConfig(**{key: value})


def test_config_checks_the_custom_state_length():
    # as the parser did, before the run could fail reshaping the entries
    with pytest.raises(UsageError, match="^custom_state expects 16 entries, got 15$"):
        ScenarioConfig(initial_state="custom", custom_state=[0.25] * 15)


def test_config_sample_cap():
    # checked from t_max / dt alone: no grid is allocated for these
    with pytest.raises(UsageError, match="samples"):
        ScenarioConfig(t_max=20.0, dt=1e-9)
    with pytest.raises(UsageError, match="samples"):
        ScenarioConfig(t_max=1e300, dt=1e-300)  # the ratio overflows to inf
    assert ScenarioConfig(t_max=MAX_SAMPLES - 1.0, dt=1.0).n_samples == MAX_SAMPLES
    with pytest.raises(UsageError, match="samples"):
        ScenarioConfig(t_max=float(MAX_SAMPLES), dt=1.0)
    assert ScenarioConfig(t_max=20.0, dt=0.01).n_samples == 2001


def test_check_sample_diagnostics():
    good = synthetic_record([0.5] * 6, dt=0.5)  # t = 0, 0.5, ..., 2.5
    t = good.pop("t")  # the times go beside the six measured columns
    _check_block(t, good)  # no raise

    def block(k, **cells):
        """The good block with the given cells of sample k replaced."""
        columns = {name: values.copy() for name, values in good.items()}
        for name, value in cells.items():
            columns[name][k] = value
        return columns

    def raises(check, t, value):
        message = f"{check} violated at t = {t} (value {value})"
        return pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$")

    with raises("trace deviation", 2.5, 0.001):
        _check_block(t, block(5, trace_deviation=1e-3))
    with raises("hierarchy (N/2)^2 <= D1", 1, 0.9):
        _check_block(t, block(2, negativity=0.9, discord_1=0.05))
    # a NaN fails the check that reads its column
    for name, check in (("trace_deviation", "trace deviation"),
                        ("min_eigenvalue", "positivity"),
                        ("purity", "purity range"),
                        ("negativity", "negativity range"),
                        ("discord_1", "discord_1 range"),
                        ("discord_2", "discord_2 range")):
        with raises(check, 1, "nan"):
            _check_block(t, block(2, **{name: math.nan}))
    # the earliest bad sample wins over a later one failing an earlier
    # check; at that sample the first failing check in order is named
    columns = block(1, negativity=1.5, discord_2=0.7)  # also breaks the hierarchy
    columns["trace_deviation"][3] = 1e-3
    with raises("negativity range", 0.5, 1.5):
        _check_block(t, columns)


def test_run_trajectory_grid():
    cfg = ScenarioConfig(t_max=1.0, dt=0.3, gamma_over_p=0.5)
    columns = run_trajectory(cfg)
    assert all(values.shape == (4,) for values in columns.values())
    np.testing.assert_allclose(columns["t"], [0.0, 0.3, 0.6, 0.9])
    cfg = ScenarioConfig(t_max=2.0, dt=0.1)
    assert all(values.shape == (21,) for values in run_trajectory(cfg).values())


def test_run_trajectory_initial_row():
    cfg = ScenarioConfig(initial_state="cat", t_max=0.5, dt=0.5)
    first = {name: values[0] for name, values in run_trajectory(cfg).items()}
    assert first["t"] == 0.0
    assert first["negativity"] == pytest.approx(1.0, abs=1e-12)
    assert first["discord_1"] == pytest.approx(0.5, abs=1e-12)
    assert first["purity"] == pytest.approx(1.0, abs=1e-12)


def test_a_figure_trajectory_holds_one_block_at_a_time():
    # the tracemalloc peak of the figure run (2001 samples) after a warm call,
    # numpy's buffers included: 903 KiB at BLOCK_SAMPLES = 512 with the
    # engine's in-place Y (1003 KiB with the plain expression, 1302 at 768
    # and 1565 at 1024). The seven columns take 110 KiB of it; the rest is
    # the working set of one block
    cfg = ScenarioConfig(initial_state="cat", m_over_p=1.0, t_max=20.0, dt=0.01)
    peak = traced_peak(lambda: run_trajectory(cfg))
    assert peak <= 950 * 1024, peak / 1024


def test_run_trajectory_deterministic():
    cfg = ScenarioConfig(initial_state="werner", t_max=1.0, dt=0.25)
    one, two = run_trajectory(cfg), run_trajectory(cfg)
    assert tuple(one) == tuple(two) == COLUMNS
    for name in COLUMNS:
        assert np.array_equal(one[name], two[name]), name
        with pytest.raises(ValueError, match="read-only"):
            one[name][0] = 0.0


def test_detect_features_sine_oracle():
    """|sin t| on a 0.01 grid: three dips at 0, pi and 2pi."""
    traj = sine_trajectory()
    with pytest.raises(ValueError, match="eps_dead <= eps_alive"):
        detect_features(traj, eps_dead=0.5, eps_alive=1e-2)
    report = detect_features(traj, eps_dead=1e-2, eps_alive=1e-2)
    got = [(round(a, 6), round(b, 6)) for a, b in report.death_intervals]
    assert got == [(0.0, 0.01), (3.14, 3.15), (6.28, 6.29)]
    assert report.revival_count == 3
    assert report.min_negativity == 0.0
    assert report.max_negativity == pytest.approx(math.sin(1.57), abs=1e-12)
    # smallest discord_1 inside the death samples sits at t = 0
    assert report.residual_discord_in_death == pytest.approx(0.2)
    assert report.final_purity == 1.0


def test_detect_features_no_death():
    report = detect_features(synthetic_record([0.5] * 20))
    assert report.death_intervals == ()
    assert report.revival_count == 0
    assert report.residual_discord_in_death is None


def test_detect_features_needs_two_samples():
    # a single dipped sample is not an interval
    report = detect_features(synthetic_record([0.5, 1e-8, 0.5, 1e-8, 1e-8, 0.4]))
    assert len(report.death_intervals) == 1
    assert report.death_intervals[0] == (pytest.approx(0.3), pytest.approx(0.4))
    assert report.revival_count == 1


def test_detect_features_terminal_death_does_not_revive():
    report = detect_features(synthetic_record([0.5, 0.5, 1e-8, 1e-8, 1e-8]))
    assert len(report.death_intervals) == 1
    assert report.revival_count == 0


def test_death_runs_are_maximal():
    neg = [1e-8, 0.5, 1e-8, 0.5, 1e-8, 1e-8, 1e-8, 0.5, 1e-8, 1e-8]
    assert death_runs(neg, 1e-6) == [(0, 0), (2, 2), (4, 6), (8, 9)]
    assert death_runs([0.5, 0.5], 1e-6) == []
    assert death_runs([], 1e-6) == []
    assert death_runs(np.array([]), 1e-6) == []
    assert death_runs(np.full(5, 1e-8), 1e-6) == [(0, 4)]
    assert death_runs(np.array([0.5, 0.5, 1e-8]), 1e-6) == [(2, 2)]


def scanned_features(neg, eps_dead, eps_alive):
    """Death runs and the last alive index of a plain Python scan."""
    runs, start = [], None
    for k, value in enumerate(neg):
        if value < eps_dead:
            start = k if start is None else start
        elif start is not None:
            runs.append((start, k - 1))
            start = None
    if start is not None:
        runs.append((start, len(neg) - 1))
    alive = [k for k, value in enumerate(neg) if value > eps_alive]
    return runs, alive[-1] if alive else -1


#: dead, between the thresholds, alive and NaN (neither dead nor alive)
SCAN_VALUES = (1e-8, 1e-4, 0.5, math.nan)


@settings(max_examples=200)
@given(st.lists(st.sampled_from(SCAN_VALUES), max_size=40))
@example([1e-8] * 7)
@example([0.5] * 7)
@example([1e-8, 1e-8, 0.5, math.nan, 1e-8, 1e-8])
@example([math.nan] * 3)
def test_death_runs_and_revivals_match_a_plain_scan(neg):
    runs, last_alive = scanned_features(neg, 1e-6, 1e-2)
    assert death_runs(neg, 1e-6) == runs
    assert death_runs(np.array(neg), 1e-6) == runs
    assume(neg)
    report = detect_features(synthetic_record(neg, dt=1.0))
    intervals = [(k0, k1) for k0, k1 in runs if k1 > k0]
    assert report.death_intervals == tuple((float(k0), float(k1)) for k0, k1 in intervals)
    assert report.revival_count == sum(k1 < last_alive for _, k1 in intervals)


def test_the_feature_scan_holds_a_few_bytes_a_sample():
    # a 200,001-sample column set: a mid-run death interval, alive samples,
    # and a terminal one. The scan's masks take 1 B a sample each; the
    # tracemalloc peak was 18.0 B a sample with an int8 diff promoted to
    # int64 and an int64 index of every alive sample, and is 3.0 B now
    n = 200_001
    neg = np.full(n, 0.5)
    neg[50_000:60_000] = 1e-8
    neg[190_000:] = 1e-8
    columns = synthetic_record(neg, dt=0.01)
    peak = traced_peak(lambda: detect_features(columns))
    assert peak <= 4 * n, peak / n
    report = detect_features(columns)
    assert report.death_intervals == (
        (columns["t"][50_000], columns["t"][59_999]), (columns["t"][190_000], 2000.0))
    assert report.revival_count == 1


def test_emit_outputs_files(tmp_path):
    cfg = ScenarioConfig(initial_state="cat", t_max=0.2, dt=0.1,
                         outputs=str(tmp_path / "run"))
    traj = run_trajectory(cfg)
    report = detect_features(traj)
    written = emit_outputs(traj, report, cfg)
    names = sorted(p.name for p in written)
    assert names == ["report.json", "trajectory.csv"]

    lines = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,negativity,discord_1,discord_2,purity,"
                        "min_eigenvalue,trace_deviation")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(traj["t"])
    first = lines[1].split(",")
    assert first[0] == "0" and len(first) == 7

    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    for key in ("death_intervals", "revival_count", "min_negativity",
                "max_negativity", "residual_discord_in_death", "final_purity",
                "config"):
        assert key in payload
    assert payload["config"]["initial_state"] == "cat"
    assert payload["config"]["t_max"] == 0.2
    assert payload["residual_discord_in_death"] is None


def test_emit_outputs_formatting(tmp_path):
    # cells carry 12 significant digits
    cfg = ScenarioConfig(t_max=0.1, dt=0.1, outputs=str(tmp_path))
    traj = synthetic_record([1.0 / 3.0, 0.25])
    emit_outputs(traj, detect_features(traj), cfg)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0.333333333333"
    assert lines[2].split(",")[1] == "0.25"


def test_emit_outputs_streams_rows_in_blocks(tmp_path):
    # one full write block, a partial one, and cells that need all 12 digits
    n = BLOCK_SAMPLES + 37
    cfg = ScenarioConfig(t_max=(n - 1) * 0.1, dt=0.1, outputs=str(tmp_path))
    rng = np.random.default_rng(3)
    traj = synthetic_record(rng.random(n) / 3.0)
    emit_outputs(traj, detect_features(traj), cfg)
    row = ",".join(["%.12g"] * len(COLUMNS))
    all_rows = zip(*(traj[name].tolist() for name in COLUMNS))
    want = "\n".join([CSV_HEADER, *(row % r for r in all_rows)]) + "\n"
    assert (tmp_path / "trajectory.csv").read_text() == want


def test_emit_outputs_plots(tmp_path):
    cfg = ScenarioConfig(initial_state="cat", t_max=0.2, dt=0.1,
                         outputs=str(tmp_path), emit_plots=True)
    traj = run_trajectory(cfg)
    written = emit_outputs(traj, detect_features(traj), cfg)
    names = sorted(p.name for p in written)
    assert names == ["discord.svg", "negativity.svg", "report.json",
                     "trajectory.csv"]
    for name in ("negativity.svg", "discord.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg")
        assert "polyline" in text


def reference_polyline(ts, vals, y_max):
    """A chart's points, one f-string per sample (the 640x400 frame)."""
    t_max = ts[-1] if ts[-1] > 0 else 1.0
    return " ".join(f"{60 + 560 * t / t_max:.2f},{30 + 330 * (1.0 - v / y_max):.2f}"
                    for t, v in zip(ts, vals))


steps = st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False)
values = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60)
@given(st.lists(st.tuples(steps, values), min_size=1, max_size=300))
@example([(0.0, 0.0)] * 3)    # t_max = 0 and an all-zero series (y_max = 1e-12)
@example([(0.0, 0.3), (0.0, 0.9)])
def test_svg_polyline_matches_per_point_formula(tmp_path_factory, samples):
    ts = np.cumsum([dt for dt, _ in samples])
    vals = np.array([v for _, v in samples])
    halves = 0.5 * vals
    path = tmp_path_factory.mktemp("svg") / "chart.svg"
    scenario._write_svg_chart(path, "chart", ts, [("one", vals, "#000000"),
                                                  ("two", halves, "#ffffff")])
    points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    # both series share the larger one's y_max
    y_max = max(1e-12, max(vals.tolist()))
    assert points == [reference_polyline(ts.tolist(), vals.tolist(), y_max),
                      reference_polyline(ts.tolist(), halves.tolist(), y_max)]


PINNED_CHART = """\
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="400" viewBox="0 0 640 400">
<rect x="0" y="0" width="640" height="400" fill="white"/>
<text x="60" y="18" font-family="sans-serif" font-size="13">pinned</text>
<rect x="60" y="30" width="560" height="330" fill="none" stroke="black"/>
<line x1="60.00" y1="360" x2="60.00" y2="365" stroke="black"/>
<text x="60.00" y="378" font-family="sans-serif" font-size="11" text-anchor="middle">0</text>
<line x1="55" y1="360.00" x2="60" y2="360.00" stroke="black"/>
<text x="52" y="364.00" font-family="sans-serif" font-size="11" text-anchor="end">0</text>
<line x1="200.00" y1="360" x2="200.00" y2="365" stroke="black"/>
<text x="200.00" y="378" font-family="sans-serif" font-size="11" text-anchor="middle">0.625</text>
<line x1="55" y1="277.50" x2="60" y2="277.50" stroke="black"/>
<text x="52" y="281.50" font-family="sans-serif" font-size="11" text-anchor="end">0.175</text>
<line x1="340.00" y1="360" x2="340.00" y2="365" stroke="black"/>
<text x="340.00" y="378" font-family="sans-serif" font-size="11" text-anchor="middle">1.25</text>
<line x1="55" y1="195.00" x2="60" y2="195.00" stroke="black"/>
<text x="52" y="199.00" font-family="sans-serif" font-size="11" text-anchor="end">0.35</text>
<line x1="480.00" y1="360" x2="480.00" y2="365" stroke="black"/>
<text x="480.00" y="378" font-family="sans-serif" font-size="11" text-anchor="middle">1.88</text>
<line x1="55" y1="112.50" x2="60" y2="112.50" stroke="black"/>
<text x="52" y="116.50" font-family="sans-serif" font-size="11" text-anchor="end">0.525</text>
<line x1="620.00" y1="360" x2="620.00" y2="365" stroke="black"/>
<text x="620.00" y="378" font-family="sans-serif" font-size="11" text-anchor="middle">2.5</text>
<line x1="55" y1="30.00" x2="60" y2="30.00" stroke="black"/>
<text x="52" y="34.00" font-family="sans-serif" font-size="11" text-anchor="end">0.7</text>
<text x="340.0" y="392" font-family="sans-serif" font-size="12" text-anchor="middle">p t</text>
<polyline points="60.00,360.00 172.00,30.00 340.00,195.00 620.00,312.86" fill="none" stroke="#1f4e9c" stroke-width="1.2"/>
<text x="614" y="46" font-family="sans-serif" font-size="11" text-anchor="end" fill="#1f4e9c">upper</text>
<polyline points="60.00,265.71 172.00,312.86 340.00,360.00 620.00,336.43" fill="none" stroke="#b5541c" stroke-width="1.2"/>
<text x="614" y="62" font-family="sans-serif" font-size="11" text-anchor="end" fill="#b5541c">lower</text>
</svg>
"""


def test_svg_chart_text_is_pinned(tmp_path):
    # the whole text of one small chart: frame, ticks, tick labels, polylines, legend
    path = tmp_path / "chart.svg"
    scenario._write_svg_chart(path, "pinned", np.array([0.0, 0.5, 1.25, 2.5]),
                              [("upper", np.array([0.0, 0.7, 0.35, 0.1]), "#1f4e9c"),
                               ("lower", np.array([0.2, 0.1, 0.0, 0.05]), "#b5541c")])
    assert path.read_text() == PINNED_CHART


def test_parse_config_full():
    text = """
    # a comment
    m_over_p = 1.5
    E_over_p = 2.0
    kappa = 0.8
    mu = -0.3
    theta = 0.7853981633974483
    gamma_over_p = 0.25

    initial_state = werner
    t_max = 4.0
    dt = 0.02
    outputs = ./somewhere
    emit_plots = true
    eps_dead = 1e-7
    eps_alive = 0.05
    """
    cfgs = parse_config_text(text)
    assert len(cfgs) == 1
    cfg = cfgs[0]
    assert cfg.m_over_p == 1.5
    assert cfg.E_over_p == 2.0
    assert cfg.kappa == 0.8
    assert cfg.mu == -0.3
    assert cfg.gamma_over_p == 0.25
    assert cfg.initial_state == "werner"
    assert cfg.t_max == 4.0 and cfg.dt == 0.02
    assert cfg.outputs == "./somewhere"
    assert cfg.emit_plots is True
    assert cfg.eps_dead == 1e-7 and cfg.eps_alive == 0.05


def test_parse_config_defaults():
    cfg = parse_config_text("initial_state = a")[0]
    assert cfg.m_over_p == 1.0
    assert cfg.gamma_over_p == 0.5
    assert cfg.theta == pytest.approx(math.pi / 4)
    assert cfg.emit_plots is False


def test_parse_config_sweep():
    cfgs = parse_config_text("m_over_p = 0.5, 1.0, 10\ninitial_state = cat")
    assert [c.m_over_p for c in cfgs] == [0.5, 1.0, 10.0]
    assert all(c.initial_state == "cat" for c in cfgs)


def test_parse_config_custom_state():
    text = f"initial_state = custom\ncustom_state = {CAT_ENTRIES}"
    cfg = parse_config_text(text)[0]
    assert cfg.custom_state[0] == 0.5 + 0.0j
    assert len(cfg.custom_state) == 16


def test_parse_config_errors():
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config_text("mass = 1.0")
    with pytest.raises(UsageError, match="key=value"):
        parse_config_text("just some words")
    with pytest.raises(UsageError, match="expects a number"):
        parse_config_text("t_max = soon")
    with pytest.raises(UsageError, match="boolean"):
        parse_config_text("emit_plots = maybe")
    with pytest.raises(UsageError, match="16 entries"):
        parse_config_text("initial_state = custom\ncustom_state = 1,0,0")
    for line in ("m_over_p = 1.0, x", "m_over_p =", "m_over_p = 1.0,"):
        with pytest.raises(UsageError, match="one or more numbers"):
            parse_config_text(line)
    with pytest.raises(UsageError, match="'t_max' is given twice, on lines 1 and 3"):
        parse_config_text("t_max = 1.0\ndt = 0.1\nt_max = 2.0")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(UsageError, match="not found"):
        load_config(tmp_path / "absent.cfg")


def test_run_scenario_single(tmp_path):
    cfg = ScenarioConfig(initial_state="cat", t_max=0.5, dt=0.1,
                         outputs=str(tmp_path / "single"))
    results = run_scenario([cfg])
    assert len(results) == 1
    _, report, out_dir = results[0]
    assert (out_dir / "trajectory.csv").is_file()
    assert (out_dir / "report.json").is_file()
    assert not (out_dir / "index.json").exists()
    assert report.max_negativity <= 1.0 + 1e-9


def test_run_scenario_sweep(tmp_path):
    text = (f"m_over_p = 0.5, 1.0\ninitial_state = cat\nt_max = 0.5\n"
            f"dt = 0.1\noutputs = {tmp_path / 'sweep'}")
    results = run_scenario(parse_config_text(text))
    assert len(results) == 2
    root = tmp_path / "sweep"
    index = json.loads((root / "index.json").read_text())
    assert [pt["m_over_p"] for pt in index["points"]] == [0.5, 1.0]
    for pt in index["points"]:
        assert (root / pt["trajectory"]).is_file()
        assert (root / pt["report"]).is_file()
    assert (root / "m_0.5" / "trajectory.csv").is_file()
    assert (root / "m_1" / "report.json").is_file()


def test_run_scenario_sweep_names_close_masses_apart(tmp_path):
    text = (f"m_over_p = 1.0, 1.0000001, 0.5\ninitial_state = cat\nt_max = 0.2\n"
            f"dt = 0.1\noutputs = {tmp_path / 'sweep'}")
    run_scenario(parse_config_text(text))
    root = tmp_path / "sweep"
    index = json.loads((root / "index.json").read_text())
    paths = [pt["trajectory"] for pt in index["points"]]
    assert paths == ["m_1/trajectory.csv", "m_1.0000001/trajectory.csv",
                     "m_0.5/trajectory.csv"]
    for pt in index["points"]:
        report = json.loads((root / pt["report"]).read_text())
        assert report["config"]["m_over_p"] == pt["m_over_p"]


def test_run_scenario_rejects_duplicate_masses(tmp_path):
    text = (f"m_over_p = 0.5, 1.0, 0.5\ninitial_state = cat\nt_max = 0.2\n"
            f"dt = 0.1\noutputs = {tmp_path / 'sweep'}")
    with pytest.raises(UsageError, match="twice"):
        run_scenario(parse_config_text(text))
    assert not (tmp_path / "sweep").exists()


def test_run_scenario_refuses_points_that_differ_beyond_the_mass(tmp_path):
    # a sweep writes every point under the first outputs, so points that
    # differ in any other key are refused before anything is written
    configs = [ScenarioConfig(m_over_p=1.0, t_max=0.2, dt=0.1, outputs=str(tmp_path / "sw")),
               ScenarioConfig(m_over_p=2.0, t_max=0.2, dt=0.1, kappa=3.0,
                              outputs=str(tmp_path / "elsewhere"))]
    with pytest.raises(UsageError, match="^a sweep's points may differ only in m_over_p, "
                                         "not in kappa, outputs$"):
        run_scenario(configs)
    assert not list(tmp_path.iterdir())


def test_run_scenario_rejects_bad_custom_before_running(tmp_path):
    bad = tuple(np.eye(4).flatten() * 2.0)  # trace 8
    cfg = ScenarioConfig(initial_state="custom", custom_state=bad,
                         t_max=0.5, dt=0.1, outputs=str(tmp_path / "x"))
    with pytest.raises(InvariantViolation):
        run_scenario([cfg])
    assert not (tmp_path / "x").exists()


def test_custom_sweep_checks_each_start_where_its_point_runs(tmp_path, monkeypatch):
    # each point checks its start as a one-row block, then measures its
    # three samples; no pass over the sweep checks the starts beforehand
    rows = []

    def counted(rhos):
        rows.append(len(rhos))
        return sample_correlations_stack(rhos)

    monkeypatch.setattr(scenario, "sample_correlations_stack", counted)
    text = (f"m_over_p = 0.5, 1.0, 2.0\ninitial_state = custom\n"
            f"custom_state = {CAT_ENTRIES}\nt_max = 1.0\ndt = 0.5\n"
            f"outputs = {tmp_path / 'sweep'}")
    run_scenario(parse_config_text(text))
    assert rows == [1, 3, 1, 3, 1, 3]


def test_run_scenario_rejects_bad_custom_sweep_before_running(tmp_path, monkeypatch):
    def no_evolution(*args):
        raise AssertionError("a refused custom state was evolved")

    monkeypatch.setattr(scenario, "evolve_noisy_stack", no_evolution)
    bad = ",".join(["1"] + ["0"] * 14 + ["1"])  # trace 2
    root = tmp_path / "sweep"
    text = (f"m_over_p = 0.5, 1.0\ninitial_state = custom\ncustom_state = {bad}\n"
            f"t_max = 0.5\ndt = 0.1\noutputs = {root}")
    with pytest.raises(InvariantViolation, match="^custom state: trace"):
        run_scenario(parse_config_text(text))
    assert not list(root.glob("m_*"))
    assert not (root / "index.json").exists()


def test_run_scenario_empty():
    with pytest.raises(UsageError):
        run_scenario([])
