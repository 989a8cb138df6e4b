import json
import math

import numpy as np
import pytest

from bispinor.correlations import CorrelationSample
from bispinor.errors import InvariantViolation, UsageError
from bispinor.scenario import (CSV_HEADER, MAX_SAMPLES, ScenarioConfig,
                               TrajectoryRecord, _check_sample, detect_features,
                               emit_outputs, initial_state, load_config,
                               parse_config_text, run_scenario, run_trajectory)

CAT_ENTRIES = "0.5,0,0,0.5," "0,0,0,0," "0,0,0,0," "0.5,0,0,0.5"


def synthetic_sample(t, neg, discord=0.2):
    return CorrelationSample(t=t, negativity=neg, discord_1=discord + 0.01 * t,
                             discord_2=discord, purity=1.0,
                             min_eigenvalue=0.0, trace_deviation=0.0)


def sine_trajectory(t_max=7.0, dt=0.01):
    cfg = ScenarioConfig(t_max=t_max, dt=dt)
    n = int(round(t_max / dt))
    samples = tuple(synthetic_sample(k * dt, abs(math.sin(k * dt)))
                    for k in range(n + 1))
    return TrajectoryRecord(config=cfg, samples=samples, wall_time=0.0)


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
    good = synthetic_sample(1.0, 0.5)
    _check_sample(good)  # no raise
    bad = CorrelationSample(t=2.5, negativity=0.5, discord_1=0.2, discord_2=0.2,
                            purity=1.0, min_eigenvalue=0.0, trace_deviation=1e-3)
    with pytest.raises(InvariantViolation, match=r"trace deviation .* t = 2.5"):
        _check_sample(bad)
    bad = CorrelationSample(t=1.0, negativity=0.9, discord_1=0.05, discord_2=0.2,
                            purity=1.0, min_eigenvalue=0.0, trace_deviation=0.0)
    with pytest.raises(InvariantViolation, match="hierarchy"):
        _check_sample(bad)


def test_run_trajectory_grid():
    cfg = ScenarioConfig(t_max=1.0, dt=0.3, gamma_over_p=0.5)
    traj = run_trajectory(cfg)
    assert len(traj.samples) == 4
    np.testing.assert_allclose([s.t for s in traj.samples], [0.0, 0.3, 0.6, 0.9])
    cfg = ScenarioConfig(t_max=2.0, dt=0.1)
    assert len(run_trajectory(cfg).samples) == 21


def test_run_trajectory_initial_row():
    cfg = ScenarioConfig(initial_state="cat", t_max=0.5, dt=0.5)
    first = run_trajectory(cfg).samples[0]
    assert first.t == 0.0
    assert first.negativity == pytest.approx(1.0, abs=1e-12)
    assert first.discord_1 == pytest.approx(0.5, abs=1e-12)
    assert first.purity == pytest.approx(1.0, abs=1e-12)


def test_run_trajectory_deterministic():
    cfg = ScenarioConfig(initial_state="werner", t_max=1.0, dt=0.25)
    assert run_trajectory(cfg).samples == run_trajectory(cfg).samples


def test_detect_features_sine_oracle():
    """|sin t| on a 0.01 grid: three dips at 0, pi and 2pi."""
    traj = sine_trajectory()
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
    samples = tuple(synthetic_sample(0.1 * k, 0.5) for k in range(20))
    traj = TrajectoryRecord(config=ScenarioConfig(), samples=samples, wall_time=0.0)
    report = detect_features(traj)
    assert report.death_intervals == ()
    assert report.revival_count == 0
    assert report.residual_discord_in_death is None


def test_detect_features_needs_two_samples():
    # a single dipped sample is not an interval
    neg = [0.5, 1e-8, 0.5, 1e-8, 1e-8, 0.4]
    samples = tuple(synthetic_sample(0.1 * k, v) for k, v in enumerate(neg))
    traj = TrajectoryRecord(config=ScenarioConfig(), samples=samples, wall_time=0.0)
    report = detect_features(traj)
    assert len(report.death_intervals) == 1
    assert report.death_intervals[0] == (pytest.approx(0.3), pytest.approx(0.4))
    assert report.revival_count == 1


def test_detect_features_terminal_death_does_not_revive():
    neg = [0.5, 0.5, 1e-8, 1e-8, 1e-8]
    samples = tuple(synthetic_sample(0.1 * k, v) for k, v in enumerate(neg))
    traj = TrajectoryRecord(config=ScenarioConfig(), samples=samples, wall_time=0.0)
    report = detect_features(traj)
    assert len(report.death_intervals) == 1
    assert report.revival_count == 0


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
    assert len(lines) == 1 + len(traj.samples)
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
    samples = (synthetic_sample(0.0, 1.0 / 3.0), synthetic_sample(0.1, 0.25))
    traj = TrajectoryRecord(config=cfg, samples=samples, wall_time=0.0)
    emit_outputs(traj, detect_features(traj), cfg)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[1].split(",")[1] == "0.333333333333"
    assert lines[2].split(",")[1] == "0.25"


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
    with pytest.raises(UsageError, match="one or more numbers"):
        parse_config_text("m_over_p = 1.0, x")


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


def test_run_scenario_rejects_bad_custom_before_running(tmp_path):
    bad = tuple(np.eye(4).flatten() * 2.0)  # trace 8
    cfg = ScenarioConfig(initial_state="custom", custom_state=bad,
                         t_max=0.5, dt=0.1, outputs=str(tmp_path / "x"))
    with pytest.raises(InvariantViolation):
        run_scenario([cfg])
    assert not (tmp_path / "x").exists()


def test_run_scenario_empty():
    with pytest.raises(UsageError):
        run_scenario([])
