import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bispinor
from bispinor.cli import main

BASE_CONFIG = """
initial_state = cat
m_over_p = 1.0
gamma_over_p = 0.5
t_max = 1.0
dt = 0.1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_simulate_happy_path(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + f"outputs = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "m_over_p=1 initial=cat" in captured.out
    assert "death intervals" in captured.out
    assert (tmp_path / "out" / "trajectory.csv").is_file()
    assert (tmp_path / "out" / "report.json").is_file()


def test_simulate_out_override_and_plots(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG + f"outputs = {tmp_path / 'a'}\n")
    dest = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(dest),
                 "--plots"]) == 0
    assert not (tmp_path / "a").exists()
    assert (dest / "trajectory.csv").is_file()
    assert (dest / "negativity.svg").is_file()
    assert (dest / "discord.svg").is_file()


def test_simulate_sweep(tmp_path, capsys):
    text = BASE_CONFIG.replace("m_over_p = 1.0", "m_over_p = 0.0, 1.0")
    cfg = write_config(tmp_path, text + f"outputs = {tmp_path / 'sweep'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    index = json.loads((tmp_path / "sweep" / "index.json").read_text())
    assert len(index["points"]) == 2
    out = capsys.readouterr().out
    assert "m_over_p=0 " in out and "m_over_p=1 " in out


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_bad_config_key_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "flux_capacitor = 1.21\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_flag_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--frobnicate"]) == 1


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 1


def test_invalid_state_matrix_exits_two(tmp_path, capsys):
    entries = ",".join(["1"] + ["0"] * 14 + ["1"])  # trace 2
    cfg = write_config(tmp_path, (f"initial_state = custom\n"
                                  f"custom_state = {entries}\n"
                                  f"t_max = 1.0\ndt = 0.5\n"
                                  f"outputs = {tmp_path / 'x'}\n"))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "m_over_p = -1",
    "gamma_over_p = inf",
    "E_over_p = nan",
    "eps_dead = nan",
    "t_max = inf",
    "dt = 1e-9",
    "m_over_p = 1.0, 1.0",
])
def test_malformed_config_values_exit_one(tmp_path, capsys, line):
    cfg = write_config(tmp_path, BASE_CONFIG + f"{line}\noutputs = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unwritable_output_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "outputs = /dev/null/out\n")
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_plan_prints_ion_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path, "m_over_p = 1.2\nE_over_p = 2.0\n"
                                 "kappa = 1.0\nmu = 0.5\nt_max = 1.0\ndt = 0.1\n")
    assert main(["plan", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "m_over_p=1.2:" in out
    assert "detuning delta        = 0.6" in out
    assert "eta*Delta*Omega-tilde = 0.5" in out
    assert "Omega^(1)" in out and "Omega^(2)" in out


def test_plan_sweep_lists_every_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "m_over_p = 0.5, 2.0\nt_max = 1.0\ndt = 0.1\n")
    assert main(["plan", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "m_over_p=0.5:" in out and "m_over_p=2:" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_entry_point(tmp_path):
    """The installed interface works end to end in a fresh interpreter."""
    cfg = write_config(tmp_path, BASE_CONFIG + f"outputs = {tmp_path / 'out'}\n")
    # the child imports the package this session imported, installed or not
    package_root = str(Path(bispinor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "bispinor.cli", "simulate",
                           "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()
