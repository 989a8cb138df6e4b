import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bispinor
from bispinor import scenario
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


def tree_bytes(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {str(path.relative_to(root)): path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


SINGLE = "m_over_p = 1.0"
SWEEP = "m_over_p = 0.5, 1.0"


@pytest.mark.parametrize("first, second, found", [
    (SWEEP, SINGLE, "index.json of a sweep"),
    (SINGLE, SWEEP, "trajectory.csv and report.json of a single-point run"),
], ids=["single-after-sweep", "sweep-after-single"])
def test_single_run_and_sweep_never_share_a_directory(tmp_path, capsys, first, second, found):
    out = tmp_path / "X"
    configs = [write_config(tmp_path, BASE_CONFIG.replace(SINGLE, masses)
                            + f"outputs = {out}\n", name=f"{k}.cfg")
               for k, masses in enumerate((first, second))]
    assert main(["simulate", "--config", str(configs[0])]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["simulate", "--config", str(configs[1])]) == 1
    assert f"{out} holds {found}" in capsys.readouterr().err
    assert tree_bytes(out) == before


def test_a_sweep_never_mixes_with_another_sweeps_points(tmp_path, capsys):
    out = tmp_path / "X"
    first, second, wider = (write_config(tmp_path, BASE_CONFIG.replace(SINGLE, masses)
                                         + f"outputs = {out}\n", name=f"{k}.cfg")
                            for k, masses in enumerate((SWEEP, "m_over_p = 2.0, 3.0",
                                                        "m_over_p = 1.0, 0.5, 2.0")))
    assert main(["simulate", "--config", str(first)]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["simulate", "--config", str(second)]) == 1
    assert f"{out} holds m_0.5, m_1 of another sweep" in capsys.readouterr().err
    assert tree_bytes(out) == before
    # a sweep whose list names every point already there may add points
    assert main(["simulate", "--config", str(wider)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert [point["m_over_p"] for point in index["points"]] == [1.0, 0.5, 2.0]
    assert sorted(path.name for path in out.iterdir()) == ["index.json", "m_0.5", "m_1",
                                                            "m_2"]


@pytest.mark.parametrize("masses", [SINGLE, SWEEP], ids=["single", "sweep"])
def test_a_rerun_of_the_same_kind_overwrites_byte_identically(tmp_path, masses):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(SINGLE, masses)
                       + f"outputs = {tmp_path / 'X'}\n")
    assert main(["simulate", "--config", str(cfg), "--plots"]) == 0
    before = tree_bytes(tmp_path / "X")
    assert main(["simulate", "--config", str(cfg), "--plots"]) == 0
    assert tree_bytes(tmp_path / "X") == before


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


def test_a_huge_dephasing_rate_runs_without_a_warning(tmp_path, capsys):
    # -rate * t overflows to -inf: every coherence is gone after t = 0
    cfg = write_config(tmp_path, f"gamma_over_p = 1e308\noutputs = {tmp_path / 'x'}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


#: a single point on t_max = 2, dt = 0.01 (201 samples) unless the config sets them
POINT_BASE = {"t_max": "2.0", "dt": "0.01"}


def point_config(lines):
    """Config text of lines, after the POINT_BASE keys that lines leave out."""
    keys = {line.partition("=")[0].strip() for line in lines.splitlines()}
    return "".join(f"{key} = {value}\n" for key, value in POINT_BASE.items()
                   if key not in keys) + lines + "\n"


def run_quietly(argv):
    """main(argv) with warnings as errors and its output captured: exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    return code, err.getvalue()


#: configs whose huge products overflowed with numpy warnings: the phases
#: lambda_k t, or the entries of H
HUGE_REFUSED = [
    *((f"{key} = {value}", "phase of exp(-i H t) overflows at t = 1.8")
      for key, value in (("m_over_p", "1e308"), ("kappa", "1e308"), ("kappa", "-1e308"),
                         ("mu", "1e308"), ("mu", "-1e308"))),
    ("E_over_p = 1e308", "phase of exp(-i H t) overflows at t = 1.28"),
    ("t_max = 1e308\ndt = 1e306", "phase of exp(-i H t) overflows at t = 6.9e+307"),
    ("E_over_p = 1e308\nkappa = 1e200", "evolution generator entries must be finite"),
]
#: configs whose O (never used in a run) overflowed with numpy warnings
HUGE_ACCEPTED = ["m_over_p = 1e200\nE_over_p = 1e200", "m_over_p = 1e160\nkappa = 1e160"]


def config_ids(configs):
    return [lines.replace(" ", "").replace("\n", ",") for lines in configs]


@pytest.mark.parametrize("lines, message", HUGE_REFUSED,
                         ids=config_ids(lines for lines, _ in HUGE_REFUSED))
def test_huge_parameters_exit_two_on_one_line(tmp_path, lines, message):
    cfg = write_config(tmp_path, point_config(lines) + f"outputs = {tmp_path / 'x'}\n")
    code, err = run_quietly(["simulate", "--config", str(cfg)])
    assert (code, err) == (2, f"invariant violation: {message}\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("lines", HUGE_ACCEPTED, ids=config_ids(HUGE_ACCEPTED))
def test_huge_parameters_whose_run_is_finite_run_without_a_warning(tmp_path, lines):
    cfg = write_config(tmp_path, point_config(lines) + f"outputs = {tmp_path / 'x'}\n")
    code, err = run_quietly(["simulate", "--config", str(cfg)])
    assert (code, err) == (0, "")
    assert (tmp_path / "x" / "trajectory.csv").is_file()


#: ordinary values of each float key, and the edge values any key may take.
#: Edge values of t_max and dt are equal or at least 1e40 apart, and an
#: ordinary t_max over an ordinary dt is at most 200, so an accepted run has
#: at most 201 samples
NORMAL_VALUES = {"m_over_p": ("0.0", "2.5"), "E_over_p": ("0.0", "1.5"),
                 "kappa": ("-1.0", "0.3"), "mu": ("-0.7", "2.0"), "theta": ("0.0", "1.3"),
                 "gamma_over_p": ("0.0", "1.5"), "t_max": ("1.0", "2.0"),
                 "dt": ("0.01", "0.5"), "eps_dead": ("1e-3",), "eps_alive": ("0.1",)}
EDGE_VALUES = ("1e308", "-1e308", "1e200", "1e160", "5e-324", "-0.0", "1e-200", "nan", "inf",
               "-inf", "")


@st.composite
def config_texts(draw):
    """A single-point config: each float key left out, normal or an edge value.

    At most three keys take an edge value, so that not every text is refused
    as a usage error. Some texts also carry a byte-order mark, a comment
    line or a key given twice.
    """
    lines = []
    edged = draw(st.sets(st.sampled_from(list(NORMAL_VALUES)), max_size=3))
    for key, normal in NORMAL_VALUES.items():
        value = draw(st.sampled_from(EDGE_VALUES) if key in edged
                     else st.none() | st.sampled_from(normal))
        if value is not None:
            lines.append(f"{key} = {value}")
    lines.append(f"initial_state = {draw(st.sampled_from(['a', 'cat', 'werner']))}")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    return draw(st.sampled_from(["", "\ufeff"])) + point_config("\n".join(lines))


@settings(max_examples=150)
@given(config_texts())
@example(point_config("m_over_p = 1e308"))
@example(point_config("kappa = -1e308\nmu = 1e308"))
@example(point_config("t_max = 1e308\ndt = 1e306"))
@example(point_config("t_max = 1e308\ndt = 1e303"))
@example(point_config("E_over_p = 1e308\nkappa = 1e200"))
@example(point_config("m_over_p = 1e200\nE_over_p = 1e200"))
@example(point_config("gamma_over_p = 1e308"))
def test_the_cli_contract_holds_on_any_single_point_config(text):
    # exit 0, 1, 2 or 3; no warning; one stderr line and no outputs after a
    # refusal. Every example gets its own directory: tmp_path is one per test
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(text + f"outputs = {Path(tmp) / 'outputs'}\n", encoding="utf-8")
        code, err = run_quietly(["simulate", "--config", str(cfg)])
        assert code in (0, 1, 2, 3)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
            assert not (Path(tmp) / "outputs").exists()
        else:
            assert err == ""


def custom_state(diagonal, entries=()):
    """custom_state value of diag(diagonal) with each ((row, column), value) of entries set."""
    rho = np.diag(np.array(diagonal, dtype=complex))
    for (row, column), value in entries:
        rho[row, column] = value
    return ",".join(map(repr, rho.ravel().tolist()))


@pytest.mark.parametrize("entries, message", [
    # the cat state with 5e-11 added to one off-diagonal imaginary part
    pytest.param(custom_state([0.5, 0, 0, 0.5], [((0, 3), 0.5 + 5e-11j), ((3, 0), 0.5)]),
                 "custom state must be Hermitian", id="non-hermitian"),
    pytest.param(custom_state([1, 0.5, 0.5, 0]), "custom state: trace", id="trace-2"),
    pytest.param(custom_state([0.7, 0.5, -0.1, -0.1]), "custom state: positivity",
                 id="negative-eigenvalue"),
    # entries above the bound no state passing the checks exceeds, refused
    # before any arithmetic runs on them: Hermitian to 1e-12 of its own scale
    # but with a Pauli trace keeping 5e-7 imaginary; all 1e308, whose Fano
    # product overflows; and off-diagonals of 1e300, whose purity overflows
    pytest.param(custom_state([1e6, 0, 0, 0], [((0, 1), 1e5), ((1, 0), 1e5 + 5e-7j)]),
                 "custom state: entry of magnitude 1e+06 exceeds", id="entry-1e6"),
    pytest.param(",".join(["1e308"] * 16), "custom state: entry of magnitude 1e+308 exceeds",
                 id="entries-1e308"),
    pytest.param(custom_state([0.25] * 4, [((i, j), 1e300) for i in range(4) for j in range(4)
                                          if i != j]),
                 "custom state: entry of magnitude 1e+300 exceeds", id="off-diagonals-1e300"),
])
def test_non_hermitian_custom_state_exits_two(tmp_path, capsys, monkeypatch, entries, message):
    def no_evolution(*args):
        raise AssertionError("a refused custom state was evolved")

    monkeypatch.setattr(scenario, "evolve_noisy_stack", no_evolution)
    cfg = write_config(tmp_path, (f"initial_state = custom\n"
                                  f"custom_state = {entries}\n"
                                  f"t_max = 1.0\ndt = 0.5\n"
                                  f"outputs = {tmp_path / 'x'}\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: custom state"), err
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert message in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line", [
    "m_over_p = -1",
    "gamma_over_p = inf",
    "E_over_p = nan",
    "eps_dead = nan",
    "eps_dead = 0.5",      # above the default eps_alive = 0.01
    "t_max = inf",
    "dt = 1e-9",
    "m_over_p = 1.0, 1.0",
    "t_max = 2.0",         # a key given twice
    "# caf\udce9",         # written as the lone byte 0xe9: not valid UTF-8
    "outputs =",           # would write into the working directory
])
def test_malformed_config_values_exit_one(tmp_path, capsys, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    text = BASE_CONFIG + f"{line}\n"
    if not line.startswith("outputs"):
        text += f"outputs = {tmp_path / 'out'}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_with_a_byte_order_mark_runs(tmp_path):
    # Windows editors may save a UTF-8 file with a leading BOM
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        text = BASE_CONFIG.lstrip() + f"outputs = {tmp_path / name}\n"
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(bom + text.encode("utf-8"))
        assert main(["simulate", "--config", str(cfg)]) == 0
    csv = "trajectory.csv"
    assert (tmp_path / "bom" / csv).read_bytes() == (tmp_path / "plain" / csv).read_bytes()


def test_empty_out_override_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, BASE_CONFIG + f"outputs = {tmp_path / 'out'}\n")
    assert main(["simulate", "--config", str(cfg), "--out", ""]) == 1
    assert capsys.readouterr().err == "usage error: outputs must name a directory\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_unwritable_output_exits_three(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "outputs = /dev/null/out\n")
    assert main(["simulate", "--config", str(cfg)]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_plan_prints_ion_parameters(tmp_path, capsys):
    cfg = write_config(tmp_path, "m_over_p = 1.2\nE_over_p = 2.0\n"
                                 "kappa = 1.0\nmu = 0.5\nt_max = 1.0\ndt = 0.1\n")
    assert main(["plan", "--config", str(cfg)]) == 0
    # the whole text: delta = m/2, the unit sideband coupling 1/2, and
    # Omega_j = coupling * E_j / 2 with E_x = E_y = sqrt(2) at theta = pi/4
    assert capsys.readouterr().out == (
        "m_over_p=1.2:\n"
        "  detuning delta        = 0.6\n"
        "  eta*Delta*Omega-tilde = 0.5\n"
        "  Omega^(1) (tensor)    = (0.707106781187, 0.707106781187, 0)\n"
        "  Omega^(2) (pseudo)    = (0.353553390593, 0.353553390593, 0)\n")


def test_plan_sweep_lists_every_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "m_over_p = 0.5, 2.0\nt_max = 1.0\ndt = 0.1\n")
    assert main(["plan", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "m_over_p=0.5:" in out and "m_over_p=2:" in out


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def fresh_interpreter_env(**overrides):
    """The environment for a child that imports the package this session imported."""
    package_root = str(Path(bispinor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(overrides)
    return env


def test_module_entry_point(tmp_path):
    """The installed interface works end to end in a fresh interpreter."""
    cfg = write_config(tmp_path, BASE_CONFIG + f"outputs = {tmp_path / 'out'}\n")
    proc = subprocess.run([sys.executable, "-m", "bispinor.cli", "simulate",
                           "--config", str(cfg)],
                          capture_output=True, text=True, timeout=120,
                          env=fresh_interpreter_env())
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def import_probe(code, **env):
    """Standard output words of `import os, bispinor` then code, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", "import os, bispinor\n" + code],
                          capture_output=True, text=True, timeout=120,
                          env=fresh_interpreter_env(**env))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="needs /proc/self/task to count threads")
def test_import_loads_blas_with_one_thread():
    # one OS thread, and the variable set for the import is gone again
    assert import_probe('print(len(os.listdir("/proc/self/task")), '
                        'os.environ.get("OPENBLAS_NUM_THREADS"))') == ["1", "None"]


def test_import_leaves_dataclasses_unloaded():
    assert import_probe('import sys, bispinor.cli, bispinor.acceptance\n'
                        'print("dataclasses" in sys.modules)') == ["False"]


def test_import_keeps_the_callers_blas_thread_count():
    assert import_probe('print(os.environ["OPENBLAS_NUM_THREADS"])',
                        OPENBLAS_NUM_THREADS="2") == ["2"]


def test_public_names_are_consistent():
    names = bispinor.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bispinor, name), name
    assert not {"hermitian_eigensystem", "EigenSystem"} & set(names)
    for name in ("TrajectoryRecord", "KrausSet", "evolve_noiseless", "evolve_noisy",
                 "compute_g2", "ion_to_dirac", "evolution_operator",
                 "evolve_noiseless_stack", "dephasing_mask", "validate_density_matrix",
                 "negativity", "geometric_discord", "purity", "tensor_product"):
        assert name not in names and not hasattr(bispinor, name), name
    star = {}
    exec("from bispinor import *", star)
    assert set(names) <= set(star)


def test_readme_python_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1].startswith("True [")


def test_readme_config_table_lists_the_schema():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    keys = re.findall(r"^\| `(\w+)`", table, re.MULTILINE)
    assert keys == list(scenario._CONFIG_DEFAULTS)


def test_readme_outputs_name_every_file(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Outputs", 1)[1].split("\n###", 1)[0]
    configs = scenario.parse_config_text(
        "m_over_p = 0.5, 1.0\nt_max = 0.2\ndt = 0.1\nemit_plots = true\n"
        f"outputs = {tmp_path / 'sweep'}\n")
    scenario.run_scenario(configs)
    names = {path.name for path in (tmp_path / "sweep").rglob("*") if path.is_file()}
    assert names == {"index.json", "trajectory.csv", "report.json",
                     "negativity.svg", "discord.svg"}
    for name in names:
        assert f"`{name}`" in section, name


def test_readme_config_table_lists_the_state_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    (row,) = re.findall(r"^\| `initial_state`.*$", table, re.MULTILINE)
    names = row.split("|")[3].strip().strip("`").split()
    assert tuple(names) == scenario.STATE_NAMES


FREEZE_PROBE = """
import gc, runpy, sys
from bispinor.cli import main
argv = ["plan", "--config", {cfg!r}]
before = gc.get_freeze_count()
main_code = main(argv)
main_frozen = gc.get_freeze_count() - before
sys.argv = ["bispinor", *argv]
try:
    runpy.run_module("bispinor.cli", run_name="__main__")
except SystemExit as exc:
    entry_code = exc.code
print(main_code, main_frozen, entry_code, gc.get_freeze_count())
"""


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    # main() as tests and library callers run it, then `python -m
    # bispinor.cli`, whose __main__ block runs entry(), the console script
    cfg = write_config(tmp_path, "m_over_p = 1.0\nt_max = 1.0\ndt = 0.1\n")
    words = import_probe(FREEZE_PROBE.format(cfg=str(cfg)))
    assert words.count("m_over_p=1:") == 2
    main_code, main_frozen, entry_code, entry_frozen = words[-4:]
    assert (main_code, main_frozen, entry_code) == ("0", "0", "0")
    assert int(entry_frozen) > 0


def test_selftest_end_to_end(tmp_path):
    """The acceptance battery as users run it, in a fresh interpreter."""
    golden = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "golden" / "selftest.json").read_text())
    proc = subprocess.run([sys.executable, "-m", "bispinor.cli", "selftest"],
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp_path, env=fresh_interpreter_env(TMPDIR=str(tmp_path)))
    assert proc.returncode == 2, proc.stderr
    lines = re.findall(r"^criterion (\d\d) \[[^\]]*\]: (PASS|FAIL) - (.*)$",
                       proc.stdout, re.MULTILINE)
    assert [int(number) for number, _, _ in lines] == list(range(1, 12))
    failed = {int(number): detail for number, verdict, detail in lines
              if verdict == "FAIL"}
    assert failed == {int(k): v for k, v in golden["details"].items()}
    # criterion 11's temporary directory is removed with the heap frozen
    assert list(tmp_path.iterdir()) == []
