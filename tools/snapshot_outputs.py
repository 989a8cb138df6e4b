"""Write every output the CLI makes on a fixed set of runs into one directory.

    PYTHONPATH=src python tools/snapshot_outputs.py OUT

runs `bispinor.cli.main` in-process, on the package that PYTHONPATH
selects, and writes into OUT (which must not exist yet):

- `figure/`: the benchmark's figure config, with `--plots`;
- `sweep_seed1/`, `sweep_seed7/`: the benchmark's sweep at seeds 1 and 7,
  plots on;
- `custom/`: a 2-point sweep from the cat state given as custom entries,
  with `--plots`;
- `plan.txt`: `plan` of those four configs and of PLAN_ONLY, a point off
  the pi/4 line with kappa != mu, so the x and y drives and the two
  channels all differ;
- `selftest.txt`: `selftest`, with its elapsed times masked;
- `refusals.txt`: the exit code and printed line of each refused
  single-point config of REFUSALS;
- `refused_sweep.txt`: the exit code, the printed line and the sorted
  files left under the outputs of REFUSED_SWEEP, refused at run time;
- `python_api.txt`: what the `python` block of README.md prints, read
  from the README beside the package PYTHONPATH selects, so each
  checkout runs its own example on its own package;
- `<run>.stdout` and `exit_codes.txt`: what each run printed and returned.

The figure and sweep configs are read from `perfbench/workloads.py`. Two
snapshots, say of two checkouts, are equal when `diff -r` finds nothing.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import FIGURE_CONFIG, sweep_config  # noqa: E402

import bispinor  # noqa: E402
from bispinor.cli import main  # noqa: E402

#: the README of the checkout whose src/ holds the package under test
README = Path(bispinor.__file__).resolve().parents[2] / "README.md"

_CAT = ["0"] * 16
_CAT[0] = _CAT[3] = _CAT[12] = _CAT[15] = "0.5"
CUSTOM_CONFIG = f"""\
m_over_p = 1.0, 2.0
initial_state = custom
custom_state = {", ".join(_CAT)}
t_max = 2.0
dt = 0.01
outputs = out
"""

CONFIGS = {"figure": FIGURE_CONFIG, "sweep_seed1": sweep_config(1),
           "sweep_seed7": sweep_config(7), "custom": CUSTOM_CONFIG}

#: a config run through `plan` only: theta = pi/3, kappa = 1, mu = 0.5
PLAN_ONLY = f"theta = {math.pi / 3!r}\nkappa = 1.0\nmu = 0.5\n"


def _custom(entries: dict) -> str:
    """Config lines for a custom start: zeros but for the given {flat index: text} entries."""
    row = ["0"] * 16
    for k, text in entries.items():
        row[k] = text
    return f"initial_state = custom\ncustom_state = {', '.join(row)}\n"


#: single-point configs (t_max = 2, dt = 0.01) the CLI refuses, by name
REFUSALS = {
    "phase_overflow": "m_over_p = 1e308\n",
    "generator_not_finite": "E_over_p = 1e308\nkappa = 1e200\n",
    "custom_trace_2": _custom({0: "1", 15: "1"}),
    "custom_not_hermitian": _custom({0: "1", 1: "0.5"}),
    "custom_entry_1e6": _custom({0: "1e6"}),
    "eps_dead_above_eps_alive": "initial_state = cat\neps_dead = 0.5\neps_alive = 0.01\n",
}

#: a sweep (t_max = 2, dt = 0.01) whose second point the CLI refuses at run time
REFUSED_SWEEP = "m_over_p = 1.0, 1e308\n"

#: "elapsed 1.2 s" in criterion 11's detail and "(3.4 s)" in the last line
_ELAPSED = re.compile(r"(elapsed |\()\d+\.\d s")


def _run(argv) -> tuple:
    """main(argv)'s exit code and everything it printed."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text):
        code = main(argv)
    return code, text.getvalue()


def _python_api() -> str:
    """Everything the README's one `python` block prints."""
    (example,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                            re.DOTALL | re.MULTILINE)
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        exec(compile(example, str(README), "exec"), {})
    return text.getvalue()


def _refused(name: str, lines: str) -> tuple:
    """simulate's exit code and printed output on a t_max = 2, dt = 0.01 config into name/."""
    Path(f"{name}.cfg").write_text(f"t_max = 2.0\ndt = 0.01\noutputs = {name}\n{lines}")
    return _run(["simulate", "--config", f"{name}.cfg"])


def snapshot(out: Path) -> None:
    out.mkdir(parents=True)
    os.chdir(out)  # printed output paths are then relative, and alike
    codes = []
    plans = []
    for name, text in CONFIGS.items():
        Path(f"{name}.cfg").write_text(text)
        code, printed = _run(["simulate", "--config", f"{name}.cfg", "--out", name, "--plots"])
        Path(f"{name}.stdout").write_text(printed)
        codes.append(f"simulate {name}: {code}")
        code, printed = _run(["plan", "--config", f"{name}.cfg"])
        plans.append(f"# {name} (exit {code})\n{printed}")
    Path("plan_only.cfg").write_text(PLAN_ONLY)
    code, printed = _run(["plan", "--config", "plan_only.cfg"])
    plans.append(f"# plan_only (exit {code})\n{printed}")
    Path("plan.txt").write_text("".join(plans))
    code, printed = _run(["selftest"])
    Path("selftest.txt").write_text(_ELAPSED.sub(r"\1? s", printed))
    codes.append(f"selftest: {code}")
    refusals = []
    for name, lines in REFUSALS.items():
        code, printed = _refused(name, lines)
        refusals.append(f"{name}: exit {code}: {printed}")
    Path("refusals.txt").write_text("".join(refusals))
    code, printed = _refused("refused_sweep", REFUSED_SWEEP)
    left = sorted(path.as_posix() for path in Path("refused_sweep").rglob("*") if path.is_file())
    Path("refused_sweep.txt").write_text(f"exit {code}: {printed}" + "".join(
        f"{path}\n" for path in left))
    Path("python_api.txt").write_text(_python_api())
    Path("exit_codes.txt").write_text("\n".join(codes) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    snapshot(Path(sys.argv[1]).resolve())
