"""Workload inputs, expected outputs and the output checks.

Each workload turns the benchmark seed into the files one unit needs: a
config for `bispinor simulate`, or nothing for `bispinor selftest`. The
program only ever sees those generated files. A unit runs in its own
working directory with the outputs key set to the relative path `out`,
so two units of one config must write byte-identical files.

Golden outputs in `golden/` were produced by `make_golden.py` at the
commit that introduced the benchmark. The simulate workloads compare
every CSV cell and report field against them at an absolute tolerance
of 1e-12; the selftest workload compares the PASS/FAIL pattern and the
measured values of the two criteria that fail by design.
"""

from __future__ import annotations

import gzip
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

DEFAULT_SEED = 1
CELL_TOL = 1e-12
CSV_HEADER = "t,negativity,discord_1,discord_2,purity,min_eigenvalue,trace_deviation"

SWEEP_POINTS = 16
SWEEP_SAMPLES_PER_POINT = 201
# selftest: five 2001-sample figure trajectories plus criterion 11's two
# 501-sample reruns
SELFTEST_SAMPLES = 5 * 2001 + 2 * 501

FIGURE_CONFIG = """\
m_over_p = 1.0
E_over_p = 1.0
kappa = 1.0
mu = 1.0
gamma_over_p = 0.5
initial_state = cat
t_max = 20.0
dt = 0.01
outputs = out
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    samples: int        # trajectory samples computed, checked and written per unit
    expected_exit: int
    min_units: int      # two simulate units are needed for the byte-identity check


WORKLOADS = {
    "figure": Workload(
        "figure",
        "paper figure trajectory on the analytic-projector path; the per-sample "
        "noise, correlations and linalg chain does ~99% of the work",
        2001, 0, 2),
    "sweep": Workload(
        "sweep",
        "16 seeded E=0 masses: numeric-fallback evolution, 16 cold Hamiltonians "
        "and 16 output directories with SVGs, so per-point setup and writing show",
        SWEEP_POINTS * SWEEP_SAMPLES_PER_POINT, 0, 2),
    "selftest": Workload(
        "selftest",
        "the acceptance battery users run after install; the only workload on "
        "the 48-point spectrum, projector and ion-map grid",
        SELFTEST_SAMPLES, 2, 1),
}


def sweep_masses(seed: int) -> list:
    """Sixteen distinct m/p values in [0, 8] on a 0.01 grid, drawn from the seed."""
    rng = random.Random(seed)
    return sorted(k / 100 for k in rng.sample(range(801), SWEEP_POINTS))


def sweep_config(seed: int) -> str:
    masses = ", ".join(repr(m) for m in sweep_masses(seed))
    return (f"m_over_p = {masses}\n"
            "E_over_p = 0.0\n"
            "gamma_over_p = 0.5\n"
            "initial_state = cat\n"
            "t_max = 2.0\n"
            "dt = 0.01\n"
            "emit_plots = true\n"
            "outputs = out\n")


def prepare(workload: str, seed: int, unit_dir: Path) -> list:
    """Write the unit's inputs into unit_dir and return the CLI arguments."""
    if workload == "selftest":
        return ["selftest"]
    text = FIGURE_CONFIG if workload == "figure" else sweep_config(seed)
    (unit_dir / "run.cfg").write_text(text)
    return ["simulate", "--config", "run.cfg"]


# ---------------------------------------------------------------- checks

def _close(got, want) -> bool:
    """Structural equality with numbers compared at CELL_TOL."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= CELL_TOL)
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k]) for k in want))
    return got == want


def _read_csv(path: Path, rows: int, problems: list, label: str):
    """Header and row-count check; returns the parsed cells or None."""
    if not path.is_file():
        problems.append(f"{label}: missing {path.name}")
        return None
    lines = path.read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        problems.append(f"{label}: wrong CSV header")
        return None
    if len(lines) - 1 != rows:
        problems.append(f"{label}: {len(lines) - 1} rows, expected {rows}")
        return None
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _compare_csv(got, golden_text: str, problems: list, label: str) -> None:
    want = [[float(x) for x in line.split(",")]
            for line in golden_text.splitlines()[1:]]
    for r, (grow, wrow) in enumerate(zip(got, want)):
        if len(grow) != len(wrow):
            problems.append(f"{label}: row {r + 1} has {len(grow)} cells")
            return
        for c, (g, w) in enumerate(zip(grow, wrow)):
            if abs(g - w) > CELL_TOL:
                problems.append(f"{label}: cell ({r + 1}, {c + 1}) is {g!r}, golden {w!r}")
                return


def _read_report(path: Path, problems: list, label: str):
    if not path.is_file():
        problems.append(f"{label}: missing {path.name}")
        return None
    try:
        return json.loads(path.read_text())
    except ValueError:
        problems.append(f"{label}: report.json is not JSON")
        return None


def load_golden(workload: str, seed: int):
    """Golden data for this workload and seed, or None where none is kept."""
    if workload == "selftest":
        return json.loads((GOLDEN_DIR / "selftest.json").read_text())
    if workload == "sweep" and seed != DEFAULT_SEED:
        return None
    name = "figure" if workload == "figure" else f"sweep_seed{DEFAULT_SEED}"
    with gzip.open(GOLDEN_DIR / f"{name}.json.gz", "rt") as fh:
        return json.load(fh)


def check_figure(unit_dir: Path, golden) -> list:
    problems = []
    out = unit_dir / "out"
    cells = _read_csv(out / "trajectory.csv", WORKLOADS["figure"].samples, problems, "figure")
    report = _read_report(out / "report.json", problems, "figure")
    if golden is not None:
        if cells is not None:
            _compare_csv(cells, golden["trajectory.csv"], problems, "figure")
        if report is not None and not _close(report, json.loads(golden["report.json"])):
            problems.append("figure: report.json differs from golden")
    return problems


def check_sweep(unit_dir: Path, seed: int, golden) -> list:
    """Index entries, per-point files and (default seed) golden contents.

    Points are matched by their m_over_p value, not by directory name, so
    a change to the naming scheme alone is not a failure.
    """
    problems = []
    out = unit_dir / "out"
    masses = sweep_masses(seed)
    index = _read_report(out / "index.json", problems, "sweep")
    if index is None:
        return problems
    points = index.get("points") if isinstance(index, dict) else None
    if not isinstance(points, list) or [p.get("m_over_p") for p in points] != masses:
        problems.append("sweep: index.json does not list the 16 input masses in order")
        return problems
    paths = [p.get("trajectory") for p in points] + [p.get("report") for p in points]
    if len(set(paths)) != len(paths):
        problems.append("sweep: index.json lists a file twice")
    for entry in points:
        label = f"sweep m={entry['m_over_p']!r}"
        csv_path = out / entry["trajectory"]
        cells = _read_csv(csv_path, SWEEP_SAMPLES_PER_POINT, problems, label)
        report = _read_report(out / entry["report"], problems, label)
        for svg in ("negativity.svg", "discord.svg"):
            svg_path = csv_path.parent / svg
            if not svg_path.is_file() or svg_path.stat().st_size == 0:
                problems.append(f"{label}: missing {svg}")
        if golden is None:
            continue
        want = golden["points"][repr(entry["m_over_p"])]
        if cells is not None:
            _compare_csv(cells, want["trajectory.csv"], problems, label)
        if report is not None:
            # the echoed outputs path carries the directory name; compare the rest
            got = dict(report, config={k: v for k, v in report.get("config", {}).items()
                                       if k != "outputs"})
            ref = json.loads(want["report.json"])
            ref["config"].pop("outputs")
            if not _close(got, ref):
                problems.append(f"{label}: report.json differs from golden")
    return problems


CRITERION_LINE = re.compile(r"^criterion (\d\d) \[[^\]]*\]: (PASS|FAIL) - (.*)$")


def parse_selftest(stdout: str) -> dict:
    """criterion number -> (verdict, detail) from the selftest's output."""
    found = {}
    for line in stdout.splitlines():
        m = CRITERION_LINE.match(line)
        if m:
            found[int(m.group(1))] = (m.group(2), m.group(3))
    return found


def check_selftest(stdout: str, golden) -> list:
    """Exactly the criteria golden names fail, with the seed's measured values.

    Criterion 11's detail carries the elapsed seconds, so only details of
    the failing criteria are compared.
    """
    problems = []
    found = parse_selftest(stdout)
    if sorted(found) != list(range(1, 12)):
        return [f"selftest: criteria lines {sorted(found)}, expected 1..11"]
    failing = sorted(n for n, (verdict, _) in found.items() if verdict == "FAIL")
    if failing != golden["fail"]:
        problems.append(f"selftest: criteria {failing} failed, expected {golden['fail']}")
    for n in golden["fail"]:
        if found[n][1] != golden["details"][str(n)]:
            problems.append(f"selftest: criterion {n} detail changed: {found[n][1]}")
    if "selftest FAILED" not in stdout.splitlines()[-1]:
        problems.append("selftest: missing the final FAILED summary line")
    return problems


def check_unit(workload: str, seed: int, unit_dir: Path, exit_code: int, golden) -> list:
    """Problems found in one finished unit; an empty list means it passed."""
    want = WORKLOADS[workload].expected_exit
    if exit_code != want:
        return [f"{workload}: exit code {exit_code}, expected {want}"]
    if workload == "figure":
        return check_figure(unit_dir, golden)
    if workload == "sweep":
        return check_sweep(unit_dir, seed, golden)
    return check_selftest((unit_dir / "stdout.txt").read_text(), golden)


def output_files(unit_dir: Path) -> dict:
    """Relative path -> bytes of everything the unit wrote under out/."""
    out = unit_dir / "out"
    if not out.is_dir():
        return {}
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}
