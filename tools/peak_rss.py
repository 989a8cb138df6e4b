"""Peak RSS of the benchmark's three workloads and one long run, in plain-fork children.

    PYTHONPATH=src python tools/peak_rss.py [N]

runs `python -m bispinor.cli` N times (default 5) for each of the
benchmark's workloads (figure, sweep, selftest), on the package that
PYTHONPATH selects, and for a fourth, fixed run: `long`, the figure
config at t_max = 2000 (200,001 samples), where the columns and the
feature scan, not one block's working set, set the peak. Each run gets a
fresh working directory holding the inputs `perfbench/workloads.py`
writes for it (for `long`, the figure config with its t_max changed),
and is a child started by `os.fork` and `os.execve`. The rounds
interleave the runs. Prints each run's median, min and max `ru_maxrss`
in MB, and exits 1 if a run returned another exit code than expected.

Why a plain fork: `subprocess` starts its children by vfork, and a vfork
child shares its parent's memory until exec, which folds the parent's
high-water RSS into the child's `ru_maxrss`; such a child reads at least
its parent's peak. A forked child has its own copy of a small parent
(this script never imports numpy), so `ru_maxrss` is the run's own.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DEFAULT_SEED, FIGURE_CONFIG, WORKLOADS, prepare  # noqa: E402

#: the figure config at t_max = 2000: 200,001 samples
LONG_CONFIG = FIGURE_CONFIG.replace("t_max = 20.0\n", "t_max = 2000.0\n")
assert LONG_CONFIG != FIGURE_CONFIG
#: each run's expected exit code, in round order
EXPECTED_EXIT = {**{name: w.expected_exit for name, w in WORKLOADS.items()}, "long": 0}


def prepare_run(name: str, unit_dir: Path) -> list:
    """Write run name's inputs into unit_dir and return the CLI arguments."""
    if name != "long":
        return prepare(name, DEFAULT_SEED, unit_dir)
    (unit_dir / "run.cfg").write_text(LONG_CONFIG)
    return ["simulate", "--config", "run.cfg"]


def run_forked(argv: list, cwd: Path, env: dict) -> tuple:
    """Exit code and ru_maxrss in MB of argv, run in cwd by a forked child.

    The child's standard output and error go to stdout.txt and stderr.txt
    in cwd.
    """
    pid = os.fork()
    if pid == 0:
        try:
            os.chdir(cwd)
            for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
                os.dup2(os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), fd)
            os.execve(argv[0], argv, env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def main(runs: int) -> int:
    # the children run elsewhere, so relative PYTHONPATH entries are resolved
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        # TMPDIR keeps selftest's temporary directory in here too
        env = dict(os.environ, TMPDIR=tmp,
                   PYTHONPATH=os.pathsep.join(str(Path(p).resolve()) for p in paths if p))
        peaks = {name: [] for name in EXPECTED_EXIT}
        for k in range(runs):
            for name, expected in EXPECTED_EXIT.items():
                unit_dir = Path(tmp) / f"{name}_{k}"
                unit_dir.mkdir()
                args = prepare_run(name, unit_dir)
                code, peak = run_forked([sys.executable, "-m", "bispinor.cli", *args],
                                        unit_dir, env)
                if code != expected:
                    failed = True
                    print(f"{name} run {k}: exit {code}, expected {expected}: "
                          f"{(unit_dir / 'stderr.txt').read_text()[-300:]}", file=sys.stderr)
                peaks[name].append(peak)
    for name, values in peaks.items():
        print(f"{name:9s} peak RSS median {statistics.median(values):.2f} MB, "
              f"min {min(values):.2f}, max {max(values):.2f} ({len(values)} runs)")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and not sys.argv[1].isdigit()):
        sys.exit(f"usage: {sys.argv[0]} [N]")
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) == 2 else 5))
