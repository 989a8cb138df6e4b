"""Benchmark of the `bispinor` CLI: end-to-end timings and per-layer traces.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figure|sweep|selftest|all \
        --seed N --seconds S --trace 0|1

With --trace 0 the benchmark measures set-up (fresh interpreters that
import the package and load the workload's config), then runs untraced
units one after another for about S seconds, at least `min_units`
of them. Every SLICE_EVERY_S seconds a unit is stopped while a warm
`reference.py` process runs one fixed slice of work on the CPU the unit
was on (see reference.py). Every unit's outputs are checked against the
golden files and against the first unit's bytes. It prints the
end-to-end metrics: the gated ones (run_rel and cpu_rel, a unit's time
over the mean time of the slices taken during it; setup_s; peak_rss_mb)
and, beside them, the raw wall and CPU times, whose drift with the load
of a shared host is too large to gate.

With --trace 1 it runs one untraced unit and then two traced units
(`trace_unit.py`), prints the per-layer metrics of the traced units and
the tracing overhead, and requires the two traced units to give
identical call counts. S does not apply to this mode.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything the units write goes
to `.perfbench_run/` in the checkout, which is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
TRACED_UNITS = 2
# a timed unit is stopped for one reference slice (about 0.2 s) per this
# many seconds of its run; see reference.py
SLICE_EVERY_S = 0.75
# one invocation must exit within 180 s, so every child of a workload ends by this
TIME_LIMIT_S = 170.0

SETUP_CODE = {
    "simulate": ("import bispinor\n"
                 "from bispinor.scenario import load_config\n"
                 "load_config('run.cfg')\n"),
    "selftest": "import bispinor.acceptance\n",
}

# the metrics BENCHMARK.json gates; the raw timings are printed beside them
END_TO_END_UNITS = {"run_rel": "ratio", "cpu_rel": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PRINTED_UNITS = dict(END_TO_END_UNITS, run_s="s", cpu_s="s", samples_per_s="1/s",
                     slice_s="s")

CALL_COUNTED = (
    "linalg.hermitian_eigensystem", "linalg.tensor_product",
    "correlations.sample_correlations", "correlations.geometric_discord",
    "noise.evolve_noisy", "noise.build_kraus_set",
    "dirac.eigenprojectors", "dirac.build_dirac_hamiltonian",
)
SELF_TIMED = (
    "linalg.hermitian_eigensystem", "linalg.tensor_product",
    "linalg.trace_norm_hermitian", "linalg.partial_transpose",
    "correlations.sample_correlations", "correlations.negativity",
    "correlations.geometric_discord", "correlations.fano_decompose",
    "correlations.purity",
    "noise.evolve_noisy", "noise.evolve_noiseless", "noise.build_kraus_set",
    "noise.apply_channel",
    "scenario.load_config", "scenario.run_scenario", "scenario.run_trajectory",
    "scenario.detect_features", "scenario.emit_outputs",
    "dirac.eigenprojectors", "dirac.compute_g2",
    "ionmap.dirac_to_ion", "ionmap.assemble_ion_hamiltonian",
)
CRITERIA = tuple(f"acceptance.criterion_{n:02d}" for n in range(1, 12))
# metrics that must repeat exactly between two traced units of one build
EXACT = tuple(f"{name}.calls" for name in CALL_COUNTED) + (
    "linalg.eig_per_sample", "noise.kraus_per_sample")


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


class Runner:
    """Starts child interpreters one at a time and measures each.

    Every timed and traced unit is a fresh interpreter, the way a CLI
    user runs the tool: the numpy import and the `lru_cache`s in
    `bispinor.noise` (`_spectral_or_none`, `_hamiltonian_eigensystem`)
    are then paid by every unit instead of being warm from the one
    before. One child runs at a time, so the generator is a closed loop
    with a single client.
    """

    def __init__(self, root: Path, work: Path, deadline: float):
        self.deadline = deadline
        old = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        # TMPDIR keeps criterion 11's temporary directory inside the checkout
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""),
                        TMPDIR=str(tmp))

    def spawn(self, argv: list, cwd: Path, probe: "Probe" = None) -> dict:
        """Run argv to completion; wall time, CPU time, peak RSS and exit code.

        With a probe, the child is stopped every SLICE_EVERY_S seconds of
        its run while the probe runs one reference slice; `wall_s` leaves
        out the stopped time, and `slices` holds the slices' times.
        """
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return {"exit": None, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "slices": []}
        stopped, slices = 0.0, []
        with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            previous = signal.signal(signal.SIGALRM, _on_alarm)
            timed_out, status = False, None
            try:
                while status is None:
                    remaining = self.deadline - time.perf_counter()
                    slice_due = probe is not None and remaining > SLICE_EVERY_S
                    try:
                        signal.setitimer(signal.ITIMER_REAL,
                                         SLICE_EVERY_S if slice_due else max(remaining, 1e-3))
                        _, status, usage = os.wait4(proc.pid, 0)
                        break
                    except _Timeout:
                        pass
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    if status is not None:
                        break  # the alarm came after the child was reaped
                    if not slice_due:
                        timed_out = True
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, got, usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(got):
                        status = got  # it exited before the stop reached it
                        break
                    paused = time.perf_counter()
                    try:
                        slices.append(probe.slice(_last_cpu(proc.pid)))
                    finally:
                        os.kill(proc.pid, signal.SIGCONT)
                        stopped += time.perf_counter() - paused
            finally:
                signal.signal(signal.SIGALRM, previous)
                if status is None:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started - stopped
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"exit": None if timed_out else proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "slices": slices}


def _last_cpu(pid: int) -> int:
    """The CPU a process last ran on (field 39 of /proc/PID/stat)."""
    with open(f"/proc/{pid}/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


class Probe:
    """A `reference.py` process that runs one fixed slice of work on request."""

    def __init__(self, python: str, env: dict, cwd: Path):
        self.proc = subprocess.Popen([python, str(HERE / "reference.py")], cwd=cwd, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.checksum = None
        self.slice()  # the process is warm and idle before any unit starts

    def slice(self, cpu: int = None) -> tuple:
        """(wall_s, cpu_s) of one slice, run on the given CPU if one is named."""
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        fields = self.proc.stdout.readline().split()
        if len(fields) != 3:
            raise SystemExit(f"reference process failed with exit {self.proc.poll()}")
        if self.checksum is None:
            self.checksum = fields[2]
        elif fields[2] != self.checksum:
            raise SystemExit(f"reference slice gave checksum {fields[2]}, not {self.checksum}")
        return float(fields[0]), float(fields[1])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def environment_lines(seed: int, names: list) -> list:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ.get(k, "unset")
               for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    lines = [
        f"env nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} platform={platform.platform()}",
        f"env python={platform.python_version()} numpy={numpy.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} "
        f"config={blas.get('openblas configuration', 'n/a')!r} "
        + " ".join(f"{k}={v}" for k, v in threads.items()),
        "env generator: one process, closed loop, one unit at a time "
        "(children may use up to nproc BLAS threads); the reference process "
        "runs only while the unit is stopped",
        f"env seed={seed}",
    ]
    for name in names:
        w = wl.WORKLOADS[name]
        lines.append(f"workload {name}: {w.samples} samples/unit, "
                     f"expected exit {w.expected_exit}; why: {w.why}")
    return lines


def _tail(values: list) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}={ordered[math.ceil(p / 100.0 * n) - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


class Bench:
    def __init__(self, work: Path, seed: int, seconds: float):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.python = sys.executable

    def _unit(self, runner: Runner, workload: str, unit_dir: Path, golden,
              trace_spans: Path = None, unit_id: int = 0, probe: "Probe" = None):
        unit_dir.mkdir(parents=True)
        cli_args = wl.prepare(workload, self.seed, unit_dir)
        if trace_spans is None:
            argv = [self.python, "-m", "bispinor.cli", *cli_args]
        else:
            argv = [self.python, str(HERE / "trace_unit.py"), str(trace_spans),
                    str(unit_id), "--", *cli_args]
        result = runner.spawn(argv, unit_dir, probe)
        if result["exit"] is None:
            result["problems"] = [f"{workload}: unit did not finish within the time limit"]
        else:
            result["problems"] = wl.check_unit(workload, self.seed, unit_dir,
                                               result["exit"], golden)
        return result

    def _same_bytes(self, reference: dict, unit_dir: Path, result: dict) -> None:
        if reference is not None and wl.output_files(unit_dir) != reference:
            result["problems"].append("outputs are not byte-identical to the first unit's")

    def _setup_once(self, runner: Runner, workload: str) -> float:
        d = self.work / workload / "setup"
        if not d.is_dir():
            d.mkdir(parents=True)
            wl.prepare(workload, self.seed, d)
        code = SETUP_CODE["selftest" if workload == "selftest" else "simulate"]
        r = runner.spawn([self.python, "-c", code], d)
        if r["exit"] != 0:
            raise SystemExit(f"set-up child failed with exit {r['exit']}: "
                             + (d / "stderr.txt").read_text()[-500:])
        return r["wall_s"]

    def run_timed(self, runner: Runner, workload: str) -> tuple:
        w = wl.WORKLOADS[workload]
        golden = wl.load_golden(workload, self.seed)
        probe = Probe(self.python, runner.env, self.work)
        try:
            units, setups = self._timed_units(runner, workload, golden, probe)
        finally:
            probe.close()
        walls = [u["wall_s"] for u in units]
        cpus = [u["cpu_s"] for u in units]
        ref_walls = [statistics.fmean(x[0] for x in u["slices"]) for u in units]
        ref_cpus = [statistics.fmean(x[1] for x in u["slices"]) for u in units]
        samples = {
            "run_rel": [u / x for u, x in zip(walls, ref_walls)],
            "cpu_rel": [u / x for u, x in zip(cpus, ref_cpus)],
            "setup_s": setups,
            "peak_rss_mb": [u["rss_mb"] for u in units],
            "run_s": walls,
            "cpu_s": cpus,
            "samples_per_s": [w.samples / x for x in walls],
            "slice_s": [x[0] for u in units for x in u["slices"]],
        }
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["samples_per_s"] = w.samples / metrics["run_s"]
        return units, metrics, samples

    def _timed_units(self, runner: Runner, workload: str, golden, probe: "Probe") -> tuple:
        w = wl.WORKLOADS[workload]
        # one set-up before each unit spreads the set-up samples over the
        # run, so a slow stretch of the shared host does not hit all of them
        setups, laps = [], []
        units, reference = [], None
        started = time.perf_counter()
        while True:
            lap = time.perf_counter()
            setups.append(self._setup_once(runner, workload))
            unit_dir = self.work / workload / f"unit{len(units)}"
            r = self._unit(runner, workload, unit_dir, golden, probe=probe)
            if not r["slices"]:
                # a unit shorter than SLICE_EVERY_S is compared with a slice right after it
                r["slices"].append(probe.slice())
            if w.expected_exit == 0:
                if reference is None:
                    reference = wl.output_files(unit_dir)
                else:
                    self._same_bytes(reference, unit_dir, r)
                    shutil.rmtree(unit_dir)
            units.append(r)
            now = time.perf_counter()
            laps.append(now - lap)
            typical = statistics.median(laps)
            if r["exit"] is None or now + typical > runner.deadline:
                break
            if len(units) >= w.min_units and now - started + typical > self.seconds:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(self._setup_once(runner, workload))
        return units, setups

    def run_traced(self, runner: Runner, workload: str) -> tuple:
        w = wl.WORKLOADS[workload]
        golden = wl.load_golden(workload, self.seed)
        base_dir = self.work / workload / "untraced"
        base = self._unit(runner, workload, base_dir, golden)
        reference = wl.output_files(base_dir) if w.expected_exit == 0 else None
        units, layers = [base], []
        for k in range(TRACED_UNITS):
            unit_dir = self.work / workload / f"traced{k}"
            spans = self.work / workload / f"spans{k}.json"
            r = self._unit(runner, workload, unit_dir, golden, spans, k)
            self._same_bytes(reference, unit_dir, r)
            units.append(r)
            if r["exit"] is None:
                break
            layers.append(layer_metrics(json.loads(spans.read_text()), w.samples))
        metrics = {}
        if len(layers) == TRACED_UNITS:
            for key in layers[0]:
                values = [m[key] for m in layers]
                # counts keep their exact value when the units agree
                metrics[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
            metrics["trace.overhead"] = (
                statistics.median(u["wall_s"] for u in units[1:]) / base["wall_s"] - 1.0)
            for key in EXACT:
                if len({m[key] for m in layers}) != 1:
                    units[-1]["problems"].append(
                        f"benchmark defect: {key} differs between traced units: "
                        f"{[m[key] for m in layers]}")
        return units, metrics


def layer_metrics(trace: dict, samples: int) -> dict:
    """Per-layer counts and self times of one traced unit.

    A span's self time is its duration minus the durations of its
    direct children; spans nest, so the children never overlap.
    """
    names, spans = trace["names"], trace["spans"]
    calls = dict.fromkeys(names, 0)
    inclusive = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    covered = [0.0] * len(spans)
    for name_idx, start, end, parent, _unit in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name_idx, start, end, _parent, _unit), child in zip(spans, covered):
        name = names[name_idx]
        calls[name] += 1
        inclusive[name] += end - start
        self_s[name] += end - start - child
    out = {}
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["linalg.eig_per_sample"] = out["linalg.hermitian_eigensystem.calls"] / samples
    out["noise.kraus_per_sample"] = out["noise.build_kraus_set.calls"] / samples
    out["scenario.emit_outputs.bytes"] = trace["counters"].get("scenario.emit_outputs", 0)
    for name in CRITERIA:
        out[f"{name}.s"] = inclusive.get(name, 0.0)
    out["cli.import_s"] = trace["import_s"]
    out["cli.import_numpy_s"] = trace["import_numpy_s"]
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_sample") or name == "trace.overhead":
        return "ratio"
    return "s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bispinor" / "cli.py").is_file():
        print("perfbench: run from the root of a bispinor checkout "
              "(src/bispinor/cli.py not found)", file=sys.stderr)
        return 1
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    for line in environment_lines(args.seed, names):
        print(line)

    work = root / ".perfbench_run"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(work, args.seed, args.seconds)
    attempted = failed = 0
    merged = {}
    try:
        for name in names:
            runner = Runner(root, work, time.perf_counter() + TIME_LIMIT_S)
            if args.trace:
                units, values = bench.run_traced(runner, name)
                metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
                for k, m in metrics.items():
                    print(f"{name:8s} {k:42s} {m['value']:.6g} {m['unit']}")
            else:
                units, values, samples = bench.run_timed(runner, name)
                for k, v in values.items():
                    print(f"{name:8s} {k:14s} {v:.6g} {PRINTED_UNITS[k]:5s} "
                          f"median of n={len(samples[k])}; {_tail(samples[k])}")
                metrics = {k: {"value": values[k], "unit": u}
                           for k, u in END_TO_END_UNITS.items()}
            bad = [u for u in units if u["problems"]]
            print(f"{name:8s} {'error_rate':14s} {len(bad) / len(units):.6g} ratio "
                  f"({len(bad)} of {len(units)} units failed)")
            for u in bad:
                for problem in u["problems"]:
                    print(f"{name:8s} FAILED: {problem}")
            attempted += len(units)
            failed += len(bad)
            if len(names) == 1:
                merged = metrics
            else:
                merged.update({f"{name}.{k}": m for k, m in metrics.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
