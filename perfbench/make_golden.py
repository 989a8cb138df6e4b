"""Regenerate the golden outputs in perfbench/golden/ from the current code.

Usage, from the root of a checkout: python3 perfbench/make_golden.py

Runs one unit of each workload at the default seed through the same
runner as the benchmark and stores what it wrote. Only rerun this when a
change is meant to alter the outputs, and say so with the change.
"""

import gzip
import json
import shutil
import sys
import time
from pathlib import Path

import run
import workloads as wl


def _gzip_json(path: Path, payload) -> None:
    # mtime=0 keeps the archive bytes reproducible
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True).encode())


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_run"
    shutil.rmtree(work, ignore_errors=True)
    seed = wl.DEFAULT_SEED
    wl.GOLDEN_DIR.mkdir(exist_ok=True)
    try:
        runner = run.Runner(root, work, time.perf_counter() + 600.0)
        for name in wl.WORKLOADS:
            unit_dir = work / name
            unit_dir.mkdir(parents=True)
            result = runner.spawn([sys.executable, "-m", "bispinor.cli",
                                   *wl.prepare(name, seed, unit_dir)], unit_dir)
            if result["exit"] != wl.WORKLOADS[name].expected_exit:
                print(f"{name}: exit {result['exit']}", file=sys.stderr)
                return 1
            out = unit_dir / "out"
            if name == "figure":
                _gzip_json(wl.GOLDEN_DIR / "figure.json.gz",
                           {f: (out / f).read_text()
                            for f in ("trajectory.csv", "report.json")})
            elif name == "sweep":
                index = json.loads((out / "index.json").read_text())
                points = {repr(p["m_over_p"]): {
                    "trajectory.csv": (out / p["trajectory"]).read_text(),
                    "report.json": (out / p["report"]).read_text()}
                    for p in index["points"]}
                _gzip_json(wl.GOLDEN_DIR / f"sweep_seed{seed}.json.gz",
                           {"masses": wl.sweep_masses(seed), "points": points})
            else:
                found = wl.parse_selftest((unit_dir / "stdout.txt").read_text())
                fail = sorted(n for n, (verdict, _) in found.items() if verdict == "FAIL")
                payload = {"fail": fail, "details": {str(n): found[n][1] for n in fail}}
                (wl.GOLDEN_DIR / "selftest.json").write_text(
                    json.dumps(payload, indent=1) + "\n")
            print(f"{name}: golden written")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
