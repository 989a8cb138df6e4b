"""End-to-end outputs against the benchmark's golden files.

The `figure` and `sweep` (seed 1) workloads run through `cli.main` in a
fresh working directory, because report.json echoes the relative
`outputs` path, and are checked with the benchmark's own output checks
(every CSV cell and report field at 1e-12). The two acceptance criteria
that fail by design must report the golden detail strings byte for byte.
The files under perfbench/ are only read.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bispinor import acceptance
from bispinor.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", ["figure", "sweep"])
def test_simulate_workload_matches_golden(tmp_path, monkeypatch, name):
    seed = workloads.DEFAULT_SEED
    monkeypatch.chdir(tmp_path)
    assert main(workloads.prepare(name, seed, tmp_path)) == 0
    golden = workloads.load_golden(name, seed)
    if name == "figure":
        problems = workloads.check_figure(tmp_path, golden)
    else:
        problems = workloads.check_sweep(tmp_path, seed, golden)
    assert problems == []


def test_failing_criteria_keep_the_golden_details():
    golden = workloads.load_golden("selftest", workloads.DEFAULT_SEED)
    cache = acceptance.AcceptanceCache()
    for number in golden["fail"]:
        ok, detail = acceptance.CRITERIA[number - 1][2](cache)
        assert not ok
        assert detail == golden["details"][str(number)]
