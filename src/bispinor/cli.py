"""Command-line front end.

Subcommands: `simulate` runs a config (single point or m_over_p sweep)
and writes CSV/JSON/SVG outputs, `plan` prints the trapped-ion laser
parameters realizing a config, `selftest` runs the built-in acceptance
battery. Exit codes: 0 success, 1 usage error, 2 invariant violation,
3 I/O error.

`entry` is the process entry point (the `bispinor` console script and
`python -m bispinor.cli`): it freezes the import-time heap, then runs
`main`. `main` itself leaves the garbage collector alone, so it can be
called in-process.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import UsageError
from .ionmap import dirac_to_ion
from .scenario import ScenarioConfig, load_config, run_scenario, scenario_params


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; remap to our usage error
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bispinor",
                     description="four-level two-qubit dephasing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario config")
    sim.add_argument("--config", required=True, help="path to a key=value config file")
    sim.add_argument("--out", help="override the output directory")
    sim.add_argument("--plots", action="store_true", help="also write SVG charts")

    plan = sub.add_parser("plan", help="print the ion parameters for a config")
    plan.add_argument("--config", required=True, help="path to a key=value config file")

    sub.add_parser("selftest", help="run the acceptance battery")
    return parser


def _cmd_simulate(args) -> int:
    configs = load_config(args.config)
    overrides = {} if args.out is None else {"outputs": args.out}
    if args.plots:
        overrides["emit_plots"] = True
    if overrides:
        configs = [ScenarioConfig(**dict(c._asdict(), **overrides)) for c in configs]
    results = run_scenario(configs)
    for cfg, report, out_dir in results:
        print(f"m_over_p={cfg.m_over_p:g} initial={cfg.initial_state} -> {out_dir}")
        print(f"  death intervals: {len(report.death_intervals)}, "
              f"revivals: {report.revival_count}, "
              f"N in [{report.min_negativity:.6g}, {report.max_negativity:.6g}], "
              f"final purity {report.final_purity:.6g}")
    return 0


def _cmd_plan(args) -> int:
    for cfg in load_config(args.config):
        ion = dirac_to_ion(scenario_params(cfg))
        print(f"m_over_p={cfg.m_over_p:g}:")
        print(f"  detuning delta        = {ion.delta:.12g}")
        print(f"  eta*Delta*Omega-tilde = {ion.eta_delta_omega:.12g}")
        print(f"  Omega^(1) (tensor)    = ({ion.omega1[0]:.12g}, "
              f"{ion.omega1[1]:.12g}, {ion.omega1[2]:.12g})")
        print(f"  Omega^(2) (pseudo)    = ({ion.omega2[0]:.12g}, "
              f"{ion.omega2[1]:.12g}, {ion.omega2[2]:.12g})")
    return 0


def _cmd_selftest() -> int:
    from .acceptance import run_selftest

    return 0 if run_selftest() else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "plan":
            return _cmd_plan(args)
        return _cmd_selftest()
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # every package error but UsageError
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> int:
    """Run `main` on the command line with the import-time heap frozen.

    The objects numpy and the package create at import live until exit
    anyway. `gc.freeze` moves them to the permanent generation, so the
    full collections the interpreter makes at shutdown skip them instead
    of walking ~21k objects each time. (`gc.disable` would not help:
    those collections run regardless.)
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
