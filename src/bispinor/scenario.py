"""Scenario catalog, trajectory runner, feature detection and file outputs.

A scenario fixes the physical ratios (everything is expressed in units of
the momentum p, the unit of every builder), an initial state from the
catalog, a sampling grid and output options. Configs are flat key=value
text files over one schema, _CONFIG_DEFAULTS: every key with its default,
whose type is the key's type. A ScenarioConfig, a values.ValueType, holds
one resolved point; a comma-separated m_over_p list turns a run into a
sweep writing one subdirectory per grid point plus an index file.

The trajectory runner walks its time axis in blocks of BLOCK_SAMPLES
samples; each block is evolved, measured as one (B, 4, 4) stack, checked
beside its times and copied into the trajectory: a dict of seven
read-only float64 columns in CSV order, whose t column is the time axis
itself. Feature detection and the CSV writer read the columns.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from pathlib import Path

import numpy as np

from .correlations import COLUMNS, sample_correlations_stack
from .dirac import DiracParams, operator_stacks
from .errors import InvariantViolation, UsageError
from .linalg import _hermitian_checks, _refuse
from .noise import evolve_noisy_stack
from .values import ValueType

_CATALOG = {"a": (0,), "b": (1,), "c": (2,), "d": (3,), "cat": (0, 3), "werner": (1, 2)}
STATE_NAMES = (*_CATALOG, "custom")

DEFAULT_EPS_DEAD = 1e-6
DEFAULT_EPS_ALIVE = 1e-2

#: largest number of samples one trajectory may ask for (t_max / dt + 1)
MAX_SAMPLES = 1_000_000
#: samples evolved and measured together as one (B, 4, 4) stack, and
#: trajectory.csv rows formatted and written together; bounds the working
#: set and the text held of a long trajectory. Measured on a 2-core x86_64
#: host: peak RSS of `python -m bispinor.cli` children started by a plain
#: fork (tools/peak_rss.py, medians of 5, twice), and the figure config's
#: run_trajectory (median of five series' in-process medians of 12,
#: interleaved; the series ranged over 14-20 ms):
#:
#:     block   figure RSS   selftest RSS   figure run_trajectory
#:      1024     33.8 MB       34.5 MB          14.5 ms
#:       768     32.6 MB       33.5 MB          14.6 ms
#:       512     32.5 MB       33.5 MB          15.0 ms
#:       384     32.35 MB      33.25 MB         15.2 ms
#:       256     32.2 MB       33.0 MB          16.3 ms
#:
#: 512 keeps most of the saving; smaller blocks save 0.3-0.5 MB more and
#: pay numpy's per-call overhead more often. The table predates the
#: engine's in-place Y and the streamed ion assembly, which took selftest
#: at 512 from 33.47 to 33.20 MB and left figure at 32.6-32.7 MB.
BLOCK_SAMPLES = 512

#: the config schema: every config key in order, with the default a config
#: leaving it out takes. A key parses as the type of its default (bool, float
#: or str); m_over_p (a comma list) and custom_state (16 complex numbers) aside
_CONFIG_DEFAULTS = {
    "m_over_p": 1.0,
    "E_over_p": 1.0,
    "kappa": 1.0,
    "mu": 1.0,
    "theta": math.pi / 4,
    "gamma_over_p": 0.5,
    "initial_state": "a",
    "custom_state": None,
    "t_max": 20.0,
    "dt": 0.01,
    "outputs": "./out",
    "emit_plots": False,
    "eps_dead": DEFAULT_EPS_DEAD,
    "eps_alive": DEFAULT_EPS_ALIVE,
}
_FLOAT_KEYS = [key for key, default in _CONFIG_DEFAULTS.items() if type(default) is float]
_NONNEGATIVE_KEYS = ("m_over_p", "E_over_p", "gamma_over_p", "eps_dead", "eps_alive")


class ScenarioConfig(ValueType):
    """One resolved grid point of a run (ratios are in units of p); keywords only.

    Each key is stored as its schema type: a float key as float (a bool or
    str is a TypeError), emit_plots as a bool and outputs as a str (a path
    is stored as os.fspath of it), so equal configs echo the same text.
    """

    __slots__ = tuple(_CONFIG_DEFAULTS)

    def __init__(self, **values):
        unknown = values.keys() - _CONFIG_DEFAULTS.keys()
        if unknown:
            raise TypeError(f"ScenarioConfig got unexpected keywords {sorted(unknown)}")
        config = dict(_CONFIG_DEFAULTS, **values)
        if config["custom_state"] is not None:  # a tuple, to hash and compare by value
            state = tuple(config["custom_state"])  # checked before complex() would parse a str
            if not all(map(cmath.isfinite, state)):
                raise UsageError("custom_state entries must be finite")
            if len(state) != 16:
                raise UsageError(f"custom_state expects 16 entries, got {len(state)}")
            config["custom_state"] = tuple(map(complex, state))
        for key in _FLOAT_KEYS:
            value = config[key]
            if isinstance(value, bool):
                raise TypeError(f"{key} expects a number, got {value!r}")
            # isfinite refuses a str with TypeError before float() could parse it
            if not math.isfinite(value):
                raise UsageError(f"{key} must be finite, got {value!r}")
            if value < 0 and key in _NONNEGATIVE_KEYS:
                raise UsageError(f"{key} must be nonnegative, got {value!r}")
            config[key] = float(value)
        if not isinstance(config["emit_plots"], bool):
            raise TypeError(f"emit_plots expects a bool, got {config['emit_plots']!r}")
        config["outputs"] = os.fspath(config["outputs"])
        if not isinstance(config["outputs"], str):
            raise TypeError(f"outputs expects a str or path, got {config['outputs']!r}")
        super().__init__(*config.values())
        # a sample below eps_dead and above eps_alive would be dead and alive at once
        if self.eps_dead > self.eps_alive:
            raise UsageError(f"need eps_dead <= eps_alive, "
                             f"got {self.eps_dead!r} > {self.eps_alive!r}")
        if not (self.t_max > 0 and self.dt > 0 and self.dt <= self.t_max):
            raise UsageError("need t_max > 0, dt > 0 and dt <= t_max")
        # compared as a float, so a huge ratio never builds an int or a grid
        if not self.t_max / self.dt + 1e-9 < MAX_SAMPLES:
            raise UsageError(
                f"t_max / dt asks for more than {MAX_SAMPLES} samples; "
                f"raise dt or lower t_max"
            )
        if self.initial_state not in STATE_NAMES:
            raise UsageError(
                f"unknown initial_state '{self.initial_state}'; "
                f"valid names: {', '.join(STATE_NAMES)}"
            )
        if self.initial_state == "custom" and self.custom_state is None:
            raise UsageError("initial_state = custom requires a custom_state entry")
        if self.initial_state != "custom" and self.custom_state is not None:
            raise UsageError("custom_state is only meaningful with initial_state = custom")
        # an empty path would write into the working directory
        if not self.outputs:
            raise UsageError("outputs must name a directory")

    @property
    def n_samples(self) -> int:
        """Samples on the grid {0, dt, ..., t_max}; at most MAX_SAMPLES."""
        return int(math.floor(self.t_max / self.dt + 1e-9)) + 1


class FeatureReport(ValueType):
    """Sudden-death intervals and revival bookkeeping for one trajectory.

    residual_discord_in_death is None when no death interval exists.
    """

    __slots__ = ("death_intervals", "revival_count", "min_negativity",
                 "max_negativity", "residual_discord_in_death", "final_purity")

    def __init__(self, death_intervals: tuple, revival_count: int, min_negativity: float,
                 max_negativity: float, residual_discord_in_death: float,
                 final_purity: float):
        super().__init__(death_intervals, revival_count, min_negativity, max_negativity,
                         residual_discord_in_death, final_purity)


def initial_state(name: str, custom=None) -> np.ndarray:
    """Density matrix of a catalog state.

    Catalog starts are even superpositions of their _CATALOG levels: cat
    is (|a> + |d>)/sqrt(2), werner (|b> + |c>)/sqrt(2). A custom matrix is
    its run's t = 0 sample, measured and checked as a one-row block before
    anything evolves, once its finite entries are known to be at most
    _MAX_ENTRY in magnitude; a failure raises InvariantViolation,
    "custom state ...".
    """
    if name not in STATE_NAMES:
        raise UsageError(
            f"unknown initial state '{name}'; valid names: {', '.join(STATE_NAMES)}"
        )
    if name == "custom":
        if custom is None:
            raise UsageError("custom initial state requires a matrix")
        try:
            rho = np.asarray(custom, dtype=complex).reshape(4, 4)
            # before any arithmetic, which could overflow on a huge entry
            big = np.max(np.abs(rho))
            if np.isfinite(rho).all() and big > _MAX_ENTRY:
                raise ValueError(f"entry of magnitude {big:g} exceeds {_MAX_ENTRY:.12g}, "
                                 f"the most a state passing the checks can hold")
            _refuse(_hermitian_checks(rho, "custom state"))
            _check_block([0.0], sample_correlations_stack(rho[None]))
        except ValueError as exc:
            message = str(exc)
            raise InvariantViolation(message if message.startswith("custom state")
                                     else f"custom state: {message}") from None
        return rho
    levels = _CATALOG[name]
    vec = np.zeros(4, dtype=complex)
    vec[list(levels)] = 1.0 / math.sqrt(len(levels))
    return np.outer(vec, vec.conj())


#: tolerances every sample is held to (Hermiticity is linalg's one check);
#: MEASURE_TOL is the slack on the measure ranges and the hierarchy
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
MEASURE_TOL = 1e-9
#: |rho_ij| <= lambda_max <= 1 + 3 PSD_TOL + TRACE_TOL for every state that
#: passes the checks, plus 1e-11 for the Hermiticity check's slack and
#: rounding; initial_state refuses a finite custom entry above it
_MAX_ENTRY = 1.0 + 3 * PSD_TOL + TRACE_TOL + 1e-11


def _check_block(t, c: dict) -> None:
    """Check every sample of a block against its invariants.

    t holds the block's times and c its sample_correlations_stack columns.
    Each check is the condition that must hold, so a NaN fails it. The
    error names the sample and check that linalg._refuse picks: the
    earliest failing sample, and its first failing check in the order below.
    """
    neg, d1, d2, pur = c["negativity"], c["discord_1"], c["discord_2"], c["purity"]

    def check(name, ok, values):
        return ok, lambda k: f"{name} violated at t = {t[k]:g} (value {values[k]:g})"

    _refuse((
        check("trace deviation", np.abs(c["trace_deviation"]) <= TRACE_TOL, c["trace_deviation"]),
        check("positivity", c["min_eigenvalue"] >= -PSD_TOL, c["min_eigenvalue"]),
        check("purity range", (0.25 - PSD_TOL <= pur) & (pur <= 1.0 + PSD_TOL), pur),
        check("negativity range", (0.0 <= neg) & (neg <= 1.0 + MEASURE_TOL), neg),
        check("discord_1 range", (0.0 <= d1) & (d1 <= 0.5 + MEASURE_TOL), d1),
        check("discord_2 range", (0.0 <= d2) & (d2 <= 0.5 + MEASURE_TOL), d2),
        check("hierarchy (N/2)^2 <= D1", (neg / 2.0) ** 2 <= d1 + MEASURE_TOL, neg),
    ), error=InvariantViolation)


def scenario_params(config: ScenarioConfig) -> DiracParams:
    """DiracParams of a config point; its ratios to p are DiracParams' units."""
    return DiracParams(m=config.m_over_p, kappa=config.kappa, mu=config.mu,
                       E_field=config.E_over_p, theta=config.theta)


def run_trajectory(config: ScenarioConfig) -> dict:
    """Sample the noisy evolution on {0, dt, ..., t_max}.

    Returns a dict mapping each name of correlations.COLUMNS, in CSV
    order, to a read-only float64 array with one entry per sample in time
    order. Sample k sits at t = k * dt, and the t column is the time axis
    itself. H is built once; the axis is evaluated in blocks of
    BLOCK_SAMPLES, whose six measured columns are copied in; the t = 0
    row is computed from the initial state itself. Every block is checked against the invariants
    before the next one runs; a violation aborts with a diagnostic naming
    the check and the time of the earliest failing sample. The pipeline
    has no randomness and its results do not depend on the block size, so
    identical configs give identical columns.
    """
    H = operator_stacks([scenario_params(config)])[0][0]
    rho0 = initial_state(config.initial_state, config.custom_state)
    times = np.arange(config.n_samples) * config.dt
    columns = {"t": times, **{name: np.empty(len(times)) for name in COLUMNS[1:]}}
    for start in range(0, len(times), BLOCK_SAMPLES):
        block = times[start:start + BLOCK_SAMPLES]
        rhos = evolve_noisy_stack(rho0, H, config.gamma_over_p, block)
        if start == 0:
            rhos[0] = rho0
        measured = sample_correlations_stack(rhos)
        _check_block(block, measured)
        for name, values in measured.items():
            columns[name][start:start + len(block)] = values
    for values in columns.values():
        values.flags.writeable = False
    return columns


def death_runs(negativities, eps_dead: float) -> list:
    """Maximal runs of consecutive samples with negativity below eps_dead.

    Returns (first index, last index) pairs, inclusive, in time order; a
    lone dead sample is a run of length one.
    """
    dead = np.asarray(negativities, dtype=float) < eps_dead
    # the boolean diff is True where the mask flips: at a run's first sample
    # and one past its last; False padding keeps it boolean, 1 B a sample
    edges = np.flatnonzero(np.diff(dead, prepend=False, append=False))
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


def detect_features(columns: dict,
                    eps_dead: float = DEFAULT_EPS_DEAD,
                    eps_alive: float = DEFAULT_EPS_ALIVE) -> FeatureReport:
    """Locate sudden-death intervals and count revivals.

    columns is run_trajectory's dict. A death interval is a maximal run
    of at least two consecutive samples with negativity below eps_dead; it
    counts as revived when any later sample exceeds eps_alive, and
    eps_dead > eps_alive is refused. residual_discord_in_death is the
    smallest discord_1 seen inside death intervals (None when there are
    none).
    """
    if eps_dead > eps_alive:
        raise ValueError(f"need eps_dead <= eps_alive, got {eps_dead!r} > {eps_alive!r}")
    neg, times, d1 = columns["negativity"], columns["t"], columns["discord_1"]
    if not neg.size:
        raise ValueError("empty trajectory")
    intervals = [(k0, k1) for k0, k1 in death_runs(neg, eps_dead) if k1 > k0]
    # argmax finds the first alive sample of the reversed mask; when none is
    # alive it gives 0, so k is the last sample and alive[k] is False
    alive = neg > eps_alive
    k = neg.size - 1 - int(np.argmax(alive[::-1]))
    last_alive = k if alive[k] else -1
    residual = None
    if intervals:
        residual = min(float(d1[k0:k1 + 1].min()) for k0, k1 in intervals)
    return FeatureReport(
        death_intervals=tuple((float(times[k0]), float(times[k1])) for k0, k1 in intervals),
        revival_count=sum(k1 < last_alive for _, k1 in intervals),
        min_negativity=float(neg.min()),
        max_negativity=float(neg.max()),
        residual_discord_in_death=residual,
        final_purity=float(columns["purity"][-1]),
    )


def config_echo(config: ScenarioConfig) -> dict:
    """Every config field in schema order; custom entries as [re, im] pairs."""
    echo = config._asdict()
    if config.custom_state is not None:
        echo["custom_state"] = [[z.real, z.imag] for z in config.custom_state]
    return echo


CSV_HEADER = ",".join(COLUMNS)


def emit_outputs(columns: dict, report: FeatureReport,
                 config: ScenarioConfig) -> list:
    """Write trajectory.csv, report.json and (optionally) the SVG charts.

    columns is run_trajectory's dict; the files go to config.outputs.
    Returns the list of written paths; perfbench's traced units sum their
    sizes as scenario.emit_outputs.bytes. Cells carry 12 significant
    digits; identical configs reproduce the files byte for byte. The CSV
    is written BLOCK_SAMPLES rows at a time, so only one block of rows is
    ever held as text.
    """
    out_dir = Path(config.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "trajectory.csv"
    row = ",".join(["%.12g"] * len(COLUMNS)) + "\n"
    n_rows = len(columns["t"])
    with csv_path.open("w") as fh:
        fh.write(CSV_HEADER + "\n")
        for start in range(0, n_rows, BLOCK_SAMPLES):
            rows = zip(*(columns[name][start:start + BLOCK_SAMPLES].tolist()
                         for name in COLUMNS))
            fh.write("".join([row % r for r in rows]))

    report_path = out_dir / "report.json"
    payload = dict(report._asdict(), config=config_echo(config))
    report_path.write_text(json.dumps(payload, indent=2) + "\n")
    written = [csv_path, report_path]

    if config.emit_plots:
        for name, title, labels in (("negativity.svg", "negativity", ("negativity",)),
                                    ("discord.svg", "geometric discord",
                                     ("discord_1", "discord_2"))):
            series = [(label, columns[label], color)
                      for label, color in zip(labels, ("#1f4e9c", "#b5541c"))]
            _write_svg_chart(out_dir / name, title, columns["t"], series)
            written.append(out_dir / name)
    return written


def _write_svg_chart(path: Path, title: str, ts, series) -> None:
    # minimal hand-rolled line chart: frame, ticks, one polyline per series;
    # ts and each series' values are float arrays
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 30, 40
    pw, ph = width - ml - mr, height - mt - mb
    t_max = ts[-1] if ts[-1] > 0 else 1.0
    y_max = max(1e-12, *(vals.max() for _, vals, _ in series))

    def px(t):
        return ml + pw * t / t_max

    def py(v):
        return mt + ph * (1.0 - v / y_max)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{ml}" y="18" font-family="sans-serif" font-size="13">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        t = t_max * i / 4
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" '
                     f'y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="middle">{t:.3g}</text>')
        v = y_max * i / 4
        y = py(v)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
                     f'stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" font-family="sans-serif" '
                     f'font-size="11" text-anchor="end">{v:.3g}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 8}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle">p t</text>')
    # px and py on whole arrays: the same float operations in the same order
    xs = px(ts).tolist()
    for idx, (label, vals, color) in enumerate(series):
        ys = py(vals).tolist()
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        parts.append(f'<text x="{width - mr - 6}" y="{mt + 16 + 16 * idx}" '
                     f'font-family="sans-serif" font-size="11" text-anchor="end" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise UsageError(f"config key '{key}' expects a boolean, got '{raw}'")


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise UsageError(f"config key '{key}' expects a number, got '{raw}'") from None


def parse_config_text(text: str) -> list:
    """Parse flat key=value config text into resolved ScenarioConfigs.

    Unknown keys, a key given twice, malformed values and unknown state
    names raise UsageError. A comma-separated m_over_p list expands into
    one config per grid point (a sweep).
    """
    raw, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno} is not key=value: '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_DEFAULTS:
            raise UsageError(f"unknown config key '{key}' on line {lineno}")
        if key in raw:
            raise UsageError(f"config key '{key}' is given twice, "
                             f"on lines {first_line[key]} and {lineno}")
        raw[key] = value.strip()
        first_line[key] = lineno

    kwargs = {}
    m_values = [_CONFIG_DEFAULTS["m_over_p"]]
    if "m_over_p" in raw:
        try:
            m_values = [float(tok) for tok in raw["m_over_p"].split(",")]
        except ValueError:
            raise UsageError(f"m_over_p expects one or more numbers, "
                             f"got '{raw['m_over_p']}'") from None
    parsers = {float: _parse_float, bool: _parse_bool, str: lambda value, key: value}
    for key, default in _CONFIG_DEFAULTS.items():
        if key in raw and key not in ("m_over_p", "custom_state"):
            kwargs[key] = parsers[type(default)](raw[key], key)
    if "custom_state" in raw:
        try:
            kwargs["custom_state"] = tuple(map(complex, raw["custom_state"].split(",")))
        except ValueError:
            raise UsageError("custom_state entries must parse as complex numbers") from None

    return [ScenarioConfig(m_over_p=m, **kwargs) for m in m_values]


def load_config(path) -> list:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {p} is not valid UTF-8: {exc}") from None
    return parse_config_text(text)


def _point_dir_name(m: float) -> str:
    """Sweep subdirectory of one mass: m_<%g form>, or m_<repr> when %g rounds.

    Distinct masses always get distinct names, since each name parses
    back to its own mass.
    """
    short = f"{m:g}"
    return f"m_{short if float(short) == m else repr(m)}"


def run_scenario(configs: list) -> list:
    """Run one config or a sweep; returns (config, report, out_dir) triples.

    A single point writes straight into its outputs directory. A sweep
    writes one m_<value> subdirectory per grid point plus index.json at
    the root; a sweep whose points differ in any key but m_over_p, or
    that lists one mass twice, is refused. A rerun of the same kind
    overwrites, but the two kinds never share a directory, and a sweep
    never shares one with another sweep's m_<value> points. The points
    share one custom_state: the first point's run_trajectory refuses a
    bad one before anything evolves or any file is written.
    """
    if not configs:
        raise UsageError("nothing to run")
    differ = [key for key in _CONFIG_DEFAULTS if key != "m_over_p"
              and any(getattr(cfg, key) != getattr(configs[0], key) for cfg in configs)]
    if differ:
        raise UsageError(f"a sweep's points may differ only in m_over_p, "
                         f"not in {', '.join(differ)}")
    masses = [cfg.m_over_p for cfg in configs]
    if len(set(masses)) != len(masses):
        raise UsageError(f"m_over_p lists a value twice: {masses}")
    sweep = len(configs) > 1
    root = Path(configs[0].outputs)
    other_kind = ("trajectory.csv", "report.json") if sweep else ("index.json",)
    found = [name for name in other_kind if (root / name).exists()]
    if found:
        raise UsageError(f"outputs directory {root} holds {' and '.join(found)} of a "
                         f"{'single-point run' if sweep else 'sweep'}; choose another")
    if sweep:
        points = {_point_dir_name(m) for m in masses}
        stale = sorted(path.name for path in root.glob("m_*")
                       if path.is_dir() and path.name not in points)
        if stale:
            raise UsageError(f"outputs directory {root} holds {', '.join(stale)} of "
                             f"another sweep; choose another")
    results = []
    for cfg in configs:
        if sweep:
            cfg = ScenarioConfig(**dict(cfg._asdict(),
                                        outputs=str(root / _point_dir_name(cfg.m_over_p))))
        columns = run_trajectory(cfg)
        report = detect_features(columns, cfg.eps_dead, cfg.eps_alive)
        emit_outputs(columns, report, cfg)
        results.append((cfg, report, Path(cfg.outputs)))
    if sweep:
        index = [{"m_over_p": cfg.m_over_p,
                  "trajectory": f"{out_dir.name}/trajectory.csv",
                  "report": f"{out_dir.name}/report.json"}
                 for cfg, _, out_dir in results]
        (root / "index.json").write_text(json.dumps({"points": index}, indent=2) + "\n")
    return results
