"""Config-driven parameter sweeps over the battery figures of merit, and the
``qbattery`` command-line interface.

A sweep config is a plain-text ``key = value`` file ("#" starts a comment).
Values of the form ``start : stop : count`` declare swept ranges; everything
else is a fixed parameter.  Rows are emitted in lexicographic order over the
declared ranges regardless of how many workers computed them, so identical
configs give byte-identical CSV bodies.

Experiments are data (``ExperimentDef``): a charger family, an initial state,
parameters and metric names.  Every sweep row runs through one function,
``_compute_row``, which builds the family's battery and charger pair with
``_setup`` and compares the pair with ``delta_p_max``.
"""

from __future__ import annotations

import argparse
import ast
import csv
import math
import operator
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import __version__
from . import closed_form_oracles as oracles
from .battery_dynamics import _prepare, delta_p_max, evolve_normalized, work_and_ergotropy
from .errors import DegenerateGroundStateError, OracleDomainError, QBatteryError
from .model_builders import (
    PT,
    PT_HERMITIAN,
    RT,
    RT_HERMITIAN,
    BatterySpec,
    ChargerSpec,
)
from .tensor_core import _orbits, max_sites

DEGEN_MARKER = "DEGEN"
_J_MARGIN = 0.1  # ground-state degeneracy margin for the (h, J) map


@dataclass
class SweepConfig:
    """Parsed sweep configuration."""

    experiment: str
    ranges: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    fixed: dict[str, object] = field(default_factory=dict)
    t_max: float = 10.0
    n_grid: int = 2000
    output_path: str = "sweep.csv"
    workers: int = 0  # 0 means "use available parallelism"

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ValueError(f"unknown experiment {self.experiment!r}; known: {known}")
        if not self.ranges:
            raise ValueError("at least one swept range is required")
        both = sorted(set(self.ranges) & set(self.fixed))
        if both:
            raise ValueError(f"parameters both swept and fixed: {both}")
        for name, (start, stop, count) in self.ranges.items():
            if count < 1:
                raise ValueError(f"range {name!r} needs count >= 1, got {count}")
            if not (math.isfinite(start) and math.isfinite(stop)):
                raise ValueError(f"range {name!r} has non-finite endpoints")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.n_grid < 16:
            raise ValueError(f"n_grid must be >= 16, got {self.n_grid}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0 (0 means automatic), got {self.workers}")
        spec = EXPERIMENTS[self.experiment]
        given = set(self.ranges) | set(self.fixed)
        missing = [p for p in spec.required if p not in given and p not in spec.defaults]
        if missing:
            raise ValueError(f"{self.experiment} is missing parameters: {missing}")
        allowed = set(spec.required) | set(spec.defaults)
        unknown = [p for p in given if p not in allowed]
        if unknown:
            raise ValueError(f"{self.experiment} does not take parameters: {unknown}")
        bad_ranges = [p for p in self.ranges if p not in spec.sweepable]
        if bad_ranges:
            raise ValueError(f"{self.experiment} cannot sweep: {bad_ranges}")
        for key, value in self.fixed.items():
            if isinstance(value, (int, float)) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        values = {name: _grid_values(*r) for name, r in self.ranges.items()} | {k: [v] for k, v in self.fixed.items()}
        for n in values.get("n_sites", []):
            if not float(n).is_integer():
                raise ValueError(f"n_sites must be an integer, got {n}")
            if not 2 <= n <= max_sites():
                raise ValueError(f"n_sites must be in [2, {max_sites()}], got {n}")
        for beta in values.get("beta", []):
            if beta < 0:
                raise ValueError(f"beta must be >= 0, got {beta}")
        for t in values.get("t", []):
            if t <= 0:
                raise ValueError(f"t must be > 0, got {t}")
        for boundary in values.get("boundary", []):
            if boundary not in ("open", "periodic"):
                raise ValueError(f"boundary must be open or periodic, got {boundary!r}")


@dataclass
class SweepResult:
    """Tabular sweep output: header names, rows, and a metadata block."""

    param_names: list[str]
    metric_names: list[str]
    rows: list[tuple]
    metadata: dict[str, str]


# ---------------------------------------------------------------------------
# experiment registry


@dataclass(frozen=True)
class ExperimentDef:
    """One figure as data: the ``family`` charger (PT or RT) against its
    Hermitian twin, both started from the battery's ``init`` state."""

    required: tuple[str, ...]
    sweepable: tuple[str, ...]
    defaults: dict
    metrics: tuple[str, ...]
    family: str | None  # None: fig_ergotropy traces one charger of each family
    description: str
    init: str = "ground"


def _setup(family: str, params: dict) -> tuple[BatterySpec | int, ChargerSpec, ChargerSpec]:
    """What ``delta_p_max`` takes for one charger family: the battery (an XYZ
    ``BatterySpec`` for PT, the sum-of-sigma-x chain length for RT), then the
    non-Hermitian and the Hermitian charger."""
    n = int(params["n_sites"])
    if family == PT:
        battery = BatterySpec(
            J=float(params["j"]),
            gamma=float(params.get("gamma", 0.0)),
            delta=float(params.get("delta", 0.0)),
            h=float(params["h"]),
            n_sites=n,
            boundary=str(params.get("boundary", "periodic")),
        )
        kinds, charger = (PT, PT_HERMITIAN), {"alpha": float(params["alpha"])}
    else:
        battery = n
        kinds = (RT, RT_HERMITIAN)
        charger = {"gamma_prime": float(params["gamma_prime"]), "J": 1.0, "h_prime": float(params["h_prime"])}
    return (battery, *(ChargerSpec(kind=kind, n_sites=n, **charger) for kind in kinds))


def _ergotropy_trace(config: SweepConfig) -> SweepResult:
    """Time traces of work and ergotropy for one PT and one RT configuration."""
    params = _merged_fixed(config)
    times = _grid_values(*config.ranges["t"])
    columns = []
    for family in (PT, RT):
        battery, charger, _ = _setup(family, params)
        h_b, psi0, (h_charge,) = _prepare(battery, [charger])
        columns += work_and_ergotropy(h_b, h_charge, psi0, times)
    return SweepResult(
        param_names=["t"],
        metric_names=list(EXPERIMENTS["fig_ergotropy"].metrics),
        rows=[(t, *(float(v) for v in values)) for t, *values in zip(times, *columns)],
        metadata={},
    )


_PT_BATTERY_DEFAULTS = {
    "j": 1.0,
    "h": 1.0,
    "gamma": 0.0,
    "delta": 0.0,
    "n_sites": 6,
    "boundary": "open",
    "alpha": math.pi / 3.0,
}

EXPERIMENTS: dict[str, ExperimentDef] = {
    "fig_ergotropy": ExperimentDef(
        required=("t",),
        sweepable=("t",),
        defaults={
            **_PT_BATTERY_DEFAULTS,
            "alpha": 2.0 * math.pi / 3.0,
            "gamma_prime": 0.1,
            "h_prime": 1.5,
        },
        metrics=("work_pt", "ergotropy_pt", "work_rt", "ergotropy_rt"),
        family=None,
        description="work and ergotropy vs time for a PT and an RT configuration",
    ),
    "fig_pt_map": ExperimentDef(
        required=("h", "j_rel"),
        sweepable=("h", "j_rel", "alpha"),
        defaults={"alpha": math.pi / 3.0, "n_sites": 2, "gamma": 0.0, "delta": 0.0, "boundary": "periodic"},
        metrics=("j", "p_max_pt", "p_max_herm", "delta_p_max"),
        family=PT,
        description="P_max difference map over the battery (h, J) plane, PT vs Hermitian charger",
    ),
    "fig_pmax_vs_alpha": ExperimentDef(
        required=("alpha",),
        sweepable=("alpha", "n_sites"),
        defaults=_PT_BATTERY_DEFAULTS,
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        description="P_max vs the non-Hermiticity angle of the local charger",
    ),
    "fig_pmax_vs_J": ExperimentDef(
        required=("j",),
        sweepable=("j", "alpha"),
        defaults=_PT_BATTERY_DEFAULTS,
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        description="P_max vs the battery xy coupling",
    ),
    "fig_scaling_N": ExperimentDef(
        required=("n_sites",),
        sweepable=("n_sites",),
        defaults={**_PT_BATTERY_DEFAULTS, "alpha": math.pi / 2.0},
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        description="P_max vs chain length with a power-law fit in the metadata",
    ),
    "fig_pmax_vs_gamma": ExperimentDef(
        required=("gamma",),
        sweepable=("gamma", "alpha"),
        defaults=_PT_BATTERY_DEFAULTS,
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        description="P_max vs battery anisotropy",
    ),
    "fig_pmax_vs_delta": ExperimentDef(
        required=("delta",),
        sweepable=("delta", "alpha"),
        defaults=_PT_BATTERY_DEFAULTS,
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        description="P_max vs battery zz coupling",
    ),
    "fig_thermal_pt": ExperimentDef(
        required=("beta",),
        sweepable=("beta", "alpha"),
        defaults={**_PT_BATTERY_DEFAULTS, "n_sites": 2, "boundary": "periodic"},
        metrics=("p_max_pt", "p_max_herm"),
        family=PT,
        init="thermal",
        description="P_max vs inverse temperature of the thermal initial state (PT side)",
    ),
    "fig_rt_map": ExperimentDef(
        required=("gamma_prime", "h_prime"),
        sweepable=("gamma_prime", "h_prime"),
        defaults={"n_sites": 2},
        metrics=("p_max_rt", "p_max_herm", "delta_p_max"),
        family=RT,
        description="P_max difference map over the charger (gamma', h') plane, RT vs Hermitian",
    ),
    "fig_rt_vs_gammaprime": ExperimentDef(
        required=("gamma_prime",),
        sweepable=("gamma_prime", "h_prime"),
        defaults={"n_sites": 6, "h_prime": 0.5},
        metrics=("p_max_rt", "p_max_herm"),
        family=RT,
        description="P_max vs the imaginary anisotropy of the RT charger",
    ),
    "fig_rt_scaling_N": ExperimentDef(
        required=("n_sites",),
        sweepable=("n_sites", "h_prime"),
        defaults={"gamma_prime": 0.8, "h_prime": 0.5},
        metrics=("p_max_rt", "p_max_herm"),
        family=RT,
        description="P_max vs chain length for the RT charger",
    ),
    "fig_thermal_rt": ExperimentDef(
        required=("beta",),
        sweepable=("beta", "gamma_prime"),
        defaults={"gamma_prime": 0.8, "h_prime": 0.5, "n_sites": 4},
        metrics=("p_max_rt", "p_max_herm"),
        family=RT,
        init="thermal",
        description="P_max vs inverse temperature of the thermal initial state (RT side)",
    ),
}


# ---------------------------------------------------------------------------
# sweep engine


def _grid_values(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [float(start)]
    return [float(v) for v in np.linspace(start, stop, count)]


def _merged_fixed(config: SweepConfig) -> dict:
    defaults = EXPERIMENTS[config.experiment].defaults
    return {**defaults, **config.fixed, "t_max": config.t_max, "n_grid": config.n_grid}


def _compute_row(payload) -> tuple:
    """One sweep row of any experiment: its charger pair through
    ``delta_p_max``, then the experiment's metrics picked by name."""
    experiment, params = payload
    spec = EXPERIMENTS[experiment]
    row = dict(params)
    try:
        if "j_rel" in row:  # fig_pt_map: j_rel spans the non-degenerate J interval at h
            h = float(row["h"])
            j_lo = -2.0 * h + _J_MARGIN
            j_hi = 2.0 * h - _J_MARGIN
            if j_hi <= j_lo:
                raise DegenerateGroundStateError(f"no non-degenerate J interval at h={h}")
            row["j"] = j_lo + float(row["j_rel"]) * (j_hi - j_lo)
        rec = delta_p_max(
            *_setup(spec.family, row),
            init=spec.init,
            beta=row.get("beta"),
            t_max=row["t_max"],
            n_grid=row["n_grid"],
        )
    except DegenerateGroundStateError:
        return tuple(None for _ in spec.metrics)
    except QBatteryError as exc:
        point = {k: v for k, v in params.items() if k not in ("t_max", "n_grid")}
        raise RuntimeError(f"sweep aborted at {point}: {exc}") from exc
    values = {
        "j": row.get("j"),
        f"p_max_{spec.family}": rec.p_max_nonhermitian,
        "p_max_herm": rec.p_max_hermitian,
        "delta_p_max": rec.delta,
    }
    return tuple(values[name] for name in spec.metrics)


def run_experiment(config: SweepConfig) -> SweepResult:
    """Run one sweep: cartesian product of the declared ranges, dispatched to
    workers, rows in lexicographic declaration order."""
    config.validate()
    t0 = time.monotonic()
    if config.experiment == "fig_ergotropy":
        result = _ergotropy_trace(config)
    else:
        names = list(config.ranges)
        base = _merged_fixed(config)
        values_list = list(product(*(_grid_values(*config.ranges[name]) for name in names)))
        payloads = [(config.experiment, {**base, **dict(zip(names, values))}) for values in values_list]
        workers = config.workers if config.workers > 0 else (os.cpu_count() or 1)
        workers = min(workers, len(payloads))
        if workers <= 1:
            metric_rows = [_compute_row(p) for p in payloads]
        else:
            chunksize = max(1, len(payloads) // (4 * workers))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                metric_rows = list(pool.map(_compute_row, payloads, chunksize=chunksize))
        rows = [tuple(values) + m for values, m in zip(values_list, metric_rows)]
        result = SweepResult(
            param_names=names,
            metric_names=list(EXPERIMENTS[config.experiment].metrics),
            rows=rows,
            metadata={},
        )
    for row in result.rows:
        for v in row:
            if v is not None and not math.isfinite(v):
                raise RuntimeError(f"non-finite value in sweep row {row}")
    meta = {"experiment": config.experiment, "version": __version__}
    for name, (start, stop, count) in config.ranges.items():
        meta[f"range_{name}"] = f"{start:.17g}:{stop:.17g}:{count}"
    for key in sorted(config.fixed):
        meta[f"fixed_{key}"] = str(config.fixed[key])
    meta["t_max"] = f"{config.t_max:.17g}"
    meta["n_grid"] = str(config.n_grid)
    if config.experiment == "fig_scaling_N":
        col = len(result.param_names) + result.metric_names.index("p_max_pt")
        ok = [(int(round(r[0])), r[col]) for r in result.rows if r[col] is not None and r[col] > 0]
        if len(ok) >= 3 and len({n for n, _ in ok}) >= 2:
            fit = fit_power_law([n for n, _ in ok], [m for _, m in ok])
            meta["fit_coefficient"] = f"{fit['coefficient']:.17g}"
            meta["fit_exponent"] = f"{fit['exponent']:.17g}"
            meta["fit_residual"] = f"{fit['residual']:.17g}"
    meta["wall_time_s"] = f"{time.monotonic() - t0:.3f}"
    result.metadata = {**meta, **result.metadata}
    return result


def fit_power_law(n_values, p_max_values) -> dict:
    """Least-squares fit of log(P) = log c + p log N; returns c, p and the
    RMS residual in log space."""
    n_arr = np.asarray(n_values, dtype=float)
    p_arr = np.asarray(p_max_values, dtype=float)
    if n_arr.size < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if np.any(n_arr <= 0) or np.any(p_arr <= 0):
        raise ValueError("power-law fit needs positive inputs")
    x = np.log(n_arr)
    y = np.log(p_arr)
    xm = x.mean()
    ym = y.mean()
    denom = float(np.sum((x - xm) ** 2))
    if denom == 0.0:
        raise ValueError("power-law fit needs at least two distinct N values")
    slope = float(np.sum((x - xm) * (y - ym)) / denom)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    return {
        "coefficient": math.exp(intercept),
        "exponent": slope,
        "residual": float(np.sqrt(np.mean(resid**2))),
    }


# ---------------------------------------------------------------------------
# CSV + plot output


def _format_value(v) -> str:
    if v is None:
        return DEGEN_MARKER
    return f"{float(v):.17g}"


def emit_outputs(result: SweepResult, path: str, plot: bool = False) -> None:
    """Write the sweep as CSV ('#' metadata lines, then header, then rows);
    optionally write a sibling matplotlib script referencing the CSV."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.writelines(f"# {key}: {value}\n" for key, value in result.metadata.items())
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(result.param_names + result.metric_names)
            writer.writerows([_format_value(v) for v in row] for row in result.rows)
    except OSError as exc:
        raise RuntimeError(f"failed to write results to {path}: {exc}") from exc
    if plot:
        script_path = os.path.splitext(path)[0] + "_plot.py"
        try:
            with open(script_path, "w") as fh:
                fh.write(_plot_script(result, os.path.basename(path)))
        except OSError as exc:
            raise RuntimeError(f"failed to write plot script to {script_path}: {exc}") from exc


def _plot_script(result: SweepResult, csv_name: str) -> str:
    n_params = len(result.param_names)
    range_names = [k[6:] for k in result.metadata if k.startswith("range_")]
    counts = [
        int(result.metadata[f"range_{name}"].rsplit(":", 1)[1]) for name in range_names
    ]
    png_name = os.path.splitext(csv_name)[0] + ".png"
    lines = [
        "import csv",
        "",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "import numpy as np",
        "",
        f"CSV = {csv_name!r}",
        "rows = []",
        "with open(CSV) as fh:",
        '    reader = csv.reader(line for line in fh if not line.startswith("#"))',
        "    header = next(reader)",
        "    for row in reader:",
        f'        rows.append([np.nan if v == {DEGEN_MARKER!r} else float(v) for v in row])',
        "data = np.array(rows)",
    ]
    if len(counts) == 2 and len(result.rows) == counts[0] * counts[1]:
        lines += [
            f"nx, ny = {counts[0]}, {counts[1]}",
            "x = data[:, 0].reshape(nx, ny)",
            "y = data[:, 1].reshape(nx, ny)",
            "z = data[:, -1].reshape(nx, ny)",
            "plt.pcolormesh(x, y, z, shading='nearest', cmap='RdBu_r')",
            "plt.colorbar(label=header[-1])",
            "plt.xlabel(header[0]); plt.ylabel(header[1])",
        ]
    else:
        lines += [
            "x = data[:, 0]",
            f"for k in range({n_params}, data.shape[1]):",
            '    plt.plot(x, data[:, k], marker=".", label=header[k])',
            "plt.xlabel(header[0]); plt.legend()",
        ]
    lines += [
        "plt.tight_layout()",
        f"plt.savefig({png_name!r}, dpi=160)",
        f"print('wrote', {png_name!r})",
        "",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config file parsing


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _parse_number(text: str) -> float:
    """Evaluate a numeric config value; bare arithmetic on literals and 'pi'."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            return _BINARY_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            return _UNARY_OPS[type(node.op)](ev(node.operand))
        raise ValueError(f"unsupported expression {text!r}")

    try:
        return float(ev(ast.parse(text, mode="eval")))
    except (SyntaxError, ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ValueError(f"cannot parse number {text!r}") from exc


_INT_KEYS = {"n_grid", "workers"}


def parse_config_text(text: str) -> SweepConfig:
    experiment = ""
    ranges: dict[str, tuple[float, float, int]] = {}
    fixed: dict[str, object] = {}
    options: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise ValueError(f"line {lineno}: empty value for {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ValueError(f"line {lineno}: {key!r} already set on line {first_line[key]}")
        if key == "experiment":
            experiment = value
        elif key == "output":
            options["output_path"] = value
        elif key in _INT_KEYS:
            options[key] = int(value)
        elif key == "t_max":
            options["t_max"] = _parse_number(value)
        elif key == "boundary":
            fixed["boundary"] = value
        elif ":" in value:
            parts = [p.strip() for p in value.split(":")]
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: range must be start : stop : count")
            ranges[key] = (_parse_number(parts[0]), _parse_number(parts[1]), int(parts[2]))
        else:
            fixed[key] = _parse_number(value)
    if not experiment:
        raise ValueError("config must set 'experiment'")
    config = SweepConfig(experiment=experiment, ranges=ranges, fixed=fixed, **options)
    return config


def load_config(path: str) -> SweepConfig:
    with open(path) as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# oracle equivalence suite


def _oracle_cases():
    """(family, setup parameters, check names, closed-form power, Hermitian
    power and state) at each N = 2 oracle point: three PT angles on the
    J = h = 1 XX battery, then four RT (gamma', h') points."""
    for a in (math.pi / 6.0, math.pi / 3.0, 5.0 * math.pi / 12.0):
        branches = (oracles.BRANCH_PT_POWER, oracles.BRANCH_PT_HERM_POWER, oracles.BRANCH_PT_STATE)
        yield (
            PT,
            {"alpha": a, "j": 1.0, "h": 1.0},
            [f"{branch} alpha={a:.4f}" for branch in branches],
            lambda t, a=a: oracles.pt_power_n2(t, 1.0, 1.0, a),
            lambda t, a=a: oracles.pt_herm_power_n2(t, 1.0, 1.0, a),
            lambda t, a=a: oracles.pt_state_n2(a, t),
        )
    for g, h in ((0.3, 0.5), (0.8, 0.5), (0.8, 0.2), (1.2, 0.5)):
        branches = (oracles.rt_power_branch(g, h), oracles.BRANCH_RT_HERM_POWER, oracles.BRANCH_RT_STATE)
        yield (
            RT,
            {"gamma_prime": g, "h_prime": h},
            [f"{branch} g'={g} h={h}" for branch in branches],
            lambda t, g=g, h=h: oracles.rt_power_n2(t, g, h),
            lambda t, g=g, h=h: oracles.rt_herm_power_n2(t, g, h),
            lambda t, g=g, h=h: oracles.rt_state_n2(g, h, t),
        )


def _oracle_checks() -> list[tuple[str, float, float, bool]]:
    """(name, max_error, tolerance, passed) for every closed-form expression.

    Each case is prepared as a sweep row is (``_prepare``), so the RT cases
    run in the translation k = 0 block.  The powers come from one
    ``work_and_ergotropy`` call per charger on the evenly spaced grid, the
    route every sweep grid takes; the states from one ``evolve_normalized``
    per time, a block state lifted to the full space through the orbit map:
    its coordinate on orbit a over sqrt(R_a) on each basis state of orbit a."""
    checks = []
    times = np.linspace(0.01, 10.0, 400)
    _, orbit, lengths = _orbits(2)
    for family, point, names, power, herm_power, state_of in _oracle_cases():
        battery, *specs = _setup(family, {"n_sites": 2, **point})
        h_b, psi0, (charger, herm) = _prepare(battery, specs)
        errs = []
        for h_charge, closed_form in ((charger, power), (herm, herm_power)):
            work_vals, _ = work_and_ergotropy(h_b, h_charge, psi0, times)
            errs.append(max(abs(w / t - closed_form(t)) for t, w in zip(times.tolist(), work_vals)))
        err_s = 0.0
        for t in times.tolist():
            try:
                want = state_of(t)
            except OracleDomainError:
                continue
            got = evolve_normalized(charger, psi0, t).data
            if charger.k0:
                got = got[orbit] / np.sqrt(lengths[orbit])
            err_s = max(err_s, abs(1.0 - abs(np.vdot(want, got))))
        checks += [(name, err, 1e-8, err <= 1e-8) for name, err in zip(names, (*errs, err_s))]
    return checks


def run_oracle_check(stream=None) -> bool:
    stream = stream or sys.stdout
    all_ok = True
    for name, err, tol, ok in _oracle_checks():
        all_ok = all_ok and bool(ok)
        status = "PASS" if ok else "FAIL"
        stream.write(f"{status} {name}: max_err={err:.3e} (tol {tol:g})\n")
    return all_ok


# ---------------------------------------------------------------------------
# CLI


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Quantum battery sweeps with non-Hermitian charging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep from a config file")
    run_p.add_argument("config", help="path to a key = value config file")
    run_p.add_argument("--workers", type=int, default=None, help="worker processes (default: available parallelism)")
    run_p.add_argument("--t-max", type=float, default=None, help="override the time window")
    run_p.add_argument("--n-grid", type=int, default=None, help="override the time-grid size")
    run_p.add_argument("--out", default=None, help="override the output CSV path")
    run_p.add_argument("--plot", action="store_true", help="also write a plotting script")

    sub.add_parser("oracle-check", help="run the closed-form vs numeric equivalence suite")
    sub.add_parser("list-experiments", help="list available experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name, spec in EXPERIMENTS.items():
            print(f"{name}: {spec.description}")
            print(f"    required: {', '.join(spec.required)}")
            if spec.defaults:
                defaults = ", ".join(f"{k}={v}" for k, v in sorted(spec.defaults.items(), key=lambda kv: kv[0]))
                print(f"    defaults: {defaults}")
            print(f"    metrics:  {', '.join(spec.metrics)}")
        return 0
    if args.command == "oracle-check":
        return 0 if run_oracle_check() else 1
    try:
        config = load_config(args.config)
        overrides = {"workers": args.workers, "t_max": args.t_max, "n_grid": args.n_grid, "output_path": args.out}
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        config.validate()
    except (ValueError, OSError) as exc:
        print(f"qbattery: error: {exc}", file=sys.stderr)
        return 2
    result = run_experiment(config)
    emit_outputs(result, config.output_path, plot=args.plot)
    print(f"wrote {len(result.rows)} rows to {config.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
