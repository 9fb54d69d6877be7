"""The three benchmark workloads: seeded inputs, one timed pass, and the
output check against ``reference``.

A workload's inputs come only from its seed.  The seed moves the endpoints of
each swept range inside fixed bounds; row counts, chain lengths and grids stay
fixed, so every seed sends the engine and the pool the same batch shape.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import random

import numpy as np

import reference as ref

PI = math.pi


# workload -> worker processes; map_n2 uses the CLI default on a 2-CPU machine
WORKERS = {"pure_n6": 1, "map_n2": 2, "prep_n8": 1}


def _num(x: float) -> str:
    return repr(float(x))


def make_inputs(workload: str, seed: int, toy: bool = False):
    """Seeded inputs: a list of (name, config text, parameters) for sweep
    workloads, a list of battery parameter dicts for ``prep_n8``.  ``toy``
    shrinks chains, grids and row counts for the harness self-tests."""
    rng = random.Random(f"{workload}:{seed}")
    u = rng.uniform
    if workload == "pure_n6":
        n, grid = (2, 32) if toy else (6, 800)
        a0 = u(PI / 12, 11 * PI / 12)
        g0, g1 = u(0.05, 1.2), u(0.05, 1.2)
        return [
            _sweep("pt_alpha", "fig_pmax_vs_alpha", {"alpha": (a0, PI / 2, 2)},
                   {"n_sites": n, "j": 1, "h": 1}, grid, boundary="open"),
            _sweep("rt_gammaprime", "fig_rt_vs_gammaprime", {"gamma_prime": (g0, g1, 2)},
                   {"h_prime": 0.5, "n_sites": n}, grid),
        ]
    if workload == "map_n2":
        grid, (ph, pj, rg, rh) = (32, (3, 2, 2, 3)) if toy else (2000, (20, 20, 10, 20))
        return [
            _sweep("pt_map", "fig_pt_map",
                   {"h": (u(0.1, 0.3), u(1.8, 2.0), ph), "j_rel": (u(0.0, 0.1), u(0.9, 1.0), pj)},
                   {"alpha": PI / 3, "n_sites": 2}, grid),
            _sweep("rt_map", "fig_rt_map",
                   {"gamma_prime": (u(0.1, 0.2), u(0.9, 1.0), rg), "h_prime": (u(0.1, 0.3), u(1.8, 2.0), rh)},
                   {"n_sites": 2}, grid),
        ]
    if workload == "prep_n8":
        n, count = (4, 2) if toy else (8, 5)
        return [
            {"J": u(-1.9, 1.9), "gamma": u(0.0, 1.0), "delta": u(-2.0, 0.0), "h": 1.0,
             "n": n, "boundary": ("open", "periodic")[i % 2]}
            for i in range(count)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _sweep(name, experiment, ranges, fixed, n_grid, boundary=None, t_max=10.0):
    lines = [f"experiment = {experiment}"]
    lines += [f"{k} = {_num(a)} : {_num(b)} : {c}" for k, (a, b, c) in ranges.items()]
    lines += [f"{k} = {_num(v)}" for k, v in fixed.items()]
    if boundary:
        lines.append(f"boundary = {boundary}")
    lines += [f"t_max = {_num(t_max)}", f"n_grid = {n_grid}"]
    params = {"ranges": ranges, "fixed": fixed, "boundary": boundary, "t_max": t_max, "n_grid": n_grid}
    return name, "\n".join(lines) + "\n", params


def op_count(workload: str, inputs) -> int:
    if workload == "prep_n8":
        return len(inputs)
    return sum(math.prod(c for _, _, c in p["ranges"].values()) for _, _, p in inputs)


# ---------------------------------------------------------------------------
# one pass through the public API


def run_pass(workload: str, parsed, workers: int, outdir: str):
    """Run every op of the workload once; returns what the check needs.
    Entry points are looked up on ``qbattery`` and ``experiment_cli`` at call
    time, so that trace wrappers installed there take effect."""
    import qbattery
    from qbattery import experiment_cli
    from qbattery.errors import DegenerateGroundStateError

    if workload == "prep_n8":
        out = []
        for spec in parsed:
            try:
                h_norm = qbattery.normalize_spectrum(qbattery.build_battery_xyz(spec))
                try:
                    psi = qbattery.ground_state(h_norm).data
                except DegenerateGroundStateError:
                    psi = None
                out.append((h_norm.matrix, psi))
            except Exception as exc:  # counted as a failed op
                out.append(exc)
        return out
    paths = {}
    for name, config in parsed:
        config.workers = workers
        config.output_path = os.path.join(outdir, f"{name}.csv")
        try:
            experiment_cli.emit_outputs(experiment_cli.run_experiment(config), config.output_path)
            paths[name] = config.output_path
        except Exception as exc:  # counted as failed ops
            paths[name] = exc
    return paths


def as_json(workload: str, inputs) -> dict:
    """The inputs in the form ``setup_probe.parse_inputs`` takes."""
    if workload == "prep_n8":
        return {"batteries": inputs}
    return {"configs": [[name, text] for name, text, _ in inputs]}


def read_body(path: str) -> list[list[str]]:
    """CSV header and rows with the '#' metadata lines dropped."""
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


# ---------------------------------------------------------------------------
# reference and check


def _expected_rows(name: str, params: dict) -> list[tuple]:
    """(swept values..., expected metrics...) per row, in the engine's order;
    a metric tuple of None marks an expected DEGEN row."""
    ranges = params["ranges"]
    grids = [np.linspace(a, b, c) if c > 1 else np.array([a]) for a, b, c in ranges.values()]
    values = [tuple(map(float, v)) for v in itertools.product(*grids)]
    fx, t_max, n_grid = params["fixed"], params["t_max"], params["n_grid"]
    rows = []
    for v in values:
        p = dict(zip(ranges, v))
        if name == "pt_alpha":
            m = ref.pt_row(fx["j"], fx["h"], p["alpha"], fx["n_sites"], params["boundary"], t_max, n_grid)
        elif name == "rt_gammaprime":
            m = ref.rt_row(p["gamma_prime"], fx["h_prime"], fx["n_sites"], t_max, n_grid)
        elif name == "pt_map":
            j, p_nh, p_h = ref.pt_map_row(p["h"], p["j_rel"], fx["alpha"], t_max, n_grid)
            m = (j, p_nh, p_h, p_nh - p_h)
        elif name == "rt_map":
            p_nh, p_h = ref.rt_row(p["gamma_prime"], p["h_prime"], 2, t_max, n_grid)
            m = (p_nh, p_h, p_nh - p_h)
        else:
            raise ValueError(name)
        rows.append((v, m))
    return rows


def make_reference(workload: str, inputs):
    if workload == "prep_n8":
        return inputs
    return {name: _expected_rows(name, params) for name, _, params in inputs}


def check_pass(workload: str, reference, outputs) -> tuple[int, list[str]]:
    """Number of failed ops in one pass, with a reason for each."""
    problems = []
    if workload == "prep_n8":
        for spec, out in zip(reference, outputs):
            if isinstance(out, Exception):
                problems.append(f"battery {spec}: {type(out).__name__}: {out}")
                continue
            h_norm, psi = out
            ok, why = ref.battery_check(spec, h_norm, psi)
            if not ok:
                problems.append(f"battery {spec}: {why}")
        return len(problems), problems
    for name, expected in reference.items():
        out = outputs[name]
        if isinstance(out, Exception):
            problems += [f"{name}: {type(out).__name__}: {out}"] * len(expected)
            continue
        body = read_body(out)[1:]
        if len(body) != len(expected):
            problems += [f"{name}: {len(body)} rows, expected {len(expected)}"] * len(expected)
            continue
        for row, (values, metrics) in zip(body, expected):
            why = _row_problem(row, values, metrics)
            if why:
                problems.append(f"{name} {values}: {why}")
    return len(problems), problems


def _floats(fields: list[str]) -> list[float] | None:
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


def _row_problem(row: list[str], values: tuple, metrics: tuple | None) -> str:
    got_values, got_metrics = _floats(row[: len(values)]), row[len(values):]
    if got_values is None or any(abs(g - v) > 1e-12 * max(1.0, abs(v)) for g, v in zip(got_values, values)):
        return f"swept values {row[: len(values)]}"
    if "DEGEN" in got_metrics:
        return "" if metrics is None else "unexpected DEGEN"
    if metrics is None:
        return "missing DEGEN"
    got = _floats(got_metrics)
    if got is None or len(got) != len(metrics) or not all(math.isfinite(g) for g in got):
        return f"metrics {got_metrics}"
    err = max(abs(g - m) for g, m in zip(got, metrics))
    return "" if err <= ref.TOL_P_MAX else f"|delta p_max| = {err:.3e}"
