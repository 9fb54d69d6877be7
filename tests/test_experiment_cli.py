import csv
import io
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import battery_dynamics, experiment_cli, tensor_core
from qbattery.battery_dynamics import delta_p_max, ergotropy, evolve_normalized, work
from qbattery.experiment_cli import (
    DEGEN_MARKER,
    EXPERIMENTS,
    SweepConfig,
    SweepResult,
    _grid_values,
    _parse_number,
    emit_outputs,
    fit_power_law,
    load_config,
    main,
    parse_config_text,
    run_experiment,
    run_oracle_check,
)
from qbattery.model_builders import (
    PT,
    PT_HERMITIAN,
    RT,
    RT_HERMITIAN,
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_charger,
    build_noninteracting_battery,
    build_pt_charger,
    normalize_spectrum,
)
from qbattery.state_prep import ground_state

DATA_DIR = Path(__file__).parent / "data"


def read_csv(path: str):
    """Parse a sweep CSV back into (metadata, names, rows of strings)."""
    metadata: dict[str, str] = {}
    body: list[str] = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition(":")
                if sep:
                    metadata[key.strip()] = value.strip()
            else:
                body.append(line)
    records = [fields for fields in csv.reader(body) if fields]
    names = records[0] if records else []
    return metadata, names, records[1:]


def small_map_config(**overrides):
    cfg = SweepConfig(
        experiment="fig_pt_map",
        ranges={"h": (0.5, 1.5, 2), "j_rel": (0.2, 0.8, 2)},
        t_max=10.0,
        n_grid=64,
        workers=1,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# --- config parsing -------------------------------------------------------------


def test_parse_number_expressions():
    assert _parse_number("pi/3") == pytest.approx(math.pi / 3)
    assert _parse_number("2*pi/3") == pytest.approx(2 * math.pi / 3)
    assert _parse_number("-1.5e-3") == -1.5e-3
    assert _parse_number("(1+2)/4") == 0.75
    with pytest.raises(ValueError):
        _parse_number("__import__('os')")


@pytest.mark.parametrize("text", ["10**400", "(-8)**(1/3)"])
def test_parse_number_overflow_and_complex_are_value_errors(text):
    with pytest.raises(ValueError, match="cannot parse number"):
        _parse_number(text)


def test_parse_config_text_roundtrip():
    text = """
    # a comment
    experiment = fig_pt_map
    alpha = pi/3      # inline comment
    h = 0.1 : 2.0 : 20
    j_rel = 0 : 1 : 20
    n_sites = 2
    t_max = 8
    n_grid = 400
    workers = 2
    output = out/map.csv
    """
    cfg = parse_config_text(text)
    assert cfg.experiment == "fig_pt_map"
    assert cfg.ranges["h"] == (0.1, 2.0, 20)
    assert list(cfg.ranges) == ["h", "j_rel"]
    assert cfg.fixed["alpha"] == pytest.approx(math.pi / 3)
    assert cfg.fixed["n_sites"] == 2
    assert cfg.t_max == 8.0
    assert cfg.n_grid == 400
    assert cfg.workers == 2
    assert cfg.output_path == "out/map.csv"
    cfg.validate()


def test_parse_config_errors():
    with pytest.raises(ValueError):
        parse_config_text("h = 0:1:4\n")  # no experiment
    with pytest.raises(ValueError):
        parse_config_text("experiment = fig_pt_map\nh = 1:2\n")  # bad range
    with pytest.raises(ValueError):
        parse_config_text("experiment = fig_pt_map\nbogus line\n")


def test_parse_config_rejects_a_key_given_twice():
    # the range used to win silently while the metadata reported the fixed value
    text = (
        "experiment = fig_rt_map\n"
        "gamma_prime = 0.5\n"
        "h_prime = 0.1 : 2.0 : 3\n"
        "gamma_prime = 0.1 : 0.9 : 2\n"
    )
    with pytest.raises(ValueError, match="line 4: 'gamma_prime' already set on line 2"):
        parse_config_text(text)
    with pytest.raises(ValueError, match="line 3: 't_max' already set on line 2"):
        parse_config_text("experiment = fig_pt_map\nt_max = 5\nT_MAX = 8\n")


def test_validate_rejects_a_parameter_both_swept_and_fixed():
    cfg = SweepConfig(
        experiment="fig_rt_map",
        ranges={"gamma_prime": (0.1, 0.9, 2), "h_prime": (0.1, 2.0, 3)},
        fixed={"gamma_prime": 0.5},
        workers=1,
    )
    with pytest.raises(ValueError, match=r"both swept and fixed: \['gamma_prime'\]"):
        cfg.validate()


def test_validate_rejects_unknown_and_unsweepable_params():
    cfg = small_map_config()
    cfg.fixed["shoe_size"] = 42.0
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = small_map_config()
    cfg.ranges["n_sites"] = (2.0, 4.0, 2)
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = SweepConfig(experiment="nope", ranges={"h": (0, 1, 2)})
    with pytest.raises(ValueError):
        cfg.validate()


@pytest.mark.parametrize("t_max", [math.nan, math.inf])
def test_validate_rejects_non_finite_t_max(t_max):
    with pytest.raises(ValueError, match=f"t_max must be finite and > 0, got {t_max}"):
        small_map_config(t_max=t_max).validate()


@pytest.mark.parametrize("workers", [-1, -5000])
def test_validate_rejects_negative_workers(workers):
    with pytest.raises(ValueError, match=f"workers must be >= 0.*got {workers}"):
        small_map_config(workers=workers).validate()


@pytest.mark.parametrize(
    "experiment,ranges,fixed,bad",
    [
        ("fig_rt_scaling_N", {"n_sites": (2.0, 5.0, 3)}, {}, "3.5"),
        ("fig_pt_map", {"h": (0.5, 1.5, 2), "j_rel": (0.2, 0.8, 2)}, {"n_sites": 2.6}, "2.6"),
    ],
    ids=["swept", "fixed"],
)
def test_validate_rejects_non_integer_n_sites(experiment, ranges, fixed, bad):
    cfg = SweepConfig(experiment=experiment, ranges=ranges, fixed=fixed)
    with pytest.raises(ValueError, match=f"n_sites must be an integer, got {bad}"):
        cfg.validate()


@pytest.mark.parametrize(
    "experiment,ranges,fixed,message",
    [
        ("fig_rt_scaling_N", {"n_sites": (1.0, 3.0, 3)}, {}, r"n_sites must be in \[2, 12\], got 1.0"),
        ("fig_pmax_vs_alpha", {"alpha": (0.2, 0.8, 2)}, {"n_sites": 13}, r"n_sites must be in \[2, 12\], got 13"),
        ("fig_thermal_rt", {"beta": (-1.0, 1.0, 3)}, {}, "beta must be >= 0, got -1.0"),
        ("fig_thermal_pt", {"alpha": (0.2, 0.8, 2)}, {"beta": -0.5}, "beta must be >= 0, got -0.5"),
    ],
    ids=["swept-n-sites", "fixed-n-sites", "swept-beta", "fixed-beta"],
)
def test_validate_rejects_n_sites_off_the_chain_range_and_negative_beta(
    monkeypatch, experiment, ranges, fixed, message
):
    monkeypatch.delenv("QBATTERY_MAX_SITES", raising=False)
    cfg = SweepConfig(experiment=experiment, ranges=ranges, fixed=fixed)
    with pytest.raises(ValueError, match=message):
        cfg.validate()


def test_validate_accepts_integral_float_n_sites():
    SweepConfig(experiment="fig_scaling_N", ranges={"n_sites": (2.0, 4.0, 3)}).validate()
    small_map_config(fixed={"n_sites": 6.0}).validate()


@pytest.mark.parametrize(
    "text",
    [
        "experiment = fig_pt_map\nh = 0.5 : 1 : 2\nj_rel = 0 : 1 : 2\nalpha = 1e999\n",
        "experiment = fig_rt_map\nh_prime = 0.2 : 0.4 : 2\ngamma_prime = 1e999\n",
        "experiment = fig_thermal_rt\nbeta = 0.5 : 2 : 2\nh_prime = -1e999\n",
    ],
    ids=["alpha", "gamma_prime", "h_prime"],
)
def test_validate_rejects_non_finite_fixed_values(text):
    cfg = parse_config_text(text)
    key = text.strip().splitlines()[-1].split("=")[0].strip()
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        cfg.validate()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records the requested pool size and
    maps in this process, so no worker is ever started."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("workers,cpus", [(5000, 2), (0, 5000), (3, 2)])
def test_run_experiment_caps_pool_at_row_count(monkeypatch, workers, cpus):
    sizes = []
    monkeypatch.setattr(
        experiment_cli, "ProcessPoolExecutor", lambda max_workers: _SerialPool(sizes, max_workers)
    )
    monkeypatch.setattr(experiment_cli.os, "cpu_count", lambda: cpus)
    res = run_experiment(small_map_config(workers=workers))
    assert len(res.rows) == 4
    assert sizes == [min(workers or cpus, 4)]
    assert res.rows == run_experiment(small_map_config(workers=1)).rows


def test_run_experiment_one_worker_or_one_row_starts_no_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"pool of {max_workers} started")

    monkeypatch.setattr(experiment_cli, "ProcessPoolExecutor", no_pool)
    run_experiment(small_map_config(workers=1))
    run_experiment(small_map_config(workers=5000, ranges={"h": (0.5, 0.5, 1), "j_rel": (0.2, 0.2, 1)}))


def test_grid_values_single_point():
    assert _grid_values(0.3, 9.9, 1) == [0.3]
    grid = _grid_values(0.0, 1.0, 5)
    assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]


# --- sweeps ----------------------------------------------------------------------


def test_run_experiment_row_order_and_positivity():
    res = run_experiment(small_map_config())
    assert res.param_names == ["h", "j_rel"]
    assert [tuple(r[:2]) for r in res.rows] == [
        (0.5, 0.2),
        (0.5, 0.8),
        (1.5, 0.2),
        (1.5, 0.8),
    ]
    assert all(r[-1] > 0 for r in res.rows)
    assert "wall_time_s" in res.metadata


def test_run_experiment_degen_rows(tmp_path):
    # J = 2h exactly has a degenerate ground state: flagged, not fatal
    cfg = SweepConfig(
        experiment="fig_pmax_vs_J",
        ranges={"j": (1.0, 2.0, 2)},
        fixed={"n_sites": 2, "h": 1.0, "alpha": 0.5, "boundary": "periodic"},
        n_grid=64,
        workers=1,
    )
    res = run_experiment(cfg)
    assert res.rows[0][1] is not None
    assert res.rows[1][1] is None  # J = 2.0 row flagged
    emit_outputs(res, str(tmp_path / "degen.csv"))
    _, _, rows = read_csv(str(tmp_path / "degen.csv"))
    assert rows[1][1] == DEGEN_MARKER


def test_run_experiment_deterministic_across_workers(tmp_path):
    paths = []
    for workers in (1, 2):
        cfg = small_map_config(workers=workers)
        res = run_experiment(cfg)
        path = tmp_path / f"map_w{workers}.csv"
        emit_outputs(res, str(path))
        paths.append(path)
    bodies = []
    for path in paths:
        bodies.append([l for l in path.read_text().splitlines() if not l.startswith("#")])
    assert bodies[0] == bodies[1]


def test_ergotropy_experiment_work_equals_ergotropy(tmp_path):
    cfg = SweepConfig(
        experiment="fig_ergotropy",
        ranges={"t": (0.25, 2.0, 8)},
        fixed={"n_sites": 2, "boundary": "periodic"},
        n_grid=64,
        workers=1,
    )
    res = run_experiment(cfg)
    assert res.param_names == ["t"]
    assert len(res.rows) == 8
    for row in res.rows:
        t, w_pt, e_pt, w_rt, e_rt = row
        assert abs(w_pt - e_pt) < 1e-10
        assert abs(w_rt - e_rt) < 1e-10


def test_ergotropy_rows_match_per_time_evaluation():
    # the per-time loop the rows were once built with: one snapshot, one
    # work and one ergotropy call per time and charger
    cfg = SweepConfig(
        experiment="fig_ergotropy",
        ranges={"t": (0.05, 10.0, 40)},
        workers=1,
    )
    res = run_experiment(cfg)
    battery_pt = normalize_spectrum(
        build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=6, boundary="open"))
    )
    battery_rt = normalize_spectrum(build_noninteracting_battery(6))
    charger_pt = build_pt_charger(2.0 * math.pi / 3.0, 6)
    charger_rt = build_charger(ChargerSpec(kind="rt", n_sites=6, gamma_prime=0.1, J=1.0, h_prime=1.5))
    psi_pt = ground_state(battery_pt)
    psi_rt = ground_state(battery_rt)
    for t, *values in res.rows:
        state_pt = evolve_normalized(charger_pt, psi_pt, t)
        state_rt = evolve_normalized(charger_rt, psi_rt, t)
        want = (
            work(battery_pt, psi_pt, state_pt),
            ergotropy(battery_pt, state_pt),
            work(battery_rt, psi_rt, state_rt),
            ergotropy(battery_rt, state_rt),
        )
        assert np.max(np.abs(np.array(values) - want)) <= 1e-12


def test_scaling_experiment_emits_fit_metadata():
    cfg = SweepConfig(
        experiment="fig_scaling_N",
        ranges={"n_sites": (2.0, 4.0, 3)},
        fixed={"boundary": "open"},
        n_grid=64,
        workers=1,
    )
    res = run_experiment(cfg)
    assert "fit_exponent" in res.metadata
    assert len(res.rows) == 3
    col = len(res.param_names) + res.metric_names.index("p_max_pt")
    fit = fit_power_law([r[0] for r in res.rows], [r[col] for r in res.rows])
    assert res.metadata["fit_exponent"] == f"{fit['exponent']:.17g}"


# --- CSV emission ------------------------------------------------------------------


def test_csv_round_trip_is_bitwise(tmp_path):
    res = run_experiment(small_map_config())
    path = tmp_path / "round.csv"
    emit_outputs(res, str(path))
    _, names, rows = read_csv(str(path))
    assert names == res.param_names + res.metric_names
    for written, original in zip(rows, res.rows):
        for text, value in zip(written, original):
            assert float(text) == value  # 17 significant digits round-trips exactly


def test_csv_bytes_match_fixture(tmp_path):
    # the fixture holds the bytes of the earlier hand-rolled writer: quoted
    # header names with ',' and '"', a DEGEN row, 17-digit values
    res = SweepResult(
        param_names=["h", "a,b"],
        metric_names=['say "hi"', "p_max"],
        rows=[
            (0.1, -2.5, 1.0 / 3.0, 1e-300),
            (0.2, 3.0, None, None),
            (1e22, -0.0, 2.0**-30, 0.07125440666376713),
        ],
        metadata={"experiment": "quoting", "note": 'a, "b"'},
    )
    path = tmp_path / "quoting.csv"
    emit_outputs(res, str(path))
    assert path.read_bytes() == (DATA_DIR / "csv_quoting.csv").read_bytes()
    meta, names, rows = read_csv(str(path))
    assert meta == res.metadata
    assert names == res.param_names + res.metric_names
    assert rows[1] == ["0.20000000000000001", "3", DEGEN_MARKER, DEGEN_MARKER]


def test_emit_plot_script(tmp_path):
    res = run_experiment(small_map_config())
    path = tmp_path / "map.csv"
    emit_outputs(res, str(path), plot=True)
    script = tmp_path / "map_plot.py"
    assert script.exists()
    src = script.read_text()
    compile(src, str(script), "exec")
    assert "map.csv" in src
    assert f"v == {DEGEN_MARKER!r}" in src


def test_emit_failure_names_path():
    res = run_experiment(small_map_config())
    with pytest.raises(RuntimeError, match="/proc/forbidden"):
        emit_outputs(res, "/proc/forbidden/x.csv")


# --- power-law fit ------------------------------------------------------------------


def test_fit_power_law_exact_sqrt():
    ns = [2, 3, 4, 5, 6]
    fit = fit_power_law(ns, [3.0 * math.sqrt(n) for n in ns])
    assert fit["exponent"] == pytest.approx(0.5, abs=1e-10)
    assert fit["coefficient"] == pytest.approx(3.0, abs=1e-9)
    assert fit["residual"] < 1e-12


def test_fit_power_law_flat():
    fit = fit_power_law([2, 4, 8], [1.7, 1.7, 1.7])
    assert fit["exponent"] == pytest.approx(0.0, abs=1e-10)


def test_fit_power_law_errors():
    with pytest.raises(ValueError):
        fit_power_law([2, 3], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([2, 3, 4], [1.0, -2.0, 3.0])


# --- CLI --------------------------------------------------------------------------


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_cli_run_end_to_end(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "experiment = fig_rt_map\n"
        "gamma_prime = 0.2 : 0.6 : 2\n"
        "h_prime = 0.2 : 0.4 : 2\n"
        "n_sites = 2\n"
        "n_grid = 64\n"
        f"output = {tmp_path / 'rt.csv'}\n"
        "workers = 1\n"
    )
    assert main(["run", str(config), "--plot"]) == 0
    meta, names, rows = read_csv(str(tmp_path / "rt.csv"))
    assert names == ["gamma_prime", "h_prime", "p_max_rt", "p_max_herm", "delta_p_max"]
    assert len(rows) == 4
    assert (tmp_path / "rt_plot.py").exists()
    assert meta["experiment"] == "fig_rt_map"


def test_cli_overrides(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "experiment = fig_rt_map\n"
        "gamma_prime = 0.2 : 0.6 : 2\n"
        "h_prime = 0.3 : 0.3 : 1\n"
        "n_sites = 2\n"
        "n_grid = 64\n"
        "output = ignored.csv\n"
    )
    out = tmp_path / "override.csv"
    assert main(["run", str(config), "--out", str(out), "--workers", "1", "--n-grid", "32"]) == 0
    meta, _, rows = read_csv(str(out))
    assert meta["n_grid"] == "32"
    assert len(rows) == 2


def test_scaling_sweep_with_one_distinct_length_writes_no_fit(tmp_path):
    # 2 : 2 : 3 gives three rows at N = 2; a power law needs two distinct N.
    config = tmp_path / "scaling.cfg"
    config.write_text(
        "experiment = fig_scaling_N\n"
        "n_sites = 2 : 2 : 3\n"
        "alpha = pi/2\n"
        "j = 1\n"
        "h = 1\n"
        "boundary = open\n"
        "n_grid = 64\n"
    )
    out = tmp_path / "scaling.csv"
    assert main(["run", str(config), "--out", str(out), "--workers", "1"]) == 0
    meta, _, rows = read_csv(str(out))
    assert len(rows) == 3
    assert not [key for key in meta if key.startswith("fit_")]


@pytest.mark.parametrize(
    "text,args,message",
    [
        (None, [], "No such file"),
        ("experiment = fig_rt_map\ngamma_prime = 0.2 : 0.6 : 2\nh_prime = 0.3\n", ["--workers", "-1"], "workers must be >= 0"),
        ("experiment = fig_rt_map\ngamma_prime = 10**400\n", [], "cannot parse number"),
        ("experiment = fig_rt_scaling_N\nn_sites = 2 : 5 : 3\n", [], "n_sites must be an integer, got 3.5"),
        ("experiment = fig_thermal_rt\nbeta = -1 : 1 : 3\n", ["--workers", "2"], "beta must be >= 0, got -1.0"),
        ("experiment = fig_pmax_vs_alpha\nalpha = 0.5 : 1 : 2\nboundary = ring\n", [], "boundary must be open or periodic, got 'ring'"),
        ("experiment = fig_ergotropy\nt = 0 : 1 : 5\n", [], "t must be > 0, got 0.0"),
    ],
    ids=["missing-file", "negative-workers", "overflow", "non-integer-n-sites", "negative-beta", "unknown-boundary", "zero-time"],
)
def test_cli_input_errors_exit_2_without_traceback(tmp_path, capsys, text, args, message):
    config = tmp_path / "sweep.cfg"
    if text is not None:
        config.write_text(text + f"output = {tmp_path / 'out.csv'}\n")
    assert main(["run", str(config), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("qbattery: error: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_load_config(tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("experiment = fig_pt_map\nh = 0.5:1:2\nj_rel = 0:1:2\n")
    cfg = load_config(str(config))
    assert cfg.experiment == "fig_pt_map"


def test_oracle_check_passes():
    stream = io.StringIO()
    assert run_oracle_check(stream) is True
    text = stream.getvalue()
    assert "FAIL" not in text
    assert text.count("PASS") >= 20
    # names and order are fixed; the error values depend on the machine
    names = [line.split(" ", 1)[1].rsplit(": max_err=", 1)[0] for line in text.splitlines()]
    assert names == (DATA_DIR / "oracle_check_names.txt").read_text().splitlines()


def test_oracle_check_powers_take_the_sweep_grid_route(monkeypatch):
    # Sweep grids are evenly spaced, so a dense (RT) charger's grid is
    # chained from K(dt) and K(c dt); the oracle's power checks must run
    # that route, one 400-point grid of 20 anchor blocks of 20 states per RT
    # charger, not one exponential per time.
    chains = []
    chain = battery_dynamics._chain_chunks

    def recording_chain(h_mat, w0, times, dt):
        chunks = list(chain(h_mat, w0, times, dt))
        chains.append((times.size, sum(states.shape[0] for _, states in chunks)))
        yield from chunks

    monkeypatch.setattr(battery_dynamics, "_chain_chunks", recording_chain)
    assert run_oracle_check(io.StringIO()) is True
    assert [c for c in chains if c[0] > 1] == [(400, 400)] * 8


def test_rt_oracle_cases_assemble_no_dense_rt_operator(monkeypatch):
    # The RT cases are prepared as an RT sweep row is: the sigma-x battery,
    # its ground state and both chargers in the translation k = 0 block.
    rt_cases = [case for case in experiment_cli._oracle_cases() if case[0] == RT]
    monkeypatch.setattr(experiment_cli, "_oracle_cases", lambda: iter(rt_cases))

    def refuse(terms):
        raise AssertionError(f"dense assembly on {terms.n} sites")

    monkeypatch.setattr(tensor_core, "_assemble", refuse)
    checks = experiment_cli._oracle_checks()
    assert len(checks) == 12 and all(ok for *_, ok in checks)


# --- every pipeline end to end ------------------------------------------------------

_SMOKE_SETUPS = {
    "fig_ergotropy": ({"t": (0.5, 1.5, 2)}, {"n_sites": 2}),
    "fig_pt_map": ({"h": (0.5, 1.0, 2), "j_rel": (0.0, 1.0, 2)}, {}),
    "fig_pmax_vs_alpha": ({"alpha": (0.4, 1.2, 2)}, {"n_sites": 2}),
    "fig_pmax_vs_J": ({"j": (0.0, 0.5, 2)}, {"n_sites": 2}),
    "fig_scaling_N": ({"n_sites": (2.0, 4.0, 3)}, {"boundary": "open"}),
    "fig_pmax_vs_gamma": ({"gamma": (0.0, 0.5, 2)}, {"n_sites": 2}),
    "fig_pmax_vs_delta": ({"delta": (-0.5, 0.0, 2)}, {"n_sites": 2}),
    "fig_thermal_pt": ({"beta": (0.5, 2.0, 2)}, {"n_sites": 2}),
    "fig_rt_map": ({"gamma_prime": (0.2, 0.5, 2), "h_prime": (0.2, 0.5, 2)}, {}),
    "fig_rt_vs_gammaprime": ({"gamma_prime": (0.2, 0.6, 2)}, {"n_sites": 2}),
    "fig_rt_scaling_N": ({"n_sites": (2.0, 3.0, 2)}, {}),
    "fig_thermal_rt": ({"beta": (0.5, 2.0, 2)}, {"n_sites": 2}),
}


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_experiment_runs_end_to_end(experiment, tmp_path):
    ranges, fixed = _SMOKE_SETUPS[experiment]
    cfg = SweepConfig(
        experiment=experiment,
        ranges=dict(ranges),
        fixed=dict(fixed),
        t_max=6.0,
        n_grid=64,
        workers=1,
    )
    res = run_experiment(cfg)
    expected_rows = int(np.prod([count for _, _, count in ranges.values()]))
    assert len(res.rows) == expected_rows
    for row in res.rows:
        assert all(v is not None and math.isfinite(v) for v in row)
    path = tmp_path / f"{experiment}.csv"
    emit_outputs(res, str(path), plot=True)
    _, names, rows = read_csv(str(path))
    assert names == res.param_names + res.metric_names
    assert len(rows) == expected_rows


_PT_SWEEPS = {
    "fig_pt_map",
    "fig_pmax_vs_alpha",
    "fig_pmax_vs_J",
    "fig_scaling_N",
    "fig_pmax_vs_gamma",
    "fig_pmax_vs_delta",
    "fig_thermal_pt",
}
_SWEEPS = sorted(set(EXPERIMENTS) - {"fig_ergotropy"})


def _direct_metrics(experiment, p):
    """A sweep row's metrics from ``delta_p_max`` on specs built here."""
    n = int(p["n_sites"])
    j = p.get("j")
    if experiment in _PT_SWEEPS:
        if experiment == "fig_pt_map":
            j_lo, j_hi = -2.0 * p["h"] + 0.1, 2.0 * p["h"] - 0.1
            j = j_lo + p["j_rel"] * (j_hi - j_lo)
        battery = BatterySpec(
            J=j, gamma=p["gamma"], delta=p["delta"], h=p["h"], n_sites=n, boundary=p["boundary"]
        )
        nh = ChargerSpec(kind=PT, n_sites=n, alpha=p["alpha"])
        herm = ChargerSpec(kind=PT_HERMITIAN, n_sites=n, alpha=p["alpha"])
    else:
        battery = n
        rt = {"gamma_prime": p["gamma_prime"], "J": 1.0, "h_prime": p["h_prime"]}
        nh = ChargerSpec(kind=RT, n_sites=n, **rt)
        herm = ChargerSpec(kind=RT_HERMITIAN, n_sites=n, **rt)
    if experiment.startswith("fig_thermal"):
        rec = delta_p_max(battery, nh, herm, init="thermal", beta=p["beta"], t_max=6.0, n_grid=64)
    else:
        rec = delta_p_max(battery, nh, herm, t_max=6.0, n_grid=64)
    values = {
        "j": j,
        "p_max_pt": rec.p_max_nonhermitian,
        "p_max_rt": rec.p_max_nonhermitian,
        "p_max_herm": rec.p_max_hermitian,
        "delta_p_max": rec.delta,
    }
    return tuple(values[name] for name in EXPERIMENTS[experiment].metrics)


@pytest.mark.parametrize("experiment", _SWEEPS)
def test_sweep_rows_equal_direct_delta_p_max(experiment):
    ranges, fixed = _SMOKE_SETUPS[experiment]
    cfg = SweepConfig(
        experiment=experiment, ranges=dict(ranges), fixed=dict(fixed), t_max=6.0, n_grid=64, workers=1
    )
    res = run_experiment(cfg)
    assert len(res.rows) == int(np.prod([count for _, _, count in ranges.values()]))
    for row in res.rows:
        swept = dict(zip(res.param_names, row))
        params = {**EXPERIMENTS[experiment].defaults, **fixed, **swept}
        assert row[len(swept):] == _direct_metrics(experiment, params)


_BOUNDS = {
    "h": (0.2, 2.0),
    "j_rel": (0.0, 1.0),
    "alpha": (0.1, 1.5),
    "j": (-1.0, 1.0),
    "gamma": (0.0, 0.8),
    "delta": (-0.8, 0.8),
    "beta": (0.1, 3.0),
    "gamma_prime": (0.1, 1.2),
    "h_prime": (0.1, 1.5),
}


@st.composite
def _small_sweeps(draw):
    """A sweep of at least two rows at N <= 3 on a 32-point grid."""
    experiment = draw(st.sampled_from(_SWEEPS))
    ranges, fixed = {}, {}
    for i, name in enumerate(EXPERIMENTS[experiment].required):
        if name == "n_sites":
            ranges[name] = (2.0, 3.0, 2)
            continue
        lo, hi = _BOUNDS[name]
        start, stop = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
        ranges[name] = (start, stop, 2 if i == 0 else draw(st.integers(1, 2)))
    if "n_sites" not in ranges:
        fixed["n_sites"] = draw(st.sampled_from([2, 3]))
    t_max = draw(st.floats(2.0, 8.0))
    return SweepConfig(experiment=experiment, ranges=ranges, fixed=fixed, t_max=t_max, n_grid=32)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(_small_sweeps())
def test_csv_bodies_identical_across_worker_counts(cfg):
    bodies = []
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 2):
            cfg.workers = workers
            path = os.path.join(tmp, f"w{workers}.csv")
            emit_outputs(run_experiment(cfg), path)
            with open(path, "rb") as fh:
                bodies.append(b"".join(line for line in fh if not line.startswith(b"#")))
    assert bodies[0] == bodies[1]


def test_shipped_configs_parse_and_validate():
    config_dir = os.path.join(os.path.dirname(__file__), "..", "configs")
    names = sorted(os.listdir(config_dir))
    assert len(names) == len(EXPERIMENTS)
    for name in names:
        cfg = load_config(os.path.join(config_dir, name))
        cfg.validate()
