"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from qbattery import closed_form_oracles as oracles
from qbattery.battery_dynamics import (
    delta_p_max,
    evolve_normalized,
    power_trace,
    work,
    work_and_ergotropy,
)
from qbattery.dense_linalg import (
    expm_array,
    general_eigenvalues,
    hermitian_eig,
)
from qbattery.errors import DegenerateGroundStateError
from qbattery.experiment_cli import (
    SweepConfig,
    emit_outputs,
    fit_power_law,
    run_experiment,
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
    build_pt_hermitian_charger,
    normalize_spectrum,
)
from qbattery.state_prep import QuantumState, ground_state, thermal_state


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def xx_battery(j=1.0, h=1.0, n=2, boundary="periodic"):
    return normalize_spectrum(
        build_battery_xyz(
            BatterySpec(J=j, gamma=0.0, delta=0.0, h=h, n_sites=n, boundary=boundary)
        )
    )


def numeric_power(battery, charger, psi0, t):
    return work(battery, psi0, evolve_normalized(charger, psi0, t)) / t


def pt_map_config(workers=0):
    # h in (0, 2], J inside [-2h, 2h - 0.1]; the lower endpoint is excluded by
    # the same 0.1 margin the upper one carries because the ground state is
    # exactly degenerate at |J| = 2h.
    return SweepConfig(
        experiment="fig_pt_map",
        ranges={"h": (0.1, 2.0, 20), "j_rel": (0.0, 1.0, 20)},
        fixed={"alpha": math.pi / 3, "n_sites": 2},
        t_max=10.0,
        n_grid=2000,
        workers=workers,
    )


def test_criterion_01_pt_oracle_equivalence():
    start = time.monotonic()
    battery = xx_battery()
    psi0 = ground_state(battery)
    worst = 0.0
    times = np.linspace(0.01, 10.0, 2000)
    for alpha in (math.pi / 6, math.pi / 3, 5 * math.pi / 12):
        charger = build_pt_charger(alpha, 2)
        for t in times:
            err = abs(
                numeric_power(battery, charger, psi0, float(t))
                - oracles.pt_power_n2(float(t), 1.0, 1.0, alpha)
            )
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"PT oracle equivalence: max_err={worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_rt_oracle_equivalence():
    start = time.monotonic()
    battery = normalize_spectrum(build_noninteracting_battery(2))
    psi0 = ground_state(battery)
    worst = 0.0
    times = np.linspace(0.01, 10.0, 2000)
    for g, h in ((0.3, 0.5), (0.8, 0.5), (1.2, 0.5)):
        charger = build_charger(
            ChargerSpec(kind=RT, n_sites=2, gamma_prime=g, J=1.0, h_prime=h)
        )
        herm = build_charger(
            ChargerSpec(kind=RT_HERMITIAN, n_sites=2, gamma_prime=g, J=1.0, h_prime=h)
        )
        for t in times:
            err = abs(
                numeric_power(battery, charger, psi0, float(t))
                - oracles.rt_power_n2(float(t), g, h)
            )
            worst = max(worst, err)
            err = abs(
                numeric_power(battery, herm, psi0, float(t))
                - oracles.rt_herm_power_n2(float(t), g, h)
            )
            worst = max(worst, err)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"RT oracle equivalence: max_err={worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_03_proposition_1_map():
    start = time.monotonic()
    result = run_experiment(pt_map_config())
    deltas = [row[-1] for row in result.rows]
    elapsed = time.monotonic() - start
    ok = (
        len(deltas) == 400
        and all(d is not None and d > 0 for d in deltas)
        and elapsed < 60.0
    )
    min_delta = min(d for d in deltas if d is not None)
    report(3, ok, f"Prop-1 20x20 map all-positive: min_delta={min_delta:.4f}, {elapsed:.1f}s")
    assert all(d is not None and d > 0 for d in deltas)
    assert elapsed < 60.0


def test_criterion_04_proposition_2_map_and_reversal():
    start = time.monotonic()
    # gamma' in (0, 1] and h in the interior of (0, 0.8)
    h_interior = np.linspace(0.0, 0.8, 10)[1:-1]
    config = SweepConfig(
        experiment="fig_rt_map",
        ranges={
            "gamma_prime": (0.1, 1.0, 10),
            "h_prime": (float(h_interior[0]), float(h_interior[-1]), 8),
        },
        fixed={"n_sites": 2},
        t_max=10.0,
        n_grid=2000,
        workers=0,
    )
    result = run_experiment(config)
    deltas = [row[-1] for row in result.rows]
    all_positive = len(deltas) == 80 and all(d is not None and d > 0 for d in deltas)

    reversal = delta_p_max(
        6,
        ChargerSpec(kind=RT, n_sites=6, gamma_prime=0.8, J=1.0, h_prime=1.5),
        ChargerSpec(kind=RT_HERMITIAN, n_sites=6, gamma_prime=0.8, J=1.0, h_prime=1.5),
        t_max=10.0,
        n_grid=600,
    )
    elapsed = time.monotonic() - start
    ok = all_positive and reversal.delta < 0 and elapsed < 180.0
    report(
        4,
        ok,
        f"Prop-2 10x8 map min_delta={min(deltas):.4f}, "
        f"reversal delta={reversal.delta:.4f}, {elapsed:.1f}s",
    )
    assert all_positive
    assert reversal.delta < 0
    assert elapsed < 180.0


def test_criterion_05_exceptional_point_maximizes_power():
    margins = {}
    for n in (2, 4, 6):
        battery = xx_battery(n=n, boundary="open")
        psi0 = ground_state(battery)
        p_values = {}
        for k in range(1, 12):
            alpha = k * math.pi / 12.0
            trace = power_trace(battery, build_pt_charger(alpha, n), psi0, 10.0, 800)
            p_values[k] = trace.p_max
        ep = p_values.pop(6)
        margins[n] = ep - max(p_values.values())
    ok = all(m > 1e-6 for m in margins.values())
    report(5, ok, f"EP maximizes P_max: margins={ {n: f'{m:.3e}' for n, m in margins.items()} }")
    assert all(m > 1e-6 for m in margins.values())


def test_criterion_06_scaling_fit():
    start = time.monotonic()
    ns = list(range(2, 9))
    p_max = []
    for n in ns:
        battery = xx_battery(n=n, boundary="open")
        psi0 = ground_state(battery)
        trace = power_trace(battery, build_pt_charger(math.pi / 2, n), psi0, 10.0, 800)
        p_max.append(trace.p_max)
    fit = fit_power_law(ns, p_max)
    elapsed = time.monotonic() - start
    exponent_ok = 0.35 <= fit["exponent"] <= 0.65
    residual_ok = fit["residual"] < 0.1
    ok = exponent_ok and residual_ok and elapsed < 600.0
    report(
        6,
        ok,
        f"scaling fit: exponent={fit['exponent']:.4f} (target [0.35, 0.65]), "
        f"residual={fit['residual']:.4f}, P_max={[f'{p:.4f}' for p in p_max]}, {elapsed:.0f}s",
    )
    assert residual_ok
    assert elapsed < 600.0
    assert exponent_ok, (
        f"measured exponent {fit['exponent']:.4f} outside [0.35, 0.65]: the"
        " computed maximal power is nearly size-independent for the per-site"
        " charger with the normalized battery spectrum"
    )


def test_criterion_07_ergotropy_work_identity():
    battery = xx_battery(n=6, boundary="open")
    psi0 = ground_state(battery)
    charger = build_pt_charger(2 * math.pi / 3, 6)
    trace = power_trace(battery, charger, psi0, 10.0, 2000)
    _, ergo = work_and_ergotropy(battery, charger, psi0, trace.times)
    worst_pt = float(np.max(np.abs(ergo - trace.work)))

    battery_rt = normalize_spectrum(build_noninteracting_battery(6))
    psi_rt = ground_state(battery_rt)
    charger_rt = build_charger(
        ChargerSpec(kind=RT, n_sites=6, gamma_prime=0.1, J=1.0, h_prime=1.5)
    )
    trace_rt = power_trace(battery_rt, charger_rt, psi_rt, 10.0, 2000)
    _, ergo_rt = work_and_ergotropy(battery_rt, charger_rt, psi_rt, trace_rt.times)
    worst_rt = float(np.max(np.abs(ergo_rt - trace_rt.work)))

    ok = worst_pt < 1e-10 and worst_rt < 1e-10
    report(7, ok, f"ergotropy == work: PT max dev {worst_pt:.2e}, RT max dev {worst_rt:.2e}")
    assert worst_pt < 1e-10
    assert worst_rt < 1e-10


def test_criterion_08_thermal_limits():
    battery = xx_battery()
    charger = build_pt_charger(math.pi / 3, 2)
    herm = build_pt_hermitian_charger(math.pi / 3, 2)

    psi0 = ground_state(battery)
    p_ground = power_trace(battery, charger, psi0, 10.0, 2000).p_max
    rho_cold = thermal_state(battery, beta=50.0)
    p_cold = power_trace(battery, charger, rho_cold, 10.0, 2000).p_max
    cold_dev = abs(p_cold - p_ground)

    rho_hot = thermal_state(battery, beta=0.0)
    p_hot_herm = power_trace(battery, herm, rho_hot, 10.0, 2000).p_max
    p_hot_pt = power_trace(battery, charger, rho_hot, 10.0, 2000).p_max

    ok = cold_dev < 1e-6 and p_hot_herm < 1e-10
    report(
        8,
        ok,
        f"thermal limits: |P(beta=50) - P(ground)|={cold_dev:.2e}, "
        f"Hermitian P(beta=0)={p_hot_herm:.2e}, PT P(beta=0)={p_hot_pt:.6f} (reported)",
    )
    assert cold_dev < 1e-6
    assert p_hot_herm < 1e-10


def test_criterion_09_state_validity_suite():
    rng = np.random.default_rng(123)
    worst = {"trace": 0.0, "herm": 0.0, "psd": 0.0, "purity": 0.0}
    for case in range(100):
        n = int(rng.integers(2, 7))
        t = float(rng.uniform(0.05, 10.0))
        if case % 2 == 0:
            alpha = float(rng.uniform(0.05, math.pi - 0.05))
            charger = build_pt_charger(alpha, n)
            battery = xx_battery(j=float(rng.uniform(-0.9, 0.9)), n=n, boundary="open")
        else:
            g = float(rng.uniform(0.05, 1.5))
            hp = float(rng.uniform(0.05, 2.0))
            charger = build_charger(
                ChargerSpec(kind=RT, n_sites=n, gamma_prime=g, J=1.0, h_prime=hp)
            )
            battery = normalize_spectrum(build_noninteracting_battery(n))
        if case % 3 == 0:
            rho0 = thermal_state(battery, beta=float(rng.uniform(0.2, 5.0)))
        else:
            psi = ground_state(battery)
            if case % 3 == 1:
                rho0 = psi
            else:
                rho0 = QuantumState.density(np.outer(psi.data, psi.data.conj()))
        state = evolve_normalized(charger, rho0, t)
        rho = state.density_matrix()
        worst["trace"] = max(worst["trace"], abs(float(np.real(np.trace(rho))) - 1.0))
        worst["herm"] = max(worst["herm"], float(np.max(np.abs(rho - rho.conj().T))))
        min_eig = float(hermitian_eig(rho, compute_vectors=False).values[0])
        worst["psd"] = max(worst["psd"], max(0.0, -min_eig))
        if rho0.is_pure or rho0.purity() > 1.0 - 1e-12:
            worst["purity"] = max(
                worst["purity"], abs(float(np.real(np.trace(rho @ rho))) - 1.0)
            )
    ok = (
        worst["trace"] < 1e-10
        and worst["herm"] < 1e-10
        and worst["psd"] < 1e-9
        and worst["purity"] < 1e-10
    )
    report(9, ok, f"state validity over 100 tuples: {worst}")
    assert worst["trace"] < 1e-10
    assert worst["herm"] < 1e-10
    assert worst["psd"] < 1e-9
    assert worst["purity"] < 1e-10


def test_criterion_10_linear_algebra_kernels():
    start = time.monotonic()
    rng = np.random.default_rng(7)

    worst_inv = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a *= rng.uniform(0.5, 10.0) / np.abs(a).sum(axis=0).max()
        err = np.max(np.abs(expm_array(a) @ expm_array(-a) - np.eye(d)))
        worst_inv = max(worst_inv, float(err))

    worst_uni = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = 0.5 * (h + h.conj().T) / math.sqrt(d)
        t = float(rng.uniform(-50.0, 50.0))
        u = expm_array(-1j * t * h)
        worst_uni = max(worst_uni, float(np.max(np.abs(u.conj().T @ u - np.eye(d)))))

    worst_rec = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = 0.5 * (m + m.conj().T)
        dec = hermitian_eig(m)
        rebuilt = (dec.vectors * dec.values[None, :]) @ dec.vectors.conj().T
        norm = float(np.sqrt(np.sum(np.abs(m) ** 2)))
        worst_rec = max(worst_rec, float(np.max(np.abs(rebuilt - m))) / (1e-9 * norm))

    worst_tr = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 65))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        vals = general_eigenvalues(a)
        tr = complex(np.trace(a))
        worst_tr = max(worst_tr, abs(np.sum(vals) - tr) / (1e-8 * (1 + abs(tr))))

    elapsed = time.monotonic() - start
    ok = worst_inv < 1e-10 and worst_uni < 1e-10 and worst_rec < 1.0 and worst_tr < 1.0 and elapsed < 60.0
    report(
        10,
        ok,
        f"kernels: inv={worst_inv:.2e}, unitary={worst_uni:.2e}, "
        f"reconstr={worst_rec:.2f}x tol, trace={worst_tr:.2f}x tol, {elapsed:.1f}s",
    )
    assert worst_inv < 1e-10
    assert worst_uni < 1e-10
    assert worst_rec < 1.0  # relative to 1e-9 ||M||
    assert worst_tr < 1.0  # relative to 1e-8 (1 + |tr|)
    assert elapsed < 60.0


def test_criterion_11_determinism_across_workers(tmp_path):
    bodies = []
    for workers in (1, 4):
        result = run_experiment(pt_map_config(workers=workers))
        path = tmp_path / f"map_w{workers}.csv"
        emit_outputs(result, str(path))
        bodies.append(
            [line for line in path.read_text().splitlines() if not line.startswith("#")]
        )
    ok = bodies[0] == bodies[1]
    report(11, ok, f"determinism: {len(bodies[0])} body lines byte-identical={ok}")
    assert bodies[0] == bodies[1]
