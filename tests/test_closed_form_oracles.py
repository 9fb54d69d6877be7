import numpy as np
import pytest

from qbattery import closed_form_oracles as cfo
from qbattery.battery_dynamics import evolve_normalized, work, work_and_ergotropy
from qbattery.errors import OracleDomainError
from qbattery.model_builders import (
    RT,
    RT_HERMITIAN,
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_noninteracting_battery,
    build_pt_charger,
    build_pt_hermitian_charger,
    build_rt_charger,
    normalize_spectrum,
)
from qbattery.state_prep import QuantumState, ground_state
from qbattery.tensor_core import Operator


def xx_ground():
    battery = normalize_spectrum(
        build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2))
    )
    return battery, ground_state(battery)


def nonint_ground():
    battery = normalize_spectrum(build_noninteracting_battery(2))
    return battery, ground_state(battery)


# --- PT state ------------------------------------------------------------------


def test_pt_state_overlap_with_numeric_evolution():
    _, psi0 = xx_ground()
    charger = build_pt_charger(np.pi / 3, 2)
    for t in (0.2, 1.0, 3.7, 9.0):
        got = evolve_normalized(charger, psi0, t)
        overlap = abs(np.vdot(cfo.pt_state_n2(np.pi / 3, t), got.data))
        assert abs(1.0 - overlap) < 1e-8


def test_pt_state_short_time_limit():
    vec = cfo.pt_state_n2(np.pi / 3, 1e-4)
    assert abs(abs(vec[3]) - 1.0) < 1e-6  # approaches the initial basis direction


def test_pt_state_middle_components_equal():
    for alpha in (0.3, 1.0, 2.5):
        for t in (0.4, 1.3, 6.0):
            vec = cfo.pt_state_n2(alpha, t)
            assert vec[1] == vec[2]


def test_pt_state_singularities_refused():
    with pytest.raises(OracleDomainError):
        cfo.pt_state_n2(np.pi / 2, 1.0)  # exceptional point
    alpha = np.pi / 3
    with pytest.raises(OracleDomainError):
        cfo.pt_state_n2(alpha, np.pi / np.cos(alpha))  # t cos(alpha) = pi


# --- PT powers -----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_pt_power_equals_hermitian_power_at_alpha_zero(t):
    for j in (-1.0, 0.5, 1.0):
        a = cfo.pt_power_n2(t, 1.0, j, 0.0)
        b = cfo.pt_herm_power_n2(t, 1.0, j, 0.0)
        assert abs(a - b) < 1e-12


def test_pt_power_matches_numeric_point():
    battery, psi0 = xx_ground()
    charger = build_pt_charger(np.pi / 3, 2)
    t = 1.0
    p_num = work(battery, psi0, evolve_normalized(charger, psi0, t)) / t
    assert abs(p_num - cfo.pt_power_n2(t, 1.0, 1.0, np.pi / 3)) < 1e-8


def test_pt_herm_power_matches_numeric_grid():
    battery, psi0 = xx_ground()
    charger = build_pt_hermitian_charger(np.pi / 3, 2)
    for t in np.linspace(0.05, 10.0, 80):
        p_num = work(battery, psi0, evolve_normalized(charger, psi0, float(t))) / float(t)
        assert abs(p_num - cfo.pt_herm_power_n2(float(t), 1.0, 1.0, np.pi / 3)) < 1e-8


@pytest.mark.parametrize("j", [-1.5, 0.0, 1.5])
def test_pt_maximum_power_exceeds_hermitian_maximum(j):
    ts = np.linspace(0.01, 10.0, 4000)
    p_pt = max(cfo.pt_power_n2(float(t), 1.0, j, np.pi / 3) for t in ts)
    p_he = max(cfo.pt_herm_power_n2(float(t), 1.0, j, np.pi / 3) for t in ts)
    assert p_pt - p_he > 0.0


def test_pt_power_domain_errors():
    with pytest.raises(OracleDomainError):
        cfo.pt_power_n2(0.0, 1.0, 1.0, 0.3)
    with pytest.raises(OracleDomainError):
        cfo.pt_power_n2(1.0, 0.0, 1.0, 0.3)
    with pytest.raises(OracleDomainError):
        cfo.pt_power_n2(1.0, 1.0, 1.0, np.pi / 2)


# --- RT state ------------------------------------------------------------------


def test_rt_state_initial_condition():
    vec = cfo.rt_state_n2(0.8, 0.5, 0.0)
    want = 0.5 * np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
    assert np.max(np.abs(vec - want)) < 1e-12


def test_rt_state_matches_numeric_evolution():
    _, psi0 = nonint_ground()
    for g, h in ((0.8, 0.5), (1.2, 0.5)):
        charger = build_rt_charger(
            ChargerSpec(kind=RT, n_sites=2, gamma_prime=g, J=1.0, h_prime=h)
        )
        got = evolve_normalized(charger, psi0, 1.0)
        overlap = abs(np.vdot(cfo.rt_state_n2(g, h, 1.0), got.data))
        assert abs(1.0 - overlap) < 1e-8


def test_rt_state_middle_components_equal():
    for g, h, t in ((0.3, 0.5, 1.1), (1.2, 0.4, 2.3), (0.8, 0.2, 4.0)):
        vec = cfo.rt_state_n2(g, h, t)
        assert vec[1] == vec[2]


def test_rt_state_branch_point_refused():
    with pytest.raises(OracleDomainError):
        cfo.rt_state_n2(1.0, 0.5, 1.0)  # gamma'^2 == 4 h^2


# --- RT powers -----------------------------------------------------------------


@pytest.mark.parametrize("t", [0.3, 1.0, 2.7, 6.0])
def test_rt_power_gamma_zero_equals_hermitian(t):
    assert abs(cfo.rt_power_n2(t, 0.0, 0.5) - cfo.rt_herm_power_n2(t, 0.0, 0.5)) < 1e-12


@pytest.mark.parametrize("g,h", [(0.3, 0.5), (1.2, 0.5)])
def test_rt_power_branches_match_numerics(g, h):
    battery, psi0 = nonint_ground()
    charger = build_rt_charger(ChargerSpec(kind=RT, n_sites=2, gamma_prime=g, J=1.0, h_prime=h))
    for t in np.linspace(0.01, 10.0, 60):
        p_num = work(battery, psi0, evolve_normalized(charger, psi0, float(t))) / float(t)
        assert abs(p_num - cfo.rt_power_n2(float(t), g, h)) < 1e-8


def test_rt_herm_power_matches_numerics():
    battery, psi0 = nonint_ground()
    charger = build_rt_charger(
        ChargerSpec(kind=RT_HERMITIAN, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=0.5)
    )
    for t in np.linspace(0.01, 10.0, 60):
        p_num = work(battery, psi0, evolve_normalized(charger, psi0, float(t))) / float(t)
        assert abs(p_num - cfo.rt_herm_power_n2(float(t), 0.8, 0.5)) < 1e-8


def test_rt_power_branch_selection():
    assert cfo.rt_power_branch(0.3, 0.5) == cfo.BRANCH_RT_POWER_SUB
    assert cfo.rt_power_branch(1.2, 0.5) == cfo.BRANCH_RT_POWER_SUPER


def test_rt_power_branch_continuity():
    # both branch expressions approach the numeric value at the branch point
    h = 0.5
    battery, psi0 = nonint_ground()
    eps = 1e-6
    g_lo = np.sqrt(4 * h * h - eps)
    g_hi = np.sqrt(4 * h * h + eps)
    for t in (0.7, 1.9, 4.2):
        p_lo = cfo.rt_power_n2(t, g_lo, h)
        p_hi = cfo.rt_power_n2(t, g_hi, h)
        assert abs(p_lo - p_hi) < 1e-3
        charger = build_rt_charger(
            ChargerSpec(kind=RT, n_sites=2, gamma_prime=2 * h, J=1.0, h_prime=h)
        )
        p_num = work(battery, psi0, evolve_normalized(charger, psi0, t)) / t
        assert abs(p_lo - p_num) < 1e-3
        assert abs(p_hi - p_num) < 1e-3


def test_rt_power_domain_errors():
    with pytest.raises(OracleDomainError):
        cfo.rt_power_n2(1.0, 1.0, 0.5)  # branch point
    with pytest.raises(OracleDomainError):
        cfo.rt_power_n2(0.0, 0.3, 0.5)
    with pytest.raises(OracleDomainError):
        cfo.rt_herm_power_n2(1.0, 0.0, 0.0)


# --- all-N PT work on the open XX battery ----------------------------------------


@pytest.mark.parametrize("n", range(2, 11))
def test_pt_work_open_xx_matches_pipeline(n):
    chargers = [
        (alpha, build, build is build_pt_hermitian_charger)
        for alpha in (0.4, np.pi / 3, np.pi / 2, 2.0)
        for build in (build_pt_charger, build_pt_hermitian_charger)
    ]
    raw = build_battery_xyz(
        BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=n, boundary="open")
    )
    if n <= 8:
        # the full pipeline; it confirms the span N and the all-down ground
        # state that larger N takes as given (battery prep takes ~0.1 s at
        # N = 8 and ~0.6 s at N = 9)
        battery = normalize_spectrum(raw)
        assert np.max(np.abs(battery.matrix - (2.0 / n) * raw.matrix)) <= 1e-14
        psi0 = ground_state(battery)
        times = 10.0 * np.arange(1, 65) / 64
        for alpha, build, hermitian in chargers:
            got, _ = work_and_ergotropy(battery, build(alpha, n), psi0, times)
            want = [cfo.pt_work_open_xx(n, alpha, t, hermitian) for t in times]
            assert np.max(np.abs(got - want)) <= 1e-12
    else:
        battery = Operator((2.0 / n) * raw.matrix, n_sites=n)
        psi0 = QuantumState.pure(np.eye(2**n, dtype=complex)[-1])
        for alpha, build, hermitian in chargers:
            charger = build(alpha, n)
            for t in (0.3, 1.7, 6.4):
                got = work(battery, psi0, evolve_normalized(charger, psi0, t))
                assert abs(got - cfo.pt_work_open_xx(n, alpha, t, hermitian)) <= 1e-12


def test_pt_work_open_xx_two_site_power():
    # N = 2 agrees with the two-site power expressions away from their
    # singular points
    for alpha in (0.4, 1.0, 2.5):
        for t in (0.5, 1.3, 4.0):
            assert abs(cfo.pt_work_open_xx(2, alpha, t) / t - cfo.pt_power_n2(t, 1.0, 1.0, alpha)) < 1e-12
            herm = cfo.pt_work_open_xx(2, alpha, t, hermitian=True) / t
            assert abs(herm - cfo.pt_herm_power_n2(t, 1.0, 1.0, alpha)) < 1e-12
