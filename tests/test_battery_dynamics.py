import functools
import math
import os
import sys
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbattery import battery_dynamics, dense_linalg, tensor_core
from qbattery import closed_form_oracles as oracles
from qbattery.battery_dynamics import (
    _grid_step,
    _site_expansion,
    delta_p_max,
    ergotropy,
    evolve_normalized,
    power_trace,
    work,
    work_and_ergotropy,
)
from qbattery.dense_linalg import expm_array, hermitian_eig
from qbattery.errors import ConsistencyError, NormalizationUnderflowError, NumericRangeError
from qbattery.experiment_cli import load_config
from qbattery.model_builders import (
    PT,
    PT_HERMITIAN,
    RT,
    RT_HERMITIAN,
    BROKEN_COMPLEX,
    UNBROKEN_REAL,
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_charger,
    build_noninteracting_battery,
    build_pt_charger,
    build_pt_hermitian_charger,
    build_rt_charger,
    classify_phase,
    normalize_spectrum,
)
from qbattery.state_prep import QuantumState, ground_state, thermal_state
from qbattery.tensor_core import Operator, Terms, from_terms

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def xx_battery(j=1.0, h=1.0, n=2, boundary="periodic"):
    return normalize_spectrum(
        build_battery_xyz(
            BatterySpec(J=j, gamma=0.0, delta=0.0, h=h, n_sites=n, boundary=boundary)
        )
    )


def pt_pair(alpha, n=2):
    return (
        ChargerSpec(kind=PT, n_sites=n, alpha=alpha),
        ChargerSpec(kind=PT_HERMITIAN, n_sites=n, alpha=alpha),
    )


def rt_pair(gamma_prime, h_prime, n=2):
    return (
        ChargerSpec(kind=RT, n_sites=n, gamma_prime=gamma_prime, J=1.0, h_prime=h_prime),
        ChargerSpec(
            kind=RT_HERMITIAN, n_sites=n, gamma_prime=gamma_prime, J=1.0, h_prime=h_prime
        ),
    )


# --- evolve_normalized ---------------------------------------------------------


def test_evolve_time_zero_identity():
    psi = ground_state(xx_battery())
    out = evolve_normalized(build_pt_charger(np.pi / 3, 2), psi, 0.0)
    assert np.max(np.abs(out.data - psi.data)) < 1e-14


def test_evolve_hermitian_preserves_norm_before_renormalization():
    psi = ground_state(xx_battery())
    charger = build_pt_hermitian_charger(np.pi / 3, 2)
    k = expm_array(-1j * 2.5 * charger.matrix)
    phi = k @ psi.data
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-10


def test_evolve_matches_two_site_closed_form_state():
    psi = ground_state(xx_battery())
    charger = build_pt_charger(np.pi / 3, 2)
    got = evolve_normalized(charger, psi, 1.0)
    want = oracles.pt_state_n2(np.pi / 3, 1.0)
    overlap = abs(np.vdot(want, got.data))
    assert abs(1.0 - overlap) < 1e-8


def test_evolve_density_matches_pure_projection():
    psi = ground_state(xx_battery())
    rho0 = QuantumState.density(np.outer(psi.data, psi.data.conj()))
    charger = build_pt_charger(np.pi / 3, 2)
    pure = evolve_normalized(charger, psi, 1.7)
    dens = evolve_normalized(charger, rho0, 1.7)
    proj = np.outer(pure.data, pure.data.conj())
    assert np.max(np.abs(dens.data - proj)) < 1e-12


def test_evolve_normalization_underflow():
    decaying = Operator(-5.0j * np.eye(2), n_sites=1)
    psi = QuantumState.pure(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(NormalizationUnderflowError):
        evolve_normalized(decaying, psi, 200.0)


def test_evolve_product_overflow_raises_numeric_range():
    growing = from_terms(Terms(2, 5.0j * np.eye(2), range(2)))
    psi = QuantumState.pure(np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(NumericRangeError):
        evolve_normalized(growing, psi, 200.0)


@pytest.mark.parametrize("t", [np.nan, np.inf])
@pytest.mark.parametrize("kernel", ["product", "dense"])
def test_non_finite_times_rejected(kernel, t):
    battery = xx_battery()
    psi = ground_state(battery)
    charger = build_pt_charger(0.3, 2) if kernel == "product" else rt_charger(*BROKEN, 2)
    assert (charger.site_term is not None) == (kernel == "product")
    with pytest.raises(ValueError, match=f"t must be finite and >= 0, got {t}"):
        evolve_normalized(charger, psi, t)
    with pytest.raises(ValueError, match=f"times must be finite, got {t}"):
        work_and_ergotropy(battery, charger, psi, [0.5, t, 1.0])


def test_non_psd_density_rejected_at_first_use():
    # trace one, Hermitian, but two negative eigenvalues: not a state
    rho = QuantumState.density(np.diag([1.5, 0.2, -0.2, -0.5]).astype(complex))
    battery = normalize_spectrum(build_noninteracting_battery(2))
    charger = build_charger(rt_pair(0.8, 0.5)[0])
    with pytest.raises(ValueError, match=r"negative eigenvalue -5\.000e-01"):
        power_trace(battery, charger, rho, t_max=10.0, n_grid=64)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        evolve_normalized(build_pt_charger(0.3, 2), rho, 1.0)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        ergotropy(battery, rho)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(2, 4),
    c_re=st.floats(-3.0, 3.0),
    c_im=st.floats(-1.0, 1.0),
    thermal=st.booleans(),
    kernel=st.sampled_from(["product", "dense"]),
)
@example(n=4, c_re=2.5, c_im=-0.8, thermal=True, kernel="product")
@example(n=4, c_re=2.5, c_im=-0.8, thermal=True, kernel="dense")
def test_normalized_state_invariant_under_complex_energy_shift(n, c_re, c_im, thermal, kernel):
    # H -> H + cI multiplies K(t) by the scalar exp(-i c t), which the
    # normalization removes; the worst difference seen is 6e-16.
    c = complex(c_re, c_im)
    battery = xx_battery(n=n, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    if kernel == "product":
        charger = build_pt_charger(np.pi / 3, n)
        shifted = from_terms(Terms(n, charger.site_term + (c / n) * np.eye(2), range(n)))
    else:
        charger = rt_charger(*BROKEN, n)
        shifted = Operator(charger.matrix + c * np.eye(2**n), n_sites=n)
    assert (shifted.site_term is not None) == (kernel == "product")
    worst = max(
        np.max(np.abs(
            evolve_normalized(shifted, rho0, t).density_matrix()
            - evolve_normalized(charger, rho0, t).density_matrix()
        ))
        for t in (0.3, 1.7, 5.0)
    )
    assert worst <= 1e-10, worst


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    n=st.integers(2, 5),
    kernel=st.sampled_from(["product", "dense"]),
    beta=st.none() | st.floats(0.1, 5.0),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
@example(n=5, kernel="product", beta=1.0, a=0.5, b=0.0)  # exceptional point
@example(n=4, kernel="dense", beta=1.0, a=0.6, b=0.1)  # broken phase
def test_evolved_states_are_density_matrices(n, kernel, beta, a, b):
    # Along a trace every normalized state has unit trace, is Hermitian and
    # is positive semidefinite, on the product (PT, alpha = pi a) and the
    # dense (RT, gamma' = 2 a, h' = 2 b) kernels alike.
    battery = xx_battery(n=n, boundary="open")
    rho0 = ground_state(battery) if beta is None else thermal_state(battery, beta)
    if kernel == "product":
        charger = build_pt_charger(np.pi * a, n)
    else:
        charger = rt_charger(2.0 * a, 2.0 * b, n)
    assert (charger.site_term is not None) == (kernel == "product")
    for t in 10.0 * np.arange(9) / 8:
        rho = evolve_normalized(charger, rho0, t).density_matrix()
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12


# --- per-site product propagator ---------------------------------------------------


@pytest.mark.parametrize(
    "h",
    [
        SX + 1j * np.sin(0.7) * SZ,
        SX + np.sin(0.7) * SZ,
        SX + 1j * SZ,
        np.array([[0.3 + 0.2j, 1.1 - 0.4j], [-0.7j, -1.2 + 0.5j]]),
    ],
)
def test_site_propagators_match_pade(h):
    times = np.array([0.0, 0.3, 2.0, 7.5])
    c, s, h0 = _site_expansion(h, times)
    for ck, sk, t in zip(c, s, times):
        k = ck * np.eye(2) + sk * h0
        want = expm_array(-1j * t * h)
        assert np.max(np.abs(k - want)) < 1e-14 * max(1.0, np.max(np.abs(want)))


def test_site_propagators_exact_at_exceptional_point():
    h = SX + 1j * SZ
    times = np.array([0.5, 10.0, 1e3])
    c, s, h0 = _site_expansion(h, times)
    got = c[:, None, None] * np.eye(2) + s[:, None, None] * h0
    want = np.eye(2) - 1j * times[:, None, None] * h
    assert np.array_equal(got, want)


@pytest.mark.parametrize("mixed", [False, True])
def test_product_kernel_general_site_term(mixed):
    # a term that is neither symmetric, traceless nor Hermitian, so a
    # transposed contraction or a dropped phase would show
    h = np.array([[0.3 + 0.2j, 1.1 - 0.4j], [-0.7j, -1.2 + 0.5j]])
    charger = from_terms(Terms(3, h, range(3)))
    plain = Operator(charger.matrix, n_sites=3)
    rng = np.random.default_rng(7)
    if mixed:
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho0 = QuantumState.density(a @ a.conj().T)
    else:
        rho0 = QuantumState.pure(rng.normal(size=8) + 1j * rng.normal(size=8))
    for t in (0.4, 1.3):
        fast = evolve_normalized(charger, rho0, t).data
        dense = evolve_normalized(plain, rho0, t).data
        assert np.max(np.abs(fast - dense)) < 1e-12


_GENERAL_TERM = np.array([[0.3 + 0.2j, 1.1 - 0.4j], [-0.7j, -1.2 + 0.5j]])


def _kernel_states(term, n, w, times):
    """The unnormalized product-kernel states at ``times``, all chunks joined."""
    chunks = battery_dynamics._product_kernel(term, n, w, times)
    return np.concatenate([states for _, states in chunks])


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("r", [1, 3])
def test_product_kernel_matches_kron_of_site_exponentials(n, r):
    # The general term has a trace, is not symmetric and not Hermitian, so
    # swapped c and s powers, a transposed h0, a phase dropped from s alone
    # or a skipped site would each show.
    rng = np.random.default_rng(n)
    w = rng.normal(size=(2**n, r)) + 1j * rng.normal(size=(2**n, r))
    times = np.array([0.4, 1.3, 3.0])
    got = _kernel_states(_GENERAL_TERM, n, w, times)
    for states, t in zip(got, times):
        want = reduce(np.kron, [expm_array(-1j * t * _GENERAL_TERM)] * n) @ w
        assert np.max(np.abs(states - want)) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("t", [0.5, 10.0, 1000.0])
@pytest.mark.parametrize("thermal", [False, True])
def test_product_kernel_at_exceptional_point_matches_mpmath(t, thermal):
    # alpha = pi/2: the site term is defective, k(t) = I - i t h, and the
    # norm of K(t) W grows like t^N; the reference exponentiates the full
    # 16 x 16 charger at 50 digits.
    mpmath = pytest.importorskip("mpmath")
    n = 4
    charger = build_pt_charger(np.pi / 2, n)
    if thermal:
        rho0 = thermal_state(xx_battery(n=n, boundary="open"), beta=1.0)
    else:
        rng = np.random.default_rng(11)
        rho0 = QuantumState.pure(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
    ((_, got),) = battery_dynamics._evolve(charger, rho0, np.array([t]))
    with mpmath.workdps(50):
        k = mpmath.expm(mpmath.matrix(charger.matrix.tolist()) * mpmath.mpc(0, -t))
        x = k * mpmath.matrix(rho0.factor.tolist())
        want = np.array((x / mpmath.mnorm(x, "f")).tolist(), dtype=complex)
    assert np.max(np.abs(got[0] - want)) <= 1e-14


@pytest.mark.parametrize("thermal", [False, True])
def test_product_kernel_chunking_leaves_states_unchanged(monkeypatch, thermal):
    battery = xx_battery(n=4, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    charger = build_pt_charger(1.1, 4)
    times = 10.0 * np.arange(1, 49) / 48
    whole = work_and_ergotropy(battery, charger, rho0, times)
    # the site vectors Phi_j are built once; each chunk of one (Gibbs) or
    # four (pure) times reads them
    monkeypatch.setattr(battery_dynamics, "_CHUNK_ELEMS", 64)
    chunked = work_and_ergotropy(battery, charger, rho0, times)
    for got, want in zip(chunked, whole):
        assert np.max(np.abs(got - want)) <= 1e-14


def _reference_traces(battery, rho0, times, propagator):
    """Work and ergotropy with the dense propagator ``propagator(t)`` built
    separately at each time and applied directly to rho0."""
    h = battery.matrix
    levels = np.linalg.eigvalsh(h)
    if rho0.is_pure:
        e_init = np.real(np.vdot(rho0.data, h @ rho0.data))
    else:
        e_init = np.real(np.trace(h @ rho0.data))
    work_vals, ergo_vals = [], []
    for t in times:
        k = propagator(t)
        if rho0.is_pure:
            phi = k @ rho0.data
            phi /= np.linalg.norm(phi)
            energy = np.real(np.vdot(phi, h @ phi))
            passive = levels[0]
        else:
            sig = k @ rho0.data @ k.conj().T
            sig /= np.real(np.trace(sig))
            energy = np.real(np.trace(h @ sig))
            passive = np.dot(np.linalg.eigvalsh(sig)[::-1], levels)
        work_vals.append(energy - e_init)
        ergo_vals.append(energy - passive)
    return np.array(work_vals), np.array(ergo_vals)


def _kron_traces(battery, term, rho0, times):
    """Reference traces from kron(k, ..., k), each 2x2 factor
    k = exp(-i t term) from the dense exponential."""
    n = battery.n_sites
    return _reference_traces(
        battery, rho0, times, lambda t: reduce(np.kron, [expm_array(-1j * t * term)] * n)
    )


def _per_time_traces(battery, charger, rho0, times):
    """Reference traces from one full-matrix dense exponential per time."""
    return _reference_traces(
        battery, rho0, times, lambda t: expm_array(-1j * t * charger.matrix)
    )


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(2, 6),
    alpha=st.floats(0.0, np.pi),
    twin=st.booleans(),
    thermal=st.booleans(),
)
@example(n=6, alpha=0.0, twin=False, thermal=False)
@example(n=6, alpha=np.pi / 2, twin=False, thermal=False)
@example(n=6, alpha=np.pi / 2, twin=False, thermal=True)
@example(n=6, alpha=np.pi / 2, twin=True, thermal=True)
@example(n=6, alpha=np.pi, twin=False, thermal=True)
def test_product_kernel_matches_dense(n, alpha, twin, thermal):
    # P_max is compared with the dense path on the full 2^N matrix.  The
    # traces are compared with dense kron products of exact 2x2 factors: the
    # full-matrix dense path loses up to ~1e-6 late in the window where the
    # unnormalized norm has grown and shrunk again (N = 6, alpha = 1.3,
    # t = 10, against a 50-digit reference), so it cannot referee them.
    battery = xx_battery(n=n, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    charger = (build_pt_hermitian_charger if twin else build_pt_charger)(alpha, n)
    plain = Operator(charger.matrix, n_sites=n)
    fast = power_trace(battery, charger, rho0, 10.0, 64)
    dense = power_trace(battery, plain, rho0, 10.0, 64)
    assert abs(fast.p_max - dense.p_max) <= 1e-10
    work_ref, ergo_ref = _kron_traces(battery, charger.site_term, rho0, fast.times)
    assert np.max(np.abs(fast.work - work_ref)) <= 1e-10
    _, ergo = work_and_ergotropy(battery, charger, rho0, fast.times)
    assert np.max(np.abs(ergo - ergo_ref)) <= 1e-10


# --- dense chain ------------------------------------------------------------------

UNBROKEN, BROKEN = (0.3, 1.5), (1.2, 0.2)  # RT (gamma', h') at N = 2, 4, 6


def rt_charger(gamma_prime, h_prime, n, kind=RT):
    return build_rt_charger(
        ChargerSpec(kind=kind, n_sites=n, gamma_prime=gamma_prime, J=1.0, h_prime=h_prime)
    )


def test_grid_split_arithmetic_progression():
    # Every power_trace grid is chained: its spacing is found, and it starts
    # at dt, so K(t0) is the step P itself.
    for t_max in (0.2, 1.0, 6.0, 10.0, 200.0, 1000.0):
        for n_grid in (16, 64, 400, 600, 800, 2000):
            times = t_max * np.arange(1, n_grid + 1) / n_grid
            dt = _grid_step(times)
            assert dt is not None and abs(times[0] - dt) <= 8 * np.finfo(float).eps * t_max
            k = np.arange(times.size)
            assert np.max(np.abs(times[0] + k * dt - times)) <= 1e-15 * max(1.0, t_max)


@pytest.mark.parametrize(
    "times, want",
    [([2.5], 2.5), ([0.3, 1.1, 1.2, 4.0, 9.5], None), ([3.0, 2.0, 1.0], None), ([1.0] * 3, None)],
    ids=["single", "irregular", "decreasing", "constant"],
)
def test_grid_split_other_times_one_anchor_each(times, want):
    # a single time t is the one-point grid K(t) W0; the others have no
    # spacing, and are all read off one walk of Taylor pieces from t = 0
    assert _grid_step(np.array(times)) == want


@pytest.mark.parametrize("n", [2, 4, 6])
def test_rt_test_points_sit_in_their_phases(n):
    assert classify_phase(rt_charger(*UNBROKEN, n)) == UNBROKEN_REAL
    assert classify_phase(rt_charger(*BROKEN, n)) == BROKEN_COMPLEX


def _assert_matches_per_time(battery, charger, rho0, times):
    work_vals, ergo_vals = work_and_ergotropy(battery, charger, rho0, times)
    work_ref, ergo_ref = _per_time_traces(battery, charger, rho0, times)
    assert np.max(np.abs(work_vals - work_ref)) <= 1e-12
    assert np.max(np.abs(ergo_vals - ergo_ref)) <= 1e-12


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("thermal", [False, True])
@pytest.mark.parametrize("params", [UNBROKEN, BROKEN], ids=["unbroken", "broken"])
def test_grid_kernel_matches_per_time_pade(n, thermal, params):
    battery = xx_battery(n=n, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    times = 10.0 * np.arange(1, 49) / 48
    _assert_matches_per_time(battery, rt_charger(*params, n), rho0, times)


@pytest.mark.parametrize("thermal", [False, True])
@pytest.mark.parametrize(
    "times",
    [
        np.linspace(0.37, 10.0, 97),
        np.array([6.1]),
        np.array([0.3, 1.1, 1.2, 4.0, 9.5]),
        np.array([4.0, 0.3, 9.5, 1.1, 1.1, 0.0]),
    ],
    ids=["linspace", "single", "irregular", "unsorted"],
)
def test_grid_kernel_time_arrays_match_per_time_pade(times, thermal):
    battery = xx_battery(n=4, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    _assert_matches_per_time(battery, rt_charger(*BROKEN, 4), rho0, times)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("params", [UNBROKEN, BROKEN], ids=["unbroken", "broken"])
def test_grid_kernel_p_max_matches_per_time_pade(n, params):
    battery = xx_battery(n=n, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*params, n)
    grid = power_trace(battery, charger, psi, 10.0, 200)
    # a dense exponential per grid time and per refinement point
    work_ref, _ = _per_time_traces(battery, charger, psi, grid.times)
    _, p_max = _pade_refined(battery, charger, psi, grid.times, work_ref / grid.times)
    assert abs(grid.p_max - p_max) <= 1e-12
    assert np.max(np.abs(grid.work - work_ref)) <= 1e-12


@pytest.mark.parametrize("thermal", [False, True])
def test_grid_kernel_chunking_leaves_states_unchanged(monkeypatch, thermal):
    battery = xx_battery(n=2)
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    charger = rt_charger(*BROKEN, 2)
    times = 10.0 * np.arange(1, 49) / 48
    whole = work_and_ergotropy(battery, charger, rho0, times)
    # the chain runs on across chunks of one or two anchor blocks
    monkeypatch.setattr(battery_dynamics, "_CHUNK_ELEMS", 64)
    chunked = work_and_ergotropy(battery, charger, rho0, times)
    for got, want in zip(chunked, whole):
        assert np.max(np.abs(got - want)) <= 1e-14


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(2, 4),
    gamma_prime=st.floats(0.0, 2.0),
    h_prime=st.floats(0.0, 2.0),
    hermitian=st.booleans(),
    thermal=st.booleans(),
)
@example(n=4, gamma_prime=1.2, h_prime=0.2, hermitian=False, thermal=True)
def test_grid_kernel_matches_per_time_property(n, gamma_prime, h_prime, hermitian, thermal):
    battery = xx_battery(n=n, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    charger = rt_charger(gamma_prime, h_prime, n, RT_HERMITIAN if hermitian else RT)
    _assert_matches_per_time(battery, charger, rho0, 10.0 * np.arange(1, 65) / 64)


@pytest.mark.parametrize("alpha", [1.3, 2.0, np.pi / 2])
def test_grid_kernel_no_less_accurate_than_per_time_pade(alpha):
    # A PT charger given as a plain matrix runs on the dense grid, and its
    # per-site product form is exact to ~1e-15.  Both dense paths carry the
    # conditioning error of a non-normal propagator whose norm grows and
    # shrinks again (~1e-6 late in the window).  On the 800-point grid of the sweeps the
    # grid's largest error must not exceed the per-time one; on some other
    # grids either path can be the worse one at that level.
    battery = xx_battery(n=6, boundary="open")
    psi = ground_state(battery)
    charger = build_pt_charger(alpha, 6)
    plain = Operator(charger.matrix, n_sites=6)
    times = 10.0 * np.arange(1, 801) / 800
    exact, _ = work_and_ergotropy(battery, charger, psi, times)
    grid, _ = work_and_ergotropy(battery, plain, psi, times)
    per_time, _ = _per_time_traces(battery, plain, psi, times)
    assert np.max(np.abs(grid - exact)) <= np.max(np.abs(per_time - exact))


@pytest.mark.parametrize("alpha", [1.3, 2.0])
def test_dense_chain_floor_case_matches_closed_form(alpha):
    # The same case against the all-N closed form: the chain's short,
    # normalized steps bring the error from ~1.5e-6 (every state built from
    # t = 0) to 1.9e-9 at alpha = 1.3 and 4.0e-9 at 2.0.  With Q = K(29 dt),
    # whose three squarings every later block carried, it read 4.1e-9 and
    # 9.8e-9; the block length is now capped so that Q needs no squaring.
    battery = xx_battery(n=6, boundary="open")
    psi = ground_state(battery)
    plain = Operator(build_pt_charger(alpha, 6).matrix, n_sites=6)
    times = 10.0 * np.arange(1, 801) / 800
    got, _ = work_and_ergotropy(battery, plain, psi, times)
    want = np.array([oracles.pt_work_open_xx(6, alpha, t) for t in times])
    assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize(
    "case", ["pt-plain-6", "rt-unbroken-2", "rt-broken-4", "rt-unbroken-6", "rt-broken-6"]
)
def test_chain_exponentials_need_no_squaring(monkeypatch, case):
    # Every exponential the chain builds on the floor-case and the sweeps'
    # RT grids (800 points over t <= 10) has 1-norm <= 1: P = K(dt) and
    # Q = K(c dt) with c capped, so no squaring rounds into later blocks.
    norms = []
    original = battery_dynamics.expm_array

    def recording(a):
        norms.append(float(np.abs(a).sum(axis=0).max()))
        return original(a)

    monkeypatch.setattr(battery_dynamics, "expm_array", recording)
    family, phase, n = case.split("-")
    n = int(n)
    if family == "pt":
        charger = Operator(build_pt_charger(2.0, n).matrix, n_sites=n)
    else:
        charger = rt_charger(*(UNBROKEN if phase == "unbroken" else BROKEN), n)
    battery = xx_battery(n=n, boundary="open")
    work_and_ergotropy(battery, charger, ground_state(battery), 10.0 * np.arange(1, 801) / 800)
    assert len(norms) == 2 and max(norms) <= 1.0


def _mp_work_every(battery, charger, psi, delta, count):
    """Work at delta, 2 delta, ..., count delta from one 50-digit mpmath
    exponential K(delta), applied again and again and renormalized."""
    mpmath = pytest.importorskip("mpmath")
    h = battery.matrix
    e_init = np.vdot(psi.data, h @ psi.data).real
    out = []
    with mpmath.workdps(50):
        k = mpmath.expm(mpmath.matrix(charger.matrix.tolist()) * mpmath.mpc(0, -delta))
        x = mpmath.matrix(psi.data.tolist())
        for _ in range(count):
            x = k * x
            x = x / mpmath.norm(x)
            v = np.array(x.tolist(), dtype=complex).ravel()
            out.append(np.vdot(v, h @ v).real - e_init)
    return np.array(out)


@pytest.mark.parametrize(
    "n, params",
    [(2, UNBROKEN), (4, UNBROKEN), (2, BROKEN), (4, BROKEN), (6, BROKEN), (8, BROKEN)],
    ids=["unbroken-2", "unbroken-4", "broken-2", "broken-4", "broken-6", "broken-8"],
)
def test_rt_power_trace_finite_at_long_windows(n, params):
    # The broken phase used to overflow at t_max 300-1000; chained steps
    # renormalize as they go.  For N <= 4 the work at t = 100, 200, ...,
    # 1000 is checked against 50 digits (worst seen 3.5e-14, N = 4 broken).
    battery = xx_battery(n=n, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*params, n)
    trace = power_trace(battery, charger, psi, 1000.0, 800)
    _, ergo = work_and_ergotropy(battery, charger, psi, trace.times)
    for values in (trace.work, trace.power, ergo):
        assert np.all(np.isfinite(values))
    assert math.isfinite(trace.p_max) and 0 < trace.t_star <= 1000.0
    if n <= 4:
        want = _mp_work_every(battery, charger, psi, 100.0, 10)
        assert np.max(np.abs(trace.work[79::80] - want)) <= 1e-12


def test_irregular_times_finite_in_long_broken_windows():
    # One walk of renormalized Taylor pieces over [0, 1000]: each piece grows
    # by at most e, where a step across the whole 700-wide gap overflowed.
    battery = xx_battery(n=4, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*BROKEN, 4)
    times = np.array([700.0, 100.0, 1000.0, 300.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ergo = work_and_ergotropy(battery, charger, psi, times)
    want = _mp_work_every(battery, charger, psi, 100.0, 10)
    assert np.max(np.abs(got - want[[6, 0, 9, 2]])) <= 1e-12
    assert np.all(np.isfinite(ergo))


def test_largest_time_at_a_rounded_piece_end_lands_in_the_last_piece():
    battery = xx_battery(n=4, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*BROKEN, 4)
    times = np.array([0.3, 1.842, 1.1, 0.0])
    _, nu = battery_dynamics._generator(charger.matrix)
    s, w = battery_dynamics._split(nu, 0.0, 1.842)
    assert (s - 1) * w + w < 1.842  # the walk's last piece ends just short of t = 1.842
    yielded = [np.arange(4)[index] for index, _ in battery_dynamics._evolve(charger, psi, times)]
    assert sorted(np.concatenate(yielded)) == [0, 1, 2, 3]
    _assert_matches_per_time(battery, charger, psi, times)


# --- work -----------------------------------------------------------------------


def test_work_identical_states_is_zero():
    h = xx_battery()
    psi = ground_state(h)
    assert work(h, psi, psi) == 0.0


def test_work_ground_start_bounds():
    h = xx_battery()
    psi = ground_state(h)
    charger = build_pt_charger(np.pi / 3, 2)
    for t in (0.2, 0.9, 3.3, 8.0):
        w = work(h, psi, evolve_normalized(charger, psi, t))
        e_t = w - 1.0  # tr(H rho_t) for the normalized battery ground start
        assert -1.0 - 1e-12 <= e_t <= 1.0 + 1e-12
        assert -1e-12 <= w <= 2.0 + 1e-12


def test_work_matches_t_times_closed_form_power():
    h = xx_battery()
    psi = ground_state(h)
    charger = build_pt_charger(np.pi / 3, 2)
    t = 1.0
    w = work(h, psi, evolve_normalized(charger, psi, t))
    assert abs(w - t * oracles.pt_power_n2(t, 1.0, 1.0, np.pi / 3)) < 1e-8


def test_work_consistency_error_for_complex_expectation():
    bad = Operator(
        np.array([[0, 1], [1, 0]]) + 1j * np.array([[1, 0], [0, -1]]), n_sites=1
    )
    psi = QuantumState.pure(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ConsistencyError):
        work(bad, psi, psi)


# --- power_trace ------------------------------------------------------------------


def test_power_trace_stationary_when_charger_equals_battery():
    h = xx_battery()
    psi = ground_state(h)
    trace = power_trace(h, h, psi, t_max=5.0, n_grid=64)
    assert np.max(np.abs(trace.work)) < 1e-10
    assert abs(trace.p_max) < 1e-9


def test_power_trace_alpha_zero_chargers_coincide():
    h = xx_battery()
    psi = ground_state(h)
    tr_pt = power_trace(h, build_pt_charger(0.0, 2), psi, t_max=8.0, n_grid=64)
    tr_he = power_trace(h, build_pt_hermitian_charger(0.0, 2), psi, t_max=8.0, n_grid=64)
    assert np.array_equal(tr_pt.power, tr_he.power)
    assert tr_pt.p_max == tr_he.p_max


def _pt_power_ep(ts, h, j):
    """The alpha -> pi/2 limit of the two-site PT power (the exceptional
    point, where ``closed_form_oracles.pt_power_n2`` is singular):
    P(t) = [h (t^4 - (1-t)^4) + J t^2 (1-t)^2] / (h t (t^2 + (1-t)^2)^2) + 1/t."""
    a = (1.0 - ts) ** 2
    b = ts**2
    return (h * (b**2 - a**2) + j * a * b) / (h * ts * (a + b) ** 2) + 1.0 / ts


def test_power_trace_exceptional_point_matches_closed_form_limit():
    battery = xx_battery()
    psi = ground_state(battery)
    trace = power_trace(battery, build_pt_charger(np.pi / 2, 2), psi, 10.0, 2000)
    assert np.max(np.abs(trace.power - _pt_power_ep(trace.times, 1.0, 1.0))) < 1e-10
    dense = np.linspace(1e-5, 10.0, 100000)
    assert abs(trace.p_max - _pt_power_ep(dense, 1.0, 1.0).max()) < 1e-6


def test_power_trace_first_point_work_vanishes():
    battery = xx_battery()
    psi = ground_state(battery)
    trace = power_trace(battery, build_pt_charger(np.pi / 3, 2), psi, t_max=0.2, n_grid=2000)
    assert trace.times[0] == pytest.approx(1e-4)
    assert abs(trace.work[0]) <= 1e-6


def test_power_trace_alpha_reflection_symmetry():
    battery = xx_battery()
    psi = ground_state(battery)
    a = np.pi / 3
    tr1 = power_trace(battery, build_pt_charger(a, 2), psi, 6.0, 64)
    tr2 = power_trace(battery, build_pt_charger(np.pi - a, 2), psi, 6.0, 64)
    # pi - a is exact only up to rounding of pi, so allow float-level slack
    assert np.max(np.abs(tr1.power - tr2.power)) < 1e-10
    assert abs(tr1.p_max - tr2.p_max) < 1e-10


def test_power_trace_density_states_stay_physical():
    battery = xx_battery()
    rho0 = thermal_state(battery, beta=1.0)
    charger = build_pt_charger(np.pi / 3, 2)
    for t in (0.4, 1.9, 6.2):
        rho = evolve_normalized(charger, rho0, t)
        mat = rho.data
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-10
        assert abs(np.trace(mat).real - 1.0) < 1e-10
        assert hermitian_eig(mat, compute_vectors=False).values[0] > -1e-9


def test_power_trace_pure_start_stays_pure():
    battery = xx_battery()
    psi = ground_state(battery)
    out = evolve_normalized(build_pt_charger(np.pi / 2, 2), psi, 3.0)
    assert out.is_pure
    rho = np.outer(out.data, out.data.conj())
    assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10


def test_power_trace_flags_maximum_at_window_edge():
    battery = xx_battery()
    psi = ground_state(battery)
    charger = build_pt_charger(np.pi / 3, 2)
    # P(t) rises from 0 at small t, so a short window ends on the rise
    short = power_trace(battery, charger, psi, t_max=0.2, n_grid=64)
    assert short.t_star_at_edge
    assert int(np.argmax(short.power)) == 63
    full = power_trace(battery, charger, psi, t_max=10.0, n_grid=64)
    assert not full.t_star_at_edge
    assert full.t_star < 10.0


def test_power_trace_input_validation():
    battery = xx_battery()
    psi = ground_state(battery)
    charger = build_pt_charger(0.3, 2)
    with pytest.raises(ValueError):
        power_trace(battery, charger, psi, t_max=0.0, n_grid=64)
    with pytest.raises(ValueError):
        power_trace(battery, charger, psi, t_max=1.0, n_grid=8)


@pytest.mark.parametrize("t_max", [np.nan, np.inf])
def test_power_trace_rejects_non_finite_t_max(t_max):
    battery = xx_battery()
    psi = ground_state(battery)
    with pytest.raises(ValueError, match=f"t_max must be finite and > 0, got {t_max}"):
        power_trace(battery, build_pt_charger(0.3, 2), psi, t_max=t_max, n_grid=64)


# --- golden-section refinement ------------------------------------------------------


def _nu(h_mat):
    return np.sqrt(np.linalg.norm(h_mat, 1) * np.linalg.norm(h_mat, np.inf))


def _mp_evolved(h_mat, delta, states):
    """K = exp(-i H delta) applied to each column block of ``states``, with
    one 50-digit mpmath exponential."""
    mpmath = pytest.importorskip("mpmath")
    out = []
    with mpmath.workdps(50):
        k = mpmath.expm(mpmath.matrix(h_mat.tolist()) * mpmath.mpc(0, -delta))
        for rho in states:
            x = mpmath.matrix(rho.tolist())
            y = k * x
            out.append(np.array(y.tolist(), dtype=complex).reshape(rho.shape))
    return out


def _non_normal_operator(n):
    rng = np.random.default_rng(11)
    d = 2**n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Operator(a / np.sqrt(d), n_sites=n)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["unbroken", "broken", "non_normal"])
def test_taylor_step_matches_mpmath(n, kind):
    # the end state psi(1) = sum_k v[k] of the last piece of a walk over
    # [0, delta], against one 50-digit exponential, both normalized
    if kind == "non_normal":
        charger = _non_normal_operator(n)
    else:
        charger = rt_charger(*(UNBROKEN if kind == "unbroken" else BROKEN), n)
    battery = xx_battery(n=n, boundary="open")
    dt = 10.0 / 600
    # the last walk takes s = ceil(nu delta) = 3 pieces
    deltas = [0.0, 1e-12, dt, 2 * dt, 2.5 / _nu(charger.matrix)]
    states = [ground_state(battery).factor, thermal_state(battery, beta=1.0).factor]
    gen, nu = -1j * charger.matrix, _nu(charger.matrix)
    for delta in deltas:
        for rho, want in zip(states, _mp_evolved(charger.matrix, delta, states)):
            *_, v = battery_dynamics._pieces(gen, nu, rho, 0.0, delta)
            got = v.sum(axis=0)
            got, want = got / np.linalg.norm(got), want / np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-14, (delta, rho.shape)


def test_taylor_step_sizes_follow_the_remainder_bound():
    # every piece of a walk over [0, delta] applies the generator m times,
    # m from the remainder rule at y = nu delta / s
    charger = rt_charger(*BROKEN, 4)
    nu = _nu(charger.matrix)
    x = ground_state(xx_battery(n=4, boundary="open")).factor
    applied = []

    class Gen(np.ndarray):
        def __matmul__(self, other):
            applied.append(1)
            return np.asarray(self) @ other

    gen = (-1j * charger.matrix).view(Gen)
    for delta, s in [(0.0, 1), (0.5 / nu, 1), (2.5 / nu, 3)]:
        applied.clear()
        per_piece = []
        for _ in battery_dynamics._pieces(gen, nu, x, 0.0, delta):
            per_piece.append(len(applied))
            applied.clear()
        y = nu * delta / s
        m = per_piece[0]
        assert per_piece == [m] * s
        bound = lambda m: y ** (m + 1) * np.exp(2 * y) / math.factorial(m + 1)
        assert bound(m) <= 2.0**-53
        assert m == 0 or bound(m - 1) > 2.0**-53


def test_dense_trace_builds_at_most_three_exponentials(monkeypatch):
    battery = xx_battery(n=4, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*BROKEN, 4)
    calls = []
    expm = battery_dynamics.expm_array
    monkeypatch.setattr(battery_dynamics, "expm_array", lambda a: calls.append(1) or expm(a))
    sweep_grid = 10.0 * np.arange(1, 801) / 800
    work_and_ergotropy(battery, charger, psi, sweep_grid)
    assert len(calls) == 2  # P = K(dt) and Q = K(c dt); the grid starts at dt
    calls.clear()
    work_and_ergotropy(battery, charger, psi, np.linspace(0.37, 10.0, 97))
    assert len(calls) == 3  # and K(t0)
    calls.clear()
    work_and_ergotropy(battery, charger, psi, [0.3, 1.1, 4.0])
    assert calls == []  # one walk of Taylor pieces
    evolve_normalized(charger, psi, 2.5)
    assert len(calls) == 1  # a one-point grid: K(t) alone
    # refinement builds none, inside the grid and at its left edge (the
    # fig_thermal_pt row at beta = 0, with the charger as a plain matrix)
    calls.clear()
    trace = power_trace(battery, charger, psi, 10.0, 800)
    assert len(calls) == 2 and int(np.argmax(trace.power)) > 0
    edge_battery = xx_battery(n=2)
    plain = Operator(build_pt_charger(np.pi / 3, 2).matrix, n_sites=2)
    calls.clear()
    trace = power_trace(edge_battery, plain, thermal_state(edge_battery, beta=0.0), 10.0, 800)
    assert len(calls) == 2 and int(np.argmax(trace.power)) == 0


def _per_time_power(battery, charger, rho0):
    """P(t) from one full-matrix dense exponential built at t."""
    h = battery.matrix
    w0 = rho0.factor
    e_init = np.vdot(w0, h @ w0).real

    def power(t):
        w = expm_array(-1j * t * charger.matrix) @ w0
        return (np.vdot(w, h @ w).real / np.vdot(w, w).real - e_init) / t

    return power


def _pade_refined(battery, charger, rho0, times, power):
    """``(t_star, p_max)`` of the grid ``power`` re-refined with a dense
    exponential from t = 0 at every golden-section point, on the same grid
    bracket and with the same tie rule as ``power_trace``."""
    return _refined(_per_time_power(battery, charger, rho0), times, power)


def _refined(power_at, times, power):
    """``(t_star, p_max)`` of the grid ``power`` re-refined with ``power_at``
    at every golden-section point, on ``power_trace``'s grid bracket (from
    1e-12 at the first point) and with its tie rule."""
    k = int(np.argmax(power))
    t_grid, p_grid = float(times[k]), float(power[k])
    lo = float(times[k - 1]) if k >= 1 else min(1e-12, 0.5 * t_grid)
    hi = float(times[min(k + 1, times.size - 1)])
    t_ref, p_ref = battery_dynamics._golden_max(power_at, lo, hi)
    if p_ref > p_grid or (p_ref == p_grid and t_ref < t_grid):
        return t_ref, p_ref
    return t_grid, p_grid


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("kind", [RT, RT_HERMITIAN])
@pytest.mark.parametrize("thermal", [False, True])
@pytest.mark.parametrize("params", [UNBROKEN, BROKEN], ids=["unbroken", "broken"])
def test_refinement_matches_pade_refinement(n, kind, thermal, params):
    battery = xx_battery(n=n, boundary="open")
    rho0 = thermal_state(battery, beta=1.0) if thermal else ground_state(battery)
    charger = rt_charger(*params, n, kind)
    trace = power_trace(battery, charger, rho0, 10.0, 64)
    assert int(np.argmax(trace.power)) > 0
    t_star, p_max = _pade_refined(battery, charger, rho0, trace.times, trace.power)
    assert abs(trace.p_max - p_max) <= 1e-12
    assert abs(trace.t_star - t_star) <= 2e-6


def test_refinement_at_left_edge_matches_pade_refinement():
    # The fig_thermal_pt row at beta = 0: W(t)/t falls from t = 0, so the grid
    # argmax is the first point and the search converges to t ~ 1e-6, where
    # W(t)/t carries ~1e-10 of rounding on either path; that rounding, not
    # the propagator, picks t_star within the last few search widths.
    battery = xx_battery(n=2, boundary="periodic")
    rho0 = thermal_state(battery, beta=0.0)
    charger = build_pt_charger(np.pi / 3, 2)
    trace = power_trace(battery, charger, rho0, 10.0, 800)
    assert int(np.argmax(trace.power)) == 0
    t_star, p_max = _pade_refined(battery, charger, rho0, trace.times, trace.power)
    assert abs(trace.p_max - p_max) <= 1e-9
    assert max(trace.t_star, t_star) <= 1e-5


@pytest.mark.parametrize("alpha", [np.pi / 3, np.pi / 2], ids=["pi/3", "exceptional"])
def test_pt_refinement_matches_closed_form(alpha):
    battery = xx_battery()
    psi = ground_state(battery)
    trace = power_trace(battery, build_pt_charger(alpha, 2), psi, 10.0, 800)
    assert int(np.argmax(trace.power)) > 0
    if alpha == np.pi / 2:
        oracle = lambda t: _pt_power_ep(t, 1.0, 1.0)
    else:
        oracle = lambda t: oracles.pt_power_n2(t, 1.0, 1.0, alpha)
    t_star, p_max = _refined(oracle, trace.times, trace.power)
    assert abs(trace.p_max - p_max) <= 1e-12
    assert abs(trace.t_star - t_star) <= 2e-6


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("alpha", [np.pi / 3, np.pi / 2], ids=["pi/3", "exceptional"])
@pytest.mark.parametrize("twin", [False, True], ids=["pt", "hermitian"])
def test_pt_refinement_matches_pade_refinement(n, alpha, twin):
    battery = xx_battery(n=n, boundary="open")
    psi = ground_state(battery)
    charger = (build_pt_hermitian_charger if twin else build_pt_charger)(alpha, n)
    trace = power_trace(battery, charger, psi, 10.0, 800)
    assert int(np.argmax(trace.power)) > 0
    t_star, p_max = _pade_refined(battery, charger, psi, trace.times, trace.power)
    assert abs(trace.p_max - p_max) <= 1e-12
    assert abs(trace.t_star - t_star) <= 2e-6


@pytest.mark.parametrize("n", [4, 8])
def test_refinement_in_long_broken_windows_matches_pade_refinement(n):
    # t_max 1000 on 800 points puts the grid maximum at the first point, so
    # the bracket is [0, 2.5], which takes several bracket pieces.
    battery = xx_battery(n=n, boundary="open")
    psi = ground_state(battery)
    charger = rt_charger(*BROKEN, n)
    trace = power_trace(battery, charger, psi, 1000.0, 800)
    assert int(np.argmax(trace.power)) == 0
    assert _nu(charger.matrix) * trace.times[1] > 2
    t_star, p_max = _pade_refined(battery, charger, psi, trace.times, trace.power)
    assert abs(trace.p_max - p_max) <= 1e-12
    assert abs(trace.t_star - t_star) <= 2e-6


# (battery, charger, beta of a thermal start or None for the ground state,
# t_max, n_grid)
_REFINEMENT_CASES = {
    "pt-2": lambda: (xx_battery(), build_pt_charger(np.pi / 3, 2), None, 10.0, 2000),
    "rt-4": lambda: (xx_battery(n=4, boundary="open"), rt_charger(*BROKEN, 4), None, 10.0, 800),
    "pt-6-thermal": lambda: (
        xx_battery(n=6, boundary="open"), build_pt_charger(1.2, 6), 1.0, 10.0, 800
    ),
    "left-edge": lambda: (xx_battery(), build_pt_charger(np.pi / 3, 2), 0.0, 10.0, 800),
    "substeps": lambda: (
        normalize_spectrum(build_noninteracting_battery(2)),
        rt_charger(*UNBROKEN, 2),
        None,
        200.0,
        16,
    ),
}


@pytest.mark.parametrize("case", list(_REFINEMENT_CASES))
def test_refinement_evaluates_bracket_polynomials_only(monkeypatch, case):
    # Inside the golden-section search nothing propagates a state: each
    # evaluation reads the Taylor polynomial of its bracket piece, at most
    # ceil(nu (hi - lo)) pieces are built, and each has the degree m of the
    # remainder rule at y = nu w.
    battery, charger, beta, t_max, n_grid = _REFINEMENT_CASES[case]()
    rho0 = ground_state(battery) if beta is None else thermal_state(battery, beta)
    inside, calls, pieces, brackets = [], [], [], []

    def watch(name):
        original = getattr(battery_dynamics, name)

        def watched(*args):
            if inside:
                calls.append(name)
            return original(*args)

        monkeypatch.setattr(battery_dynamics, name, watched)

    for name in ("_product_kernel", "_chain_chunks", "_piece_chunks", "expm_array"):
        watch(name)
    piece = battery_dynamics._bracket_piece
    # the degree m is one less than the number of the piece's Taylor vectors
    monkeypatch.setattr(
        battery_dynamics, "_bracket_piece", lambda *a: pieces.append(len(a[0]) - 1) or piece(*a)
    )
    golden = battery_dynamics._golden_max

    def recorded(f, a, b):
        brackets.append((a, b))
        inside.append(1)
        try:
            return golden(f, a, b)
        finally:
            inside.clear()

    monkeypatch.setattr(battery_dynamics, "_golden_max", recorded)
    trace = power_trace(battery, charger, rho0, t_max, n_grid)
    assert calls == []
    ((lo, hi),) = brackets
    assert (lo == 0.0) == (int(np.argmax(trace.power)) == 0) == (case == "left-edge")
    nu = _nu(charger.matrix)
    n_pieces = math.ceil(nu * (hi - lo))
    assert 1 <= len(pieces) <= n_pieces
    if case == "substeps":
        assert len(pieces) > 1
    y = nu * (hi - lo) / n_pieces
    bound = lambda m: y ** (m + 1) * np.exp(2 * y) / math.factorial(m + 1)
    for m in pieces:
        assert bound(m) <= 2.0**-53 and (m == 0 or bound(m - 1) > 2.0**-53)


@pytest.mark.parametrize("params", [UNBROKEN, BROKEN], ids=["unbroken", "broken"])
def test_refinement_across_many_pieces_matches_rt_oracle(monkeypatch, params):
    # 16 grid points over t_max = 1000 make a 125-wide bracket ([0, 125] in
    # the broken phase), so the search builds dozens of pieces; each starts
    # from the renormalized end state of the one before, which in the broken
    # phase would otherwise have grown by e^(0.57 t).
    battery = normalize_spectrum(build_noninteracting_battery(2))
    psi = ground_state(battery)
    charger = rt_charger(*params, 2)
    seen = []
    golden = battery_dynamics._golden_max

    def recorded(f, a, b):
        return golden(lambda t: seen.append((t, f(t))) or seen[-1][1], a, b)

    monkeypatch.setattr(battery_dynamics, "_golden_max", recorded)
    trace = power_trace(battery, charger, psi, 1000.0, 16)
    k = int(np.argmax(trace.power))
    lo = float(trace.times[k - 1]) if k else 0.0
    assert max(t - lo for t, _ in seen) * _nu(charger.matrix) > 40
    for t, p in seen:
        assert abs(p - oracles.rt_power_n2(t, *params)) <= 1e-12


def test_left_edge_maxima_read_the_limit_at_zero():
    # A maximally mixed start (beta = 0) peaks at t -> 0.  Under the PT
    # charger (fig_thermal_pt) the limit is sqrt(3); under the RT charger
    # and its twin (fig_thermal_rt) it is 0.  Piece 0 of the bracket
    # [0, t_2] divides W(t)/t through by t exactly, so no 0/0 rounding shows.
    t_max, n_grid = _shipped_window("fig_thermal_pt.cfg")
    battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2, boundary="periodic")
    rec = delta_p_max(battery, *pt_pair(np.pi / 3), "thermal", 0.0, t_max, n_grid)
    assert abs(rec.p_max_nonhermitian - math.sqrt(3.0)) <= 1e-12
    t_max, n_grid = _shipped_window("fig_thermal_rt.cfg")
    rec = delta_p_max(4, *rt_pair(0.8, 0.5, 4), "thermal", 0.0, t_max, n_grid)
    assert abs(rec.p_max_nonhermitian) <= 1e-14
    assert abs(rec.p_max_hermitian) <= 1e-14


@pytest.mark.parametrize("params", [UNBROKEN, BROKEN], ids=["unbroken", "broken"])
def test_refinement_with_substeps_matches_rt_oracle(monkeypatch, params):
    # 16 grid points over t_max = 200 make a 25-wide bracket, so the Taylor
    # steps need s > 1 substeps.
    battery = normalize_spectrum(build_noninteracting_battery(2))
    psi = ground_state(battery)
    charger = rt_charger(*params, 2)
    seen = []
    golden = battery_dynamics._golden_max

    def recorded(f, a, b):
        return golden(lambda t: seen.append((t, f(t))) or seen[-1][1], a, b)

    monkeypatch.setattr(battery_dynamics, "_golden_max", recorded)
    trace = power_trace(battery, charger, psi, 200.0, 16)
    k = int(np.argmax(trace.power))
    lo = float(trace.times[k - 1]) if k >= 1 else 1e-12
    assert max(t - lo for t, _ in seen) * _nu(charger.matrix) > 2
    for t, p in seen:
        assert abs(p - oracles.rt_power_n2(t, *params)) <= 1e-12


# --- the paper's size claim -----------------------------------------------------------


def _shipped_window(name):
    config = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", name))
    return config.t_max, config.n_grid


@pytest.mark.parametrize("n", range(2, 13))
def test_rt_advantage_persists_with_chain_length(n):
    t_max, n_grid = _shipped_window("fig_rt_scaling_N.cfg")
    rec = delta_p_max(n, *rt_pair(0.8, 0.5, n), t_max=t_max, n_grid=n_grid)
    assert rec.delta > 0


# --- RT rows in the translation k = 0 block -----------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("gamma_prime,h_prime", [(0.3, 1.5), (1.2, 0.2)])
def test_k0_route_matches_the_dense_route(n, gamma_prime, h_prime):
    # The unbroken (0.3, 1.5) and broken (1.2, 0.2) phases of the RT ring,
    # and its Hermitian twin, from the sigma-x ground state: the prepared
    # blocks against the dense operators of the public builders.
    specs = rt_pair(gamma_prime, h_prime, n)
    h_b0, psi0, chargers = battery_dynamics._prepare(n, specs)
    chargers = list(chargers)
    h_b = normalize_spectrum(build_noninteracting_battery(n))
    psi = ground_state(h_b)
    assert h_b0.k0 and all(c.k0 for c in chargers)
    assert h_b0.dim == psi0.dim == chargers[0].dim < h_b.dim
    for spec, h_charge in zip(specs, chargers):
        dense = power_trace(h_b, build_charger(spec), psi, 10.0, 600)
        block = power_trace(h_b0, h_charge, psi0, 10.0, 600)
        assert abs(block.p_max - dense.p_max) < 1e-13
        assert abs(block.t_star - dense.t_star) < 1e-13
        assert np.max(np.abs(block.work - dense.work)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_pt_chargers_on_the_sigma_x_ground_state_chain_in_the_block(monkeypatch, n):
    # A PT pair on an int battery is taken in the block too.  The block
    # charger has no site term, so it is chained, never run through the
    # per-site product kernel, and it matches the dense battery route.
    specs = pt_pair(np.pi / 3, n)
    dense = delta_p_max(build_noninteracting_battery(n), *specs, t_max=5.0, n_grid=200)

    def refuse(*args):
        raise AssertionError("a block charger reached the product kernel")

    monkeypatch.setattr(battery_dynamics, "_product_kernel", refuse)
    block = delta_p_max(n, *specs, t_max=5.0, n_grid=200)
    assert abs(block.p_max_nonhermitian - dense.p_max_nonhermitian) < 1e-13
    assert abs(block.p_max_hermitian - dense.p_max_hermitian) < 1e-13


def test_k0_route_builds_no_full_matrix(monkeypatch):
    # N = 10: d = 1024, so one d x d complex matrix is 16.8 MB.
    t_max, n_grid = _shipped_window("fig_rt_scaling_N.cfg")
    specs = rt_pair(0.8, 0.5, 10)
    tracemalloc.start()
    try:
        rec = delta_p_max(10, *specs, t_max=t_max, n_grid=n_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.delta > 0
    assert peak < 16 * 1024**2

    def refuse(terms):
        raise AssertionError(f"dense assembly on {terms.n} sites")

    monkeypatch.setattr(tensor_core, "_assemble", refuse)
    assert delta_p_max(4, *rt_pair(0.8, 0.5, 4), t_max=5.0, n_grid=64).delta > 0


def test_only_ground_state_rows_on_the_sigma_x_battery_take_the_k0_route(monkeypatch):
    # Gibbs rows, PT rows and explicit operators stay dense; a ground-state
    # row on an int battery takes the block of its battery and both chargers.
    seen = []
    original = tensor_core.k0_block
    monkeypatch.setattr(tensor_core, "k0_block", lambda t: seen.append(t.n) or original(t))
    delta_p_max(3, *rt_pair(0.8, 0.5, 3), init="thermal", beta=1.0, t_max=5.0, n_grid=64)
    delta_p_max(build_noninteracting_battery(3), *rt_pair(0.8, 0.5, 3), t_max=5.0, n_grid=64)
    battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=3)
    delta_p_max(battery, *pt_pair(np.pi / 3, n=3), t_max=5.0, n_grid=64)
    assert seen == []
    delta_p_max(3, *rt_pair(0.8, 0.5, 3), t_max=5.0, n_grid=64)
    assert seen == [3, 3, 3]


@pytest.mark.parametrize("n", range(2, 9))
def test_pt_advantage_persists_with_chain_length(n):
    t_max, n_grid = _shipped_window("fig_scaling_N.cfg")
    battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=n, boundary="open")
    rec = delta_p_max(battery, *pt_pair(np.pi / 3, n), t_max=t_max, n_grid=n_grid)
    assert rec.delta > 0


# --- ergotropy ---------------------------------------------------------------------


def test_ergotropy_passive_states():
    battery = xx_battery()
    psi = ground_state(battery)
    assert abs(ergotropy(battery, psi)) < 1e-12
    mixed = QuantumState.density(np.eye(4, dtype=complex) / 4.0)
    assert abs(ergotropy(battery, mixed)) < 1e-12


def test_ergotropy_equals_work_for_pure_ground_starts():
    battery = xx_battery()
    psi = ground_state(battery)
    charger = build_pt_charger(np.pi / 3, 2)
    trace = power_trace(battery, charger, psi, t_max=10.0, n_grid=128)
    _, ergo = work_and_ergotropy(battery, charger, psi, trace.times)
    assert np.max(np.abs(ergo - trace.work)) < 1e-10


@pytest.mark.parametrize("kind", ["pt", "rt"])
def test_pure_state_through_density_path(kind):
    # The pure-state ergotropy is energy minus E_0, the same expression as the
    # work from the ground state; the density-matrix path pairs populations
    # with levels instead, so agreement is a real check of both.
    if kind == "pt":
        battery = xx_battery(n=4, boundary="open")
        charger = build_pt_charger(2 * np.pi / 3, 4)
    else:
        battery = normalize_spectrum(build_noninteracting_battery(4))
        charger = build_charger(rt_pair(0.1, 1.5, n=4)[0])
    assert (charger.site_term is not None) == (kind == "pt")
    psi = ground_state(battery)
    rho0 = QuantumState.density(np.outer(psi.data, psi.data.conj()))
    pure = power_trace(battery, charger, psi, 10.0, 200)
    mixed = power_trace(battery, charger, rho0, 10.0, 200)
    assert np.max(np.abs(mixed.work - pure.work)) < 1e-10
    _, ergo_pure = work_and_ergotropy(battery, charger, psi, pure.times)
    _, ergo_mixed = work_and_ergotropy(battery, charger, rho0, mixed.times)
    assert np.max(np.abs(ergo_mixed - ergo_pure)) < 1e-10
    assert np.max(np.abs(ergo_mixed - mixed.work)) < 1e-10
    assert abs(mixed.p_max - pure.p_max) < 1e-10


def test_work_and_ergotropy_validation():
    battery = xx_battery()
    psi = ground_state(battery)
    charger = build_pt_charger(0.3, 2)
    with pytest.raises(ValueError):
        work_and_ergotropy(battery, charger, psi, [0.5, -1.0])
    with pytest.raises(ValueError):
        work_and_ergotropy(battery, build_pt_charger(0.3, 3), psi, [0.5])


def test_ergotropy_thermal_start_nonnegative_and_below_work_gain():
    battery = xx_battery()
    rho0 = thermal_state(battery, beta=2.0)
    charger = build_pt_charger(np.pi / 3, 2)
    rho_t = evolve_normalized(charger, rho0, 1.2)
    e = ergotropy(battery, rho_t)
    assert e >= -1e-10
    # mixed-state extractable energy never exceeds energy above the ground level
    energy = float(np.real(np.trace(battery.matrix @ rho_t.data)))
    assert e <= energy + 1.0 + 1e-10


# --- delta_p_max -----------------------------------------------------------------


def test_delta_zero_for_identical_chargers():
    nh, h = pt_pair(0.0)
    rec = delta_p_max(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2), nh, h, n_grid=64)
    assert rec.delta == 0.0
    assert rec.delta == rec.p_max_nonhermitian - rec.p_max_hermitian


@pytest.mark.parametrize("j", [-1.5, 0.0, 1.5])
def test_delta_positive_for_pt_charging(j):
    nh, h = pt_pair(np.pi / 3)
    rec = delta_p_max(
        BatterySpec(J=j, gamma=0.0, delta=0.0, h=1.0, n_sites=2), nh, h, n_grid=400
    )
    assert rec.delta > 0.0


def test_delta_rt_sign_flips_with_field():
    nh, h = rt_pair(0.5, 0.5)
    assert delta_p_max(2, nh, h, n_grid=400).delta > 0.0
    nh, h = rt_pair(0.5, 1.5)
    assert delta_p_max(2, nh, h, n_grid=400).delta < 0.0


def _battery_eig_calls(monkeypatch, batteries):
    """Record, as ``(index into batteries, kind)``, every reduction of one of
    ``batteries`` (kind ``"values"``) and every vector form computed from it:
    ``"ground"``, the inverse iteration, or ``"vectors"``, the full-vector
    QL.  Both ``Operator.spectrum`` and ``hermitian_eig`` build their
    spectrum from ``dense_linalg.HermitianSpectrum``, so every path is seen.
    A spectrum mapped by ``_affine`` reduces nothing and records nothing
    itself: its vector forms are read from, and recorded by, the spectrum
    that was reduced."""
    calls = []

    class Counted(dense_linalg.HermitianSpectrum):
        def __init__(self, m):
            super().__init__(m)
            a = getattr(m, "matrix", m)
            self.index = next(
                (i for i, b in enumerate(batteries) if a.shape == b.shape and np.array_equal(a, b)),
                None,
            )
            self._record("values")

        def _record(self, kind):
            if getattr(self, "index", None) is not None:
                calls.append((self.index, kind))

        @functools.cached_property
        def ground(self):
            self._record("ground")
            return super().ground

        @functools.cached_property
        def vectors(self):
            self._record("vectors")
            return super().vectors

    monkeypatch.setattr(dense_linalg, "HermitianSpectrum", Counted)
    return calls


@pytest.mark.parametrize("row", ["pt_ground", "rt_thermal"])
def test_delta_row_diagonalizes_its_battery_once(monkeypatch, row):
    # A row reduces the raw battery once, for its values (normalization).
    # The normalized battery maps that reduction and takes from it the one
    # vector form its state needs: the ground vector alone for a pure state,
    # all vectors for a Gibbs state.  Both traces reuse that.  The sigma-x
    # battery of an RT row takes its spectrum from its site term instead:
    # no reduction and no QL pass at all.
    if row == "pt_ground":
        battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=4, boundary="open")
        raw = build_battery_xyz(battery)
        chargers, kwargs = pt_pair(np.pi / 3, n=4), {}
        state_kind = "ground"
    else:
        battery = 3
        raw = build_noninteracting_battery(3)
        chargers, kwargs = rt_pair(0.8, 0.5, n=3), {"init": "thermal", "beta": 1.0}
    calls = _battery_eig_calls(monkeypatch, [raw.matrix, normalize_spectrum(raw).matrix])
    reductions, passes = _reductions(monkeypatch), _ql_passes(monkeypatch)
    delta_p_max(battery, *chargers, t_max=5.0, n_grid=64, **kwargs)
    if row == "pt_ground":
        assert calls == [(0, "values"), (0, state_kind)]
    else:
        assert calls == [] and reductions == [] and passes == []


def _reductions(monkeypatch):
    """Record the dimension of every Householder reduction, of any matrix."""
    original = dense_linalg._tridiagonalize
    sizes = []

    def counted(a, fro, blocks):
        sizes.append(a.shape[0])
        return original(a, fro, blocks)

    monkeypatch.setattr(dense_linalg, "_tridiagonalize", counted)
    return sizes


def _ql_passes(monkeypatch):
    """Record, per call of the QL iteration, whether it accumulates vectors."""
    original = dense_linalg._ql_implicit
    passes = []

    def counted(diag, off, q, off_tol):
        passes.append(q is not None)
        return original(diag, off, q, off_tol)

    monkeypatch.setattr(dense_linalg, "_ql_implicit", counted)
    return passes


@pytest.mark.parametrize("family", [PT, RT])
def test_pure_state_traces_never_reach_the_full_vector_ql(monkeypatch, family):
    passes = _ql_passes(monkeypatch)
    reductions = _reductions(monkeypatch)
    if family == PT:
        h_b = xx_battery(n=4, boundary="open")
        nh, herm = pt_pair(np.pi / 3, n=4)
    else:
        h_b = normalize_spectrum(build_noninteracting_battery(4))
        nh, herm = rt_pair(0.8, 0.5, n=4)
    psi = ground_state(h_b)
    for spec in (nh, herm):
        power_trace(h_b, build_charger(spec), psi, 5.0, 64)
    ergotropy(h_b, psi)
    ergotropy(h_b, evolve_normalized(build_charger(nh), psi, 0.7))
    if family == PT:
        assert passes and not any(passes)
    else:  # the sigma-x battery's spectrum comes from its site term
        assert passes == [] and reductions == []


@pytest.mark.parametrize("init,full_passes", [("ground", 0), ("thermal", 1)])
def test_sweep_row_runs_the_full_vector_ql_only_for_a_gibbs_state(monkeypatch, init, full_passes):
    # An RT row's sigma-x battery takes its levels, ground vector and Gibbs
    # factor from its site term: no reduction and no QL pass.  A PT row's
    # XYZ battery runs the full-vector QL for a Gibbs state only.
    passes = _ql_passes(monkeypatch)
    reductions = _reductions(monkeypatch)
    kwargs = {"init": "thermal", "beta": 1.0} if init == "thermal" else {}
    delta_p_max(3, *rt_pair(0.8, 0.5, n=3), t_max=5.0, n_grid=64, **kwargs)
    assert passes == [] and reductions == []
    battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=3, boundary="open")
    delta_p_max(battery, *pt_pair(np.pi / 3, n=3), t_max=5.0, n_grid=64, **kwargs)
    assert sum(passes) == full_passes


@pytest.mark.parametrize("family", [PT, RT])
def test_thermal_row_diagonalizes_only_its_battery_with_vectors(monkeypatch, family):
    # The Gibbs state hands its factor V sqrt(w) over from the battery
    # spectrum, so no density matrix is diagonalized with vectors, and a
    # power trace measures work alone, so no passive energy is solved for.
    original = dense_linalg.hermitian_eig
    calls = []
    passive = []
    original_passive = battery_dynamics._passive_energies

    def counted_passive(levels, states):
        passive.append(states.shape)
        return original_passive(levels, states)

    monkeypatch.setattr(battery_dynamics, "_passive_energies", counted_passive)

    def counted(m, compute_vectors=True):
        calls.append((np.array(getattr(m, "matrix", m)), compute_vectors))
        return original(m, compute_vectors)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qbattery" and getattr(module, "hermitian_eig", None) is original:
            monkeypatch.setattr(module, "hermitian_eig", counted)
    if family == PT:
        battery = BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=3, boundary="open")
        h_b = normalize_spectrum(build_battery_xyz(battery))
        chargers = pt_pair(np.pi / 3, n=3)
    else:
        battery = 3
        h_b = normalize_spectrum(build_noninteracting_battery(3))
        chargers = rt_pair(0.8, 0.5, n=3)
    reductions, passes = _reductions(monkeypatch), _ql_passes(monkeypatch)
    delta_p_max(battery, *chargers, init="thermal", beta=1.0, t_max=5.0, n_grid=64)
    assert [vectors for _, vectors in calls] == [True]
    assert np.array_equal(calls[0][0], h_b.matrix)
    assert passive == []
    if family == RT:  # its vectors are the site term's Kronecker power
        assert reductions == [] and passes == []


def test_spectrum_is_cached_and_read_only():
    # An un-normalized battery, reduced from its own matrix; the spectrum a
    # normalized battery maps from its raw one is tested in test_model_builders.
    h = build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=3))
    assert h.spectrum is h.spectrum
    assert not h.spectrum.values.flags.writeable
    assert not h.spectrum.vectors.flags.writeable
    ref = hermitian_eig(h.matrix)
    assert np.array_equal(h.spectrum.values, ref.values)
    assert np.array_equal(h.spectrum.vectors, ref.vectors)


def test_delta_requires_matching_sites():
    nh, h = pt_pair(0.3, n=3)
    with pytest.raises(ValueError):
        delta_p_max(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2), nh, h)


def test_delta_thermal_init_requires_beta():
    nh, h = pt_pair(0.3)
    with pytest.raises(ValueError):
        delta_p_max(
            BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2),
            nh,
            h,
            init="thermal",
        )


# --- numeric pipeline vs closed forms over the parameter grids --------------------


@pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 3, 5 * np.pi / 12])
@pytest.mark.parametrize("j,h", [(1.0, 1.0), (-1.0, 1.0), (0.5, 1.0)])
def test_pt_power_oracle_equivalence(alpha, j, h):
    battery = xx_battery(j=j, h=h)
    psi = ground_state(battery)
    trace = power_trace(battery, build_pt_charger(alpha, 2), psi, 10.0, 128)
    for t, p in zip(trace.times, trace.power):
        assert abs(p - oracles.pt_power_n2(float(t), h, j, alpha)) < 1e-8


@pytest.mark.parametrize(
    "gamma_prime,h_prime",
    [(0.3, 0.5), (0.8, 0.5), (0.8, 0.2), (1.2, 0.5)],
)
def test_rt_power_oracle_equivalence(gamma_prime, h_prime):
    battery = normalize_spectrum(build_noninteracting_battery(2))
    psi = ground_state(battery)
    nh_spec, h_spec = rt_pair(gamma_prime, h_prime)
    trace = power_trace(battery, build_charger(nh_spec), psi, 10.0, 128)
    for t, p in zip(trace.times, trace.power):
        assert abs(p - oracles.rt_power_n2(float(t), gamma_prime, h_prime)) < 1e-8
    trace_h = power_trace(battery, build_charger(h_spec), psi, 10.0, 128)
    for t, p in zip(trace_h.times, trace_h.power):
        assert abs(p - oracles.rt_herm_power_n2(float(t), gamma_prime, h_prime)) < 1e-8
