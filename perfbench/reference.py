"""Independent reference values for the benchmark's output check.

Nothing here calls the simulator's numeric pipeline.  Hamiltonians are
rebuilt with ``numpy.kron``, spectra and states come from ``numpy.linalg``,
propagators from ``scipy.linalg.expm``, and two-site traces from the
closed-form expressions in ``qbattery.closed_form_oracles`` wherever those are
defined.  Every trace uses the same time grid and the same golden-section
bracket as ``qbattery.battery_dynamics.power_trace``, so the reference and the
program locate the same maximum and agree to rounding.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

TOL_P_MAX = 1e-8
TOL_SPECTRUM_END = 1e-10
TOL_OVERLAP = 1e-8
DEGEN_GAP = 1e-9  # the program's default ground-state degeneracy tolerance

_REFINE_TOL = 1e-6
_GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_INV2 = (3.0 - math.sqrt(5.0)) / 2.0
_J_MARGIN = 0.1

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _site(axis: str, r: int, n: int) -> np.ndarray:
    factors = [np.eye(2, dtype=complex)] * n
    factors[r] = _PAULI[axis]
    return reduce(np.kron, factors)


def _bonds(n: int, boundary: str) -> list[tuple[int, int]]:
    if boundary == "open" or n == 2:
        return [(r, r + 1) for r in range(n - 1)]
    return [(r, (r + 1) % n) for r in range(n)]


def _field(axis: str, n: int) -> np.ndarray:
    return sum(_site(axis, r, n) for r in range(n))


def _bond(axis: str, n: int, boundary: str) -> np.ndarray:
    return sum(_site(axis, r, n) @ _site(axis, s, n) for r, s in _bonds(n, boundary))


def xyz_battery(J, gamma, delta, h, n, boundary) -> np.ndarray:
    return (
        0.25 * J * ((1 + gamma) * _bond("x", n, boundary) + (1 - gamma) * _bond("y", n, boundary))
        + 0.25 * delta * _bond("z", n, boundary)
        + 0.5 * h * _field("z", n)
    )


def normalized(h: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(h)
    lo, hi = vals[0], vals[-1]
    return (2.0 * h - (hi + lo) * np.eye(h.shape[0])) / (hi - lo)


def ground(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Ground vector and the gap to the first excited level."""
    vals, vecs = np.linalg.eigh(h)
    return vecs[:, 0], float(vals[1] - vals[0])


def pt_chargers(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    s = math.sin(alpha)
    x, z = _field("x", n), _field("z", n)
    return x + 1j * s * z, x + s * z


def rt_chargers(gamma_prime: float, h_prime: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    xx, yy, z = _bond("x", n, "periodic"), _bond("y", n, "periodic"), _field("z", n)

    def ring(aniso):
        return 0.25 * ((1 + aniso) * xx + (1 - aniso) * yy) + 0.5 * h_prime * z

    return ring(1j * gamma_prime), ring(gamma_prime)


def _expect(h_b: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(psi.conj() @ h_b @ psi) / np.real(psi.conj() @ psi))


def _evolve(k: np.ndarray, psi: np.ndarray) -> np.ndarray:
    out = k @ psi
    return out / np.linalg.norm(out)


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    x1 = a + _GOLDEN_INV2 * (b - a)
    x2 = a + _GOLDEN_INV * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _REFINE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + _GOLDEN_INV2 * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN_INV * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _p_max(power_grid: np.ndarray, times: np.ndarray, power_at, t_max: float) -> float:
    n = times.size
    k = int(np.argmax(power_grid))
    p_grid, t_grid = float(power_grid[k]), float(times[k])
    lo = float(times[k - 1]) if k >= 1 else min(1e-12, 0.5 * t_grid)
    hi = float(times[k + 1]) if k + 1 < n else float(t_max)
    _, p_ref = _golden_max(power_at, lo, hi)
    return max(p_ref, p_grid)


def _grid(t_max: float, n_grid: int) -> np.ndarray:
    return t_max * np.arange(1, n_grid + 1) / n_grid


def p_max_numeric(h_b, h_c, psi0, t_max: float, n_grid: int) -> float:
    """Maximum of W(t)/t: the grid by repeated one-step propagation, the
    refinement by one ``scipy.linalg.expm`` per evaluation."""
    # imported here, after the timed passes, so that scipy's footprint is not
    # in the benchmark's peak RSS
    import scipy.linalg

    times = _grid(t_max, n_grid)
    e0 = _expect(h_b, psi0)
    step = scipy.linalg.expm(-1j * (t_max / n_grid) * h_c)
    power = np.empty(n_grid)
    psi = psi0
    for i, t in enumerate(times):
        psi = _evolve(step, psi)
        power[i] = (_expect(h_b, psi) - e0) / t

    def power_at(t):
        return (_expect(h_b, _evolve(scipy.linalg.expm(-1j * t * h_c), psi0)) - e0) / t

    return _p_max(power, times, power_at, t_max)


def p_max_closed_form(oracle, t_max: float, n_grid: int) -> float:
    """Maximum of a closed-form power curve P(t); raises OracleDomainError
    where the expression is not defined."""
    times = _grid(t_max, n_grid)
    power = np.array([oracle(float(t)) for t in times])
    return _p_max(power, times, oracle, t_max)


# ---------------------------------------------------------------------------
# per-experiment reference rows


def _closed_form_or_numeric(oracle, h_b, h_c, psi, t_max: float, n_grid: int) -> float:
    """p_max from a two-site closed form, or numerically where the closed
    form is not defined."""
    # qbattery is importable only once the benchmark has put src/ on the path
    from qbattery.errors import OracleDomainError

    try:
        return p_max_closed_form(oracle, t_max, n_grid)
    except OracleDomainError:
        return p_max_numeric(h_b, h_c, psi, t_max, n_grid)


def pt_row(J, h, alpha, n, boundary, t_max, n_grid) -> tuple | None:
    """(p_max_pt, p_max_herm) from the ground state, or None when that state
    is degenerate."""
    h_b = normalized(xyz_battery(J, 0.0, 0.0, h, n, boundary))
    psi, gap = ground(h_b)
    if gap < DEGEN_GAP:
        return None
    nh, herm = pt_chargers(alpha, n)
    return tuple(p_max_numeric(h_b, c, psi, t_max, n_grid) for c in (nh, herm))


def pt_map_row(h, u, alpha, t_max, n_grid) -> tuple:
    """(j, p_max_pt, p_max_herm) for the two-site map, closed form first."""
    from qbattery import closed_form_oracles as cf

    j = -2.0 * h + _J_MARGIN + u * (4.0 * h - 2.0 * _J_MARGIN)
    h_b = normalized(xyz_battery(j, 0.0, 0.0, h, 2, "periodic"))
    psi, _ = ground(h_b)
    nh, herm = pt_chargers(alpha, 2)
    p_nh = _closed_form_or_numeric(lambda t: cf.pt_power_n2(t, h, j, alpha), h_b, nh, psi, t_max, n_grid)
    p_h = _closed_form_or_numeric(lambda t: cf.pt_herm_power_n2(t, h, j, alpha), h_b, herm, psi, t_max, n_grid)
    return j, p_nh, p_h


def rt_row(gamma_prime, h_prime, n, t_max, n_grid) -> tuple:
    """(p_max_rt, p_max_herm) from the ground state of the non-interacting
    battery; two-site rows use the closed forms where they are defined."""
    from qbattery import closed_form_oracles as cf

    h_b = normalized(_field("x", n))
    psi, _ = ground(h_b)
    nh, herm = rt_chargers(gamma_prime, h_prime, n)
    if n == 2:
        p_nh = _closed_form_or_numeric(
            lambda t: cf.rt_power_n2(t, gamma_prime, h_prime), h_b, nh, psi, t_max, n_grid)
        p_h = _closed_form_or_numeric(
            lambda t: cf.rt_herm_power_n2(t, gamma_prime, h_prime), h_b, herm, psi, t_max, n_grid)
        return p_nh, p_h
    return tuple(p_max_numeric(h_b, c, psi, t_max, n_grid) for c in (nh, herm))


def battery_check(spec: dict, h_norm: np.ndarray, psi: np.ndarray | None) -> tuple[bool, str]:
    """Check one prepared battery: the program's normalized spectrum ends at
    -1 and +1, and its ground state matches the reference one.  ``psi`` is
    None when the program reported a degenerate ground state."""
    ref_psi, gap = ground(normalized(xyz_battery(**spec)))
    if psi is None:
        return gap < DEGEN_GAP, f"ground state reported degenerate, reference gap {gap:.3e}"
    vals = np.linalg.eigvalsh(h_norm)
    end_err = max(abs(vals[0] + 1.0), abs(vals[-1] - 1.0))
    if not end_err <= TOL_SPECTRUM_END:
        return False, f"normalized spectrum ends off by {end_err:.3e}"
    overlap_err = abs(1.0 - abs(np.vdot(ref_psi, psi)))
    if not overlap_err <= TOL_OVERLAP:
        return False, f"ground-state overlap off by {overlap_err:.3e}"
    return True, ""
