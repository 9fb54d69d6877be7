"""Figures of merit for the charged battery.

Evolution under a (possibly non-Hermitian) charger is the normalized map
``rho -> K rho K^dag / tr(K rho K^dag)`` with ``K = exp(-i H t)``; the work
stored at time t is measured against the battery Hamiltonian and the power is
the work over t.  Every state propagates as its column block W with
rho = W W^dag (``QuantumState.factor``), as ``W -> K W / ||K W||_F``: K acts
on the columns once, and a mixed rho(t) is positive semidefinite by
construction.  No sampled state comes from chaining short steps K(dt)^k, so
snapshots carry no stepping error that grows along the grid.

Grid points, single snapshots and the ergotropy traces all go through one
propagation path with two kernels.  A charger that is a sum of one identical
2x2 term per site (the local PT charger and its Hermitian twin, which carry
``site_term``) propagates as the exact product K(t) = k(t)^(x)N, with k(t)
in closed form, including at the exceptional point; this costs O(N 2^N) per
time and column.  Every other charger (the RT ring, user matrices) uses
dense exponentials (a Taylor polynomial with scaling and squaring, matmuls
only) on a two-factor grid: on an arithmetic progression of m times, each
state is K(anchor) K(offset) W0 with both factors built from t = 0, from
about sqrt(m) anchors and sqrt(m) offsets, so a grid costs ~2 sqrt(m)
exponentials instead of m.  Any other array of times, and a single time,
costs one exponential per time.

Golden-section refinement of the maximum works inside the bracket
[lo, hi] around the best grid point: the normalized state at ``lo`` is
computed once per trace, and each evaluation at t applies K(t - lo) to it,
the exact per-site product for a charger with a ``site_term`` and otherwise
a truncated Taylor polynomial applied to the state by Horner's rule (a few
matrix-vector products, no exponential).  An N = 6 RT sweep row (two
800-point traces plus refinement) takes about 0.17 s on a 2-vCPU machine,
against about 6.5 s with one exponential per grid time and per refinement
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_linalg import _taylor_degree, expm_batch, hermitian_eig
from .errors import ConsistencyError, NormalizationUnderflowError, NumericRangeError
from .model_builders import (
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_charger,
    build_noninteracting_battery,
    normalize_spectrum,
)
from .state_prep import QuantumState, _mixed, ground_state, thermal_state
from .tensor_core import Operator

_IM_TOL = 1e-10
_TRACE_FLOOR = 1e-300
_REFINE_TOL = 1e-6
_CHUNK_ELEMS = 1 << 20
# An evenly spaced grid splits to within ~2 ulps of its last time.
_GRID_RTOL = 8 * float(np.finfo(float).eps)

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_INV2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PowerTrace:
    """Time series of work, power and ergotropy plus the located maximum."""

    times: np.ndarray
    work: np.ndarray
    power: np.ndarray
    ergotropy: np.ndarray
    t_star: float
    p_max: float
    t_star_at_edge: bool


@dataclass(frozen=True)
class DeltaRecord:
    """Maximum-power difference between a non-Hermitian charger and its
    Hermitian counterpart on identical batteries and initial states."""

    p_max_nonhermitian: float
    p_max_hermitian: float
    delta: float


def _realize_array(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > _IM_TOL:
        raise ConsistencyError(f"{what} has imaginary residue {worst:.3e}")
    return np.ascontiguousarray(values.real)


def _energy(h_mat: np.ndarray, w: np.ndarray) -> float:
    """tr(H W W^dag) of the state with column block ``w``."""
    val = complex(np.vdot(w, h_mat @ w))
    if abs(val.imag) > _IM_TOL:
        raise ConsistencyError(f"energy expectation has imaginary residue {val.imag:.3e}")
    return val.real


def _site_propagators(h: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i h t) of a 2x2 ``h`` at each time, in closed form.

    With tau = tr(h)/2 and h0 = h - tau I, Cayley-Hamilton gives
    h0^2 = w^2 I with w^2 = -det(h0), so
    exp(-i h t) = e^(-i tau t) [cos(w t) I - i (sin(w t)/w) h0].  The series
    sin(w t)/w is t at w = 0, the exceptional point where h0 is defective, so
    the form is exact there too.
    """
    tau = 0.5 * (h[0, 0] + h[1, 1])
    h0 = h - tau * np.eye(2)
    w = np.sqrt(complex(h0[0, 1] * h0[1, 0] - h0[0, 0] * h0[1, 1]))
    sin_over_w = np.sin(w * times) / w if w != 0 else times.astype(complex)
    k = np.cos(w * times)[:, None, None] * np.eye(2) - 1j * sin_over_w[:, None, None] * h0
    return np.exp(-1j * tau * times)[:, None, None] * k


def _product_kernel(term: np.ndarray, n: int, w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Unnormalized k(t)^(x)n applied to the columns of ``w``: N two-by-two
    contractions per time."""
    m = times.size
    with np.errstate(over="ignore", invalid="ignore"):
        k = _site_propagators(term, times)
        out = np.broadcast_to(w, (m,) + w.shape)
        for r in range(n):
            out = np.einsum("kab,klbr->klar", k, out.reshape(m, 2**r, 2, -1))
    return out.reshape((m,) + w.shape)


def _product_chunks(term: np.ndarray, n: int, w0: np.ndarray, times: np.ndarray):
    """Yield ``(slice, unnormalized states)`` from the per-site product, in
    chunks of times that bound the working memory."""
    chunk = max(1, _CHUNK_ELEMS // w0.size)
    for start in range(0, times.size, chunk):
        sl = slice(start, min(start + chunk, times.size))
        yield sl, _product_kernel(term, n, w0, times[sl])


def _grid_split(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anchors and offsets with ``times[a*c + b] == anchors[a] + offsets[b]``.

    An increasing arithmetic progression of m times splits, with
    c = ceil(sqrt(m)), into every c-th time as an anchor and the first c
    times less the first as offsets, so about 2 sqrt(m) exponentials cover
    the grid.  Any other array gets one anchor per time and the single
    offset 0.
    """
    m = times.size
    if m > 1:
        c = math.isqrt(m - 1) + 1
        anchors, offsets = times[::c], times[:c] - times[0]
        k = np.arange(m)
        resid = np.abs(anchors[k // c] + offsets[k % c] - times)
        if offsets[1] > 0 and np.max(resid) <= _GRID_RTOL * times[-1]:
            return anchors, offsets
    return times, np.zeros(1)


def _grid_chunks(h_mat: np.ndarray, w0: np.ndarray, times: np.ndarray):
    """Yield ``(slice, unnormalized states)`` from the dense exponential.

    The state at ``anchors[a] + offsets[b]`` is K(anchors[a]) applied to the
    offset seed K(offsets[b]) W0, a product of two exponentials that are each
    built from t = 0, so no stepping error accumulates along the grid.
    Exponentials are built in chunks that bound the working memory; each
    anchor chunk multiplies every seed at once, the seeds laid side by side
    as one (d, c r) block.
    """
    anchors, offsets = _grid_split(times)
    gen = -1j * h_mat
    mat_elems = h_mat.size
    d, r = w0.shape
    seeds = [w0[None]]
    step = max(1, _CHUNK_ELEMS // mat_elems)
    for start in range(1, offsets.size, step):
        seeds.append(expm_batch(offsets[start : start + step, None, None] * gen) @ w0)
    seeds = np.concatenate(seeds)
    c = offsets.size
    block = seeds.transpose(0, 2, 1).reshape(c * r, d).T
    step = max(1, _CHUNK_ELEMS // (mat_elems + seeds.size))
    for start in range(0, anchors.size, step):
        k = expm_batch(anchors[start : start + step, None, None] * gen)
        states = (k @ block).reshape(-1, d, c, r).transpose(0, 2, 1, 3)
        sl = slice(start * c, min((start + step) * c, times.size))
        yield sl, states.reshape(-1, d, r)[: sl.stop - sl.start]


def _normalize(states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Scale each (d, r) block of a stack of unnormalized states evolved to
    ``times`` to unit Frobenius norm, so that W W^dag has unit trace.

    Raises NumericRangeError when a state overflowed and
    NormalizationUnderflowError when its norm fell below the floor.
    """
    flat = states.reshape(states.shape[0], -1)
    scale = np.real(np.einsum("ki,ki->k", flat.conj(), flat))
    if not np.all(np.isfinite(scale)):
        raise NumericRangeError("evolved state overflowed")
    worst = int(np.argmin(scale))
    if scale[worst] < _TRACE_FLOOR:
        raise NormalizationUnderflowError(
            f"evolved norm underflow at t={times[worst]} (unphysical parameters)"
        )
    states /= np.sqrt(scale)[:, None, None]
    return states


def _evolve(h_charge: Operator, rho0: QuantumState, times: np.ndarray):
    """Yield ``(slice, states)``: the normalized column blocks W(t), an
    (m, d, r) stack, evolved from ``rho0.factor`` to each of ``times``.

    A charger with a ``site_term`` propagates as the exact per-site product;
    any other by the two-factor dense grid.
    """
    term = h_charge.site_term
    if term is not None:
        chunks = _product_chunks(term, h_charge.n_sites, rho0.factor, times)
    else:
        chunks = _grid_chunks(h_charge.matrix, rho0.factor, times)
    for sl, states in chunks:
        yield sl, _normalize(states, times[sl])


def _taylor(gen: np.ndarray, nu: float, x: np.ndarray, delta: float) -> np.ndarray:
    """exp(gen delta) applied to the columns of ``x`` by a truncated Taylor
    polynomial, with ``nu >= ||gen||_2``.

    The step is split into s = max(1, ceil(nu delta)) substeps of
    y = nu delta / s <= 1.  Each applies T_m(gen delta / s) by Horner's rule,
    v <- x + (delta / (s k)) gen v for k = m, ..., 1, with m from the
    remainder rule ``_taylor_degree(y)`` that the dense exponential uses
    too.  Only the running state is stored.
    """
    s = max(1, math.ceil(nu * delta))
    m = _taylor_degree(nu * delta / s)
    h = delta / s
    for _ in range(s):
        v = x
        for k in range(m, 0, -1):
            v = x + (h / k) * (gen @ v)
        x = v
    return x


def _stepper(h_charge: Operator, seed: np.ndarray):
    """Return ``step(delta)``: K(delta) applied to the columns of ``seed``,
    unnormalized, as a one-state stack.

    A charger with a ``site_term`` steps by the exact per-site product; any
    other by ``_taylor`` on its dense matrix.
    """
    term = h_charge.site_term
    if term is not None:
        return lambda delta: _product_kernel(term, h_charge.n_sites, seed, np.array([delta]))
    h_mat = h_charge.matrix
    gen = -1j * h_mat
    mag = np.abs(h_mat)
    nu = math.sqrt(float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max()))
    return lambda delta: _taylor(gen, nu, seed, delta)[None]


def evolve_normalized(h_charge: Operator, rho0: QuantumState, t: float) -> QuantumState:
    """Propagate with exp(-i H t) and renormalize: a vector for a pure
    ``rho0``, and W(t) W(t)^dag, positive semidefinite by construction,
    otherwise."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if rho0.dim != h_charge.dim:
        raise ValueError("state and charger dimensions differ")
    _, states = next(_evolve(h_charge, rho0, np.array([float(t)])))
    return QuantumState.pure(states[0, :, 0]) if rho0.is_pure else _mixed(states[0])


def work(h_b: Operator, rho0: QuantumState, rho_t: QuantumState) -> float:
    """Stored work tr[H_B (rho(t) - rho(0))]."""
    if not (h_b.dim == rho0.dim == rho_t.dim):
        raise ValueError("dimension mismatch between battery and states")
    return _energy(h_b.matrix, rho_t.factor) - _energy(h_b.matrix, rho0.factor)


def _passive_energies(levels: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Passive-state energy of each normalized (d, r) block W of ``states``:
    the eigenvalues of W^dag W (descending) paired with the ascending
    ``levels``, or the ground energy for a single column."""
    m, _, r = states.shape
    if r == 1:
        return np.full(m, levels[0])
    gram = states.conj().transpose(0, 2, 1) @ states
    return np.array([
        float(np.sum(hermitian_eig(g, compute_vectors=False).values[::-1] * levels[:r]))
        for g in gram
    ])


def ergotropy(h_b: Operator, rho: QuantumState) -> float:
    """Extractable energy: tr(H_B rho) minus the passive-state energy, which
    pairs the state's populations (descending) with the battery levels
    (ascending)."""
    w = rho.factor
    return _energy(h_b.matrix, w) - float(_passive_energies(h_b.spectrum.values, w[None])[0])


def work_and_ergotropy(
    h_b: Operator, h_charge: Operator, rho0: QuantumState, times
) -> tuple[np.ndarray, np.ndarray]:
    """Work and ergotropy of the normalized evolved state at each of ``times``.

    No state is stepped from its neighbour: a dense charger's state on an
    arithmetic grid is a product of two exponentials each built from t = 0,
    and the per-site product is exact at every time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0):
        raise ValueError("times must be a 1-d array of values >= 0")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {bad[0]}")
    if not (h_b.dim == h_charge.dim == rho0.dim):
        raise ValueError("battery, charger and state dimensions differ")
    h_mat = h_b.matrix
    levels = h_b.spectrum.values
    e_init = _energy(h_mat, rho0.factor)
    work_vals = np.empty(times.size)
    ergo_vals = np.empty(times.size)
    for sl, states in _evolve(h_charge, rho0, times):
        m, d, r = states.shape
        cols = states.transpose(0, 2, 1).reshape(m * r, d)
        expect = np.einsum("ki,ki->k", cols.conj(), cols @ h_mat.T).reshape(m, r).sum(axis=1)
        expect = _realize_array(expect, "work expectation")
        work_vals[sl] = expect - e_init
        ergo_vals[sl] = expect - _passive_energies(levels, states)
    return work_vals, ergo_vals


def power_trace(
    h_b: Operator,
    h_charge: Operator,
    rho0: QuantumState,
    t_max: float = 10.0,
    n_grid: int = 2000,
) -> PowerTrace:
    """Work, power and ergotropy on a uniform grid over (0, t_max].

    The best grid point is refined by golden-section search in its bracketing
    interval [lo, hi]; ties go to smaller t.  Grid states come from
    ``work_and_ergotropy``.  The normalized state at ``lo`` is computed once,
    and each refinement point t is K(t - lo) applied to it: the exact
    per-site product for a charger with a ``site_term``, a Taylor polynomial
    (a few matrix-vector products) for any other.  ``t_star_at_edge`` flags
    a grid maximum at t_max, where the true maximum may lie beyond the
    window.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16, got {n_grid}")
    h_mat = h_b.matrix
    times = t_max * np.arange(1, n_grid + 1) / n_grid
    work_vals, ergo_vals = work_and_ergotropy(h_b, h_charge, rho0, times)
    e_init = _energy(h_mat, rho0.factor)

    power_vals = work_vals / times
    k_star = int(np.argmax(power_vals))
    p_grid = float(power_vals[k_star])
    t_grid = float(times[k_star])

    lo = float(times[k_star - 1]) if k_star >= 1 else min(1e-12, 0.5 * t_grid)
    hi = float(times[k_star + 1]) if k_star + 1 < n_grid else float(t_max)
    _, seed = next(_evolve(h_charge, rho0, np.array([lo])))
    step = _stepper(h_charge, seed[0])

    def power_at(t: float) -> float:
        state = _normalize(step(t - lo), np.array([t]))[0]
        return (_energy(h_mat, state) - e_init) / t

    t_ref, p_ref = _golden_max(power_at, lo, hi)

    if p_ref > p_grid or (p_ref == p_grid and t_ref < t_grid):
        t_star, p_max = t_ref, p_ref
    else:
        t_star, p_max = t_grid, p_grid
    return PowerTrace(
        times=times,
        work=work_vals,
        power=power_vals,
        ergotropy=ergo_vals,
        t_star=t_star,
        p_max=p_max,
        t_star_at_edge=k_star == n_grid - 1,
    )


def _golden_max(f, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximization on [a, b] to width < 1e-6; ties keep the
    left (smaller-t) subinterval."""
    x1 = a + GOLDEN_INV2 * (b - a)
    x2 = a + GOLDEN_INV * (b - a)
    f1 = f(x1)
    f2 = f(x2)
    while b - a > _REFINE_TOL:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + GOLDEN_INV2 * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN_INV * (b - a)
            f2 = f(x2)
    if f1 >= f2:
        return x1, f1
    return x2, f2


def _build_battery(battery) -> Operator:
    if isinstance(battery, BatterySpec):
        return build_battery_xyz(battery)
    if isinstance(battery, int):
        return build_noninteracting_battery(battery)
    if isinstance(battery, Operator):
        return battery
    raise TypeError(f"battery must be a BatterySpec, an int, or an Operator, got {type(battery)}")


def delta_p_max(
    battery,
    nonhermitian: ChargerSpec,
    hermitian: ChargerSpec,
    init: str = "ground",
    beta: float | None = None,
    t_max: float = 10.0,
    n_grid: int = 2000,
) -> DeltaRecord:
    """P_max difference between a non-Hermitian charger and its Hermitian
    counterpart for a shared battery and initial state."""
    h_b = normalize_spectrum(_build_battery(battery))
    if nonhermitian.n_sites != h_b.n_sites or hermitian.n_sites != h_b.n_sites:
        raise ValueError("chargers must share n_sites with the battery")
    if init == "ground":
        rho0 = ground_state(h_b)
    elif init == "thermal":
        if beta is None:
            raise ValueError("thermal init requires beta")
        rho0 = thermal_state(h_b, beta)
    else:
        raise ValueError(f"unknown init {init!r}")
    trace_nh = power_trace(h_b, build_charger(nonhermitian), rho0, t_max, n_grid)
    trace_h = power_trace(h_b, build_charger(hermitian), rho0, t_max, n_grid)
    return DeltaRecord(
        p_max_nonhermitian=trace_nh.p_max,
        p_max_hermitian=trace_h.p_max,
        delta=trace_nh.p_max - trace_h.p_max,
    )
