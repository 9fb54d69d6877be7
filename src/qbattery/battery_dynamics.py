"""Figures of merit for the charged battery.

Evolution under a (possibly non-Hermitian) charger is the normalized map
``rho -> K rho K^dag / tr(K rho K^dag)`` with ``K = exp(-i H t)``; the work
stored at time t is measured against the battery Hamiltonian and the power is
the work over t.  Every state propagates as its column block W with
rho = W W^dag (``QuantumState.factor``), as ``W -> K W / ||K W||_F``: K acts
on the columns once, and a mixed rho(t) is positive semidefinite by
construction.  Both chargers of a comparison start from one battery prepared
once (``_prepare``), which every comparison takes: ``delta_p_max``, the
``fig_ergotropy`` traces and the oracle check.

A ground state of the sigma-x battery (an int battery: every RT sweep row
but the thermal ones, the RT columns of ``fig_ergotropy`` and the RT oracle
cases) is prepared in the translation k = 0 block, and ``_prepare`` is the
one place that decides so: the battery, its ground state and both chargers
commute with the cyclic site shift, so the state never leaves the block of
about 2^N / N orbit sums.  The blocks come from the operators' term lists
(``tensor_core.from_terms(t, k0=True)``) and the battery's levels and
ground vector from its site term (``tensor_core.SiteSpectrum``), with no
2^N x 2^N matrix and no eigensolve, and the propagation and refinement
below run on them unchanged; a block charger has no ``site_term``, so it is
never taken for a per-site product.  At N = 12 (352 states) such a row, two
2000-point traces, takes about 0.25 s and peaks at about 110 MB RSS on
2 vCPUs.  Gibbs rows, PT rows and explicit operators stay in the full
space.

Grid points, single snapshots and the one ergotropy trace
(``work_and_ergotropy``; a power trace measures work alone) all go through
one propagation path with three kernels.  A charger that is a sum of one
identical 2x2 term per site (the local PT charger and its Hermitian twin,
which carry ``site_term``) propagates as the exact product K(t) = k(t)^(x)N,
the parallel charger of Campaioli et al., PRL 118, 150601 (2017).  Its site
factor is k(t) = c(t) I + s(t) h0 in closed form, exact at the exceptional
point too, so K(t) = sum_j c^(N-j) s^j E_j with E_j the sum of h0 over
every set of j sites: the N + 1 vectors E_j W0 are built once per call
(O(N^2 2^N r) work), and the states at m times are one (m x (N+1)) @
((N+1) x d r) matmul.  Every other charger moves in short steps, each
normalized at once: on an arithmetic grid, P = K(dt) and Q = K(c dt),
c = ceil(sqrt(m)) capped so that Q needs no squaring, give the first c
states and carry each block of c to the next (a single time t is the
one-point grid, K(t) W0); any other times take one walk of Taylor pieces.
A short normalized step stays well conditioned, where K(t) from t = 0
carries the window's whole non-normal transient.  Measured work errors:
<= 9.5e-15 (unbroken) and <= 3.5e-14 (broken phase) on RT chargers up to
t = 1000 against 50 digits (N <= 4); 4.0e-9 on the PT charger as a plain
matrix (N = 6, t <= 10), against 2.8e-6 from exponentials built from t = 0.
Broken-phase RT stays finite at long windows (t_max = 1000 at N = 4 to 8)
and across long gaps between irregular times.

The Taylor-piece walker (``_pieces``) applies exp(-i H t) to every dense
state off the grid: in each piece of width w <= 1/nu the state is one
truncated Taylor series in the offset x in [0, 1] from the renormalized
state at the piece's start (the action of exp(tA) on a vector, Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  Irregular times read it by
one Vandermonde matmul per piece.  Golden-section refinement walks the
bracket [lo, hi] around the best grid point, for product and dense chargers
alike, from the grid's state at lo, or from rho(0) itself when lo = 0.  The
work numerator and the norm are real polynomials in x whose coefficients
are Gram sums of the Taylor vectors, so an evaluation propagates nothing:
it is two Horner passes on Python floats.  From lo = 0 the work W(0) = 0 is
exact, and the first piece divides it by t as a polynomial, so a maximum at
t -> 0 reads its limit with no 0/0 rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense_linalg import _taylor_degree, expm_array, hermitian_eig
from .errors import ConsistencyError, NormalizationUnderflowError, NumericRangeError
from .model_builders import (
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    charger_terms,
    noninteracting_terms,
    normalize_spectrum,
)
from .state_prep import QuantumState, _mixed, ground_state, thermal_state
from .tensor_core import Operator, from_terms

_IM_TOL = 1e-10
_TRACE_FLOOR = 1e-300
_REFINE_TOL = 1e-6
_CHUNK_ELEMS = 1 << 20
# An evenly spaced grid matches t0 + k dt to within ~2 ulps of its last time.
_GRID_RTOL = 8 * float(np.finfo(float).eps)

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_INV2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class PowerTrace:
    """Time series of work and power plus the located maximum."""

    times: np.ndarray
    work: np.ndarray
    power: np.ndarray
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


def _energy(h_mat: np.ndarray, w: np.ndarray) -> float:
    """tr(H W W^dag) of the state with column block ``w``."""
    val = complex(np.vdot(w, h_mat @ w))
    if abs(val.imag) > _IM_TOL:
        raise ConsistencyError(f"energy expectation has imaginary residue {val.imag:.3e}")
    return val.real


def _site_expansion(h: np.ndarray, times: np.ndarray):
    """(c, s, h0) with exp(-i h t) = c(t) I + s(t) h0 for a 2x2 ``h``.

    With tau = tr(h)/2 and h0 = h - tau I, Cayley-Hamilton gives
    h0^2 = w^2 I with w^2 = -det(h0), so c = e^(-i tau t) cos(w t) and
    s = -i e^(-i tau t) sin(w t)/w.  The series sin(w t)/w is t at w = 0,
    the exceptional point where h0 is defective, so the form is exact there
    too.
    """
    tau = 0.5 * (h[0, 0] + h[1, 1])
    h0 = h - tau * np.eye(2)
    w = np.sqrt(complex(h0[0, 1] * h0[1, 0] - h0[0, 0] * h0[1, 1]))
    sin_over_w = np.sin(w * times) / w if w != 0 else times.astype(complex)
    phase = np.exp(-1j * tau * times)
    return phase * np.cos(w * times), -1j * phase * sin_over_w, h0


def _product_kernel(term: np.ndarray, n: int, w: np.ndarray, times: np.ndarray):
    """Yield ``(slice, unnormalized states)`` of k(t)^(x)n applied to the
    columns of ``w``, in chunks of times that bound the working memory.

    With k = c I + s h0 (``_site_expansion``) and the copies of h0 on
    different sites commuting, k^(x)n = sum_j c^(n-j) s^j E_j, where E_j
    is the sum of h0 over every set of j sites.  The vectors
    Phi_j = E_j w are built once, site by site (Phi_j <- Phi_j + h0 Phi_(j-1)
    for all j at once, from the old Phi); each chunk of times is then one
    (times x (n+1)) @ ((n+1) x d r) matmul.
    """
    d, r = w.shape
    with np.errstate(over="ignore", invalid="ignore"):
        c, s, h0 = _site_expansion(term, times)
    phi = np.zeros((n + 1, d * r), dtype=complex)
    phi[0] = w.reshape(-1)
    for q in range(n):
        low = phi[: q + 1].reshape(q + 1, 2**q, 2, -1)
        phi[1 : q + 2] += np.einsum("ab,jibk->jiak", h0, low).reshape(q + 1, -1)
    size = max(1, _CHUNK_ELEMS // w.size)
    for start in range(0, times.size, size):
        sl = slice(start, start + size)
        c_pow = np.ones((n + 1, c[sl].size), dtype=complex)
        s_pow = np.ones_like(c_pow)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, n + 1):
                c_pow[j] = c_pow[j - 1] * c[sl]
                s_pow[j] = s_pow[j - 1] * s[sl]
            states = (c_pow[::-1] * s_pow).T @ phi
        yield sl, states.reshape(-1, d, r)


def _grid_step(times: np.ndarray) -> float | None:
    """dt if ``times[k] == times[0] + k dt`` for two or more increasing times,
    t for one time t > 0 (a one-point grid), else None."""
    m = times.size
    if m == 1 and times[0] > 0:
        return float(times[0])
    if m > 1:
        dt = float(times[-1] - times[0]) / (m - 1)
        resid = np.abs(times[0] + dt * np.arange(m) - times)
        if dt > 0 and np.max(resid) <= _GRID_RTOL * times[-1]:
            return dt
    return None


def _chain_chunks(h_mat: np.ndarray, w0: np.ndarray, times: np.ndarray, dt: float):
    """Yield ``(slice, unnormalized states)`` on the grid ``times[0] + k dt``.

    With P = K(dt), Q = K(c dt), the seeds P^j K(t0) W0, j < c, are built
    by doubling, X <- [X, P^(2^k) X], as one (d, c r) block; each later
    block is Q times the one before, and every block is rescaled so it
    cannot overflow.  K(t0) is P on a grid that starts at dt.  The block
    length c = ceil(sqrt(m)) is capped so that ||c dt H||_1 <= 1: Q then
    needs no squaring, whose rounding every later block would carry
    (c = 1, Q = P, when dt alone is past that).
    """
    m = times.size
    d, r = w0.shape
    c = math.isqrt(m - 1) + 1
    gen = -1j * h_mat
    step_norm = dt * float(np.abs(gen).sum(axis=0).max())
    if c * step_norm > 1.0:
        c = max(1, math.floor(1.0 / step_norm))
    p = pk = expm_array(dt * gen)
    block = (p if abs(times[0] - dt) <= _GRID_RTOL * times[-1] else expm_array(times[0] * gen)) @ w0
    while block.shape[1] < c * r:
        if block.shape[1] > r:
            pk = pk @ pk
        block = np.concatenate([block, pk @ block], axis=1)
    q = None if m <= c else p if c == 1 else expm_array(c * dt * gen)
    n_blocks = -(-m // c)
    per_chunk = max(1, _CHUNK_ELEMS // (d * c * r))
    for a0 in range(0, n_blocks, per_chunk):
        buf = np.empty((min(per_chunk, n_blocks - a0), d, c * r), dtype=complex)
        for i, b in enumerate(buf):
            b[...] = q @ block if a0 + i else block[:, : c * r]
            norm = math.sqrt(np.vdot(b, b).real)
            if norm > 0:  # a zero block is left for _normalize to report
                b *= 1.0 / norm
            block = b
        states = buf.reshape(-1, d, c, r).transpose(0, 2, 1, 3).reshape(-1, d, r)
        sl = slice(a0 * c, min((a0 + len(buf)) * c, m))
        yield sl, states[: sl.stop - sl.start]


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
    """Yield ``(index, states)``: the normalized column blocks W(t), an
    (m, d, r) stack, evolved from ``rho0.factor`` to ``times[index]``
    (a slice, or positions at irregular times).

    A charger with a ``site_term`` propagates as the exact per-site product
    (``_product_kernel``).  Any other is chained on an arithmetic grid
    (``_chain_chunks``; one time t > 0 is a grid too), and irregular or
    unsorted times take one Taylor-piece walk (``_piece_chunks``).
    """
    term = h_charge.site_term
    if term is not None:
        chunks = _product_kernel(term, h_charge.n_sites, rho0.factor, times)
    elif (dt := _grid_step(times)) is not None:
        chunks = _chain_chunks(h_charge.matrix, rho0.factor, times, dt)
    else:
        chunks = _piece_chunks(h_charge.matrix, rho0.factor, times)
    for index, states in chunks:
        yield index, _normalize(states, times[index])


def _generator(h_mat: np.ndarray) -> tuple[np.ndarray, float]:
    """The generator -i H of exp(-i H t) and nu = sqrt(||H||_1 ||H||_inf),
    an upper bound on its 2-norm."""
    mag = np.abs(h_mat)
    nu = math.sqrt(float(mag.sum(axis=0).max()) * float(mag.sum(axis=1).max()))
    return -1j * h_mat, nu


def _split(nu: float, lo: float, hi: float) -> tuple[int, float]:
    """(s, w): [lo, hi] cut into s = max(1, ceil(nu (hi - lo))) equal pieces
    of width w <= 1/nu."""
    s = max(1, math.ceil(nu * (hi - lo)))
    return s, (hi - lo) / s


def _pieces(gen: np.ndarray, nu: float, seed: np.ndarray, lo: float, hi: float):
    """Yield the Taylor vectors v of each piece of [lo, hi] (``_split``) in
    turn, walked from the normalized state ``seed`` at lo; ``nu >= ||gen||_2``.

    The state at offset x in [0, 1] of a piece is psi(x) = sum_k x^k v[k],
    with v[k] = (w gen)^k S / k!, k <= m = ``_taylor_degree(nu w)``.  S is
    ``seed`` in the first piece and psi(1) of the piece before, renormalized
    (``_normalize`` raises the typed errors), in every later one.
    """
    s, w = _split(nu, lo, hi)
    gen_w, m = w * gen, _taylor_degree(nu * w)
    for j in range(s):
        x = _normalize(v.sum(axis=0)[None], np.array([lo + j * w]))[0] if j else seed
        v = np.empty((m + 1,) + x.shape, dtype=complex)
        v[0] = x
        for k in range(1, m + 1):
            v[k] = (1.0 / k) * (gen_w @ v[k - 1])
        yield v


def _piece_chunks(h_mat: np.ndarray, w0: np.ndarray, times: np.ndarray):
    """Yield ``(positions, unnormalized states)`` at any ``times`` from one
    ``_pieces`` walk over [0, max t].  Time t is in piece
    j = min(int(t / w), s - 1), so the largest lands in the last piece even
    where that piece's end rounds below it; the states in a piece, at offsets
    x = t / w - j, are one Vandermonde (times x (m+1)) matmul on its v.
    """
    gen, nu = _generator(h_mat)
    hi = float(times.max(initial=0.0))
    s, w = _split(nu, 0.0, hi)
    pos = times / w if w else np.zeros_like(times)  # w = 0: every time is 0
    index = np.minimum(pos.astype(int), s - 1)
    for j, v in enumerate(_pieces(gen, nu, w0, 0.0, hi)):
        sel = np.flatnonzero(index == j)
        if sel.size:
            vander = np.vander(pos[sel] - j, len(v), increasing=True)
            yield sel, (vander @ v.reshape(len(v), -1)).reshape((-1,) + w0.shape)


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


def _expectations(h_mat: np.ndarray, states: np.ndarray) -> np.ndarray:
    """tr(H W W^dag) of each (d, r) block W of a stack of states."""
    m, d, r = states.shape
    cols = states.transpose(0, 2, 1).reshape(m * r, d)
    expect = np.einsum("ki,ki->k", cols.conj(), cols @ h_mat.T).reshape(m, r).sum(axis=1)
    worst = float(np.max(np.abs(expect.imag)))
    if worst > _IM_TOL:
        raise ConsistencyError(f"work expectation has imaginary residue {worst:.3e}")
    return expect.real


def work_and_ergotropy(
    h_b: Operator, h_charge: Operator, rho0: QuantumState, times
) -> tuple[np.ndarray, np.ndarray]:
    """Work and ergotropy of the normalized evolved state at each of ``times``.

    On a ``PowerTrace``'s times its work equals the trace's bit for bit.  The
    module docstring gives the measured error of a dense charger's steps.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or np.any(times < 0):
        raise ValueError("times must be a 1-d array of values >= 0")
    bad = times[~np.isfinite(times)]
    if bad.size:
        raise ValueError(f"times must be finite, got {bad[0]}")
    if not (h_b.dim == h_charge.dim == rho0.dim):
        raise ValueError("battery, charger and state dimensions differ")
    h_mat, levels = h_b.matrix, h_b.spectrum.values
    e_init = _energy(h_mat, rho0.factor)
    work_vals = np.empty(times.size)
    ergo_vals = np.empty(times.size)
    for sl, states in _evolve(h_charge, rho0, times):
        energy = _expectations(h_mat, states)
        work_vals[sl] = energy - e_init
        ergo_vals[sl] = energy - _passive_energies(levels, states)
    return work_vals, ergo_vals


def _antidiagonal_sums(mats: np.ndarray) -> np.ndarray:
    """s[..., n] = sum over j + k = n of mats[..., j, k], for a stack of
    (q, q) matrices: row j is shifted right by j in a (q, 2q - 1) frame
    and the columns are summed."""
    q = mats.shape[-1]
    padded = np.zeros(mats.shape[:-1] + (2 * q,), dtype=mats.dtype)
    padded[..., :q] = mats
    flat = padded.reshape(mats.shape[:-2] + (-1,))[..., : q * (2 * q - 1)]
    return flat.reshape(mats.shape[:-2] + (q, 2 * q - 1)).sum(axis=-2)


def _bracket_piece(v: np.ndarray, h_mat: np.ndarray, e_init: float) -> tuple[list[float], list[float]]:
    """One piece of the refinement bracket, as polynomials in x in [0, 1].

    With the piece's Taylor vectors ``v`` (``_pieces``), k <= m = len(v) - 1,
    the work numerator tr[psi^dag (H_B - e_init) psi] and the norm
    tr[psi^dag psi] of psi(x) = sum_k x^k v[k] are real polynomials of
    degree 2m whose coefficients are anti-diagonal sums of the Gram matrices
    A = V^dag H_B V and B = V^dag V:
    c_n = sum_{j+k=n} (A_jk - e_init B_jk) and D_n = sum_{j+k=n} B_jk.
    Forming c_n before dividing keeps the work exact to rounding where it
    is small against e_init.

    Returns (c, D) as lists of Python floats, highest degree first for
    Horner's rule.  Raises ConsistencyError when sum_n |Im a_n|,
    a_n = sum_{j+k=n} A_jk, which bounds the imaginary part of the energy at
    every x in [0, 1], exceeds the tolerance.
    """
    flat = v.reshape(len(v), -1)
    left = flat.conj()
    gram_h = left @ (h_mat @ v).reshape(len(v), -1).T
    gram = left @ flat.T
    sums = _antidiagonal_sums(np.stack([gram_h - e_init * gram, gram, gram_h]))
    worst = float(np.abs(sums[2].imag).sum())
    if worst > _IM_TOL:
        raise ConsistencyError(f"work expectation has imaginary residue {worst:.3e}")
    return sums[0].real[::-1].tolist(), sums[1].real[::-1].tolist()


def _horner(coeffs: list[float], x: float) -> float:
    """The polynomial with ``coeffs`` (highest degree first) at x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _bracket_power(
    h_mat: np.ndarray, h_charge: Operator, seed: np.ndarray, e_init: float, lo: float, hi: float
):
    """Return ``power(t)``, the work over t for t in [lo, hi], from the
    normalized state ``seed`` at ``lo``.

    The pieces of ``_pieces`` are walked as evaluations first land in them
    and kept as their ``_bracket_piece`` polynomials.  An evaluation at t is
    N(x) / (D(x) t) in piece j = min(int((t - lo) / w), s - 1), at the offset
    x = (t - lo) / w - j from its start: two Horner passes on floats.  From
    lo = 0, W(0) = 0 exactly: piece 0 drops c_0 and evaluates
    (N(x) / x) / (D(x) w), so W(t)/t carries no 0/0 rounding as t -> 0.
    """
    gen, nu = _generator(h_charge.matrix)
    s, w = _split(nu, lo, hi)
    walk = _pieces(gen, nu, seed, lo, hi)
    from_zero = lo == 0.0
    pieces = []  # (numerator, norm) coefficients of the pieces walked so far

    def power(t: float) -> float:
        j = min(int((t - lo) / w), s - 1)
        while len(pieces) <= j:
            num, den = _bracket_piece(next(walk), h_mat, e_init)
            pieces.append((num[:-1] if from_zero and not pieces else num, den))
        num, den = pieces[j]
        x = (t - lo) / w - j
        n_x, d_x = _horner(num, x), _horner(den, x)
        if not (math.isfinite(n_x) and math.isfinite(d_x)):
            raise NumericRangeError("evolved state overflowed")
        if d_x < _TRACE_FLOOR:
            raise NormalizationUnderflowError(
                f"evolved norm underflow at t={t} (unphysical parameters)"
            )
        return n_x / (d_x * (w if from_zero and j == 0 else t))

    return power


def power_trace(
    h_b: Operator,
    h_charge: Operator,
    rho0: QuantumState,
    t_max: float = 10.0,
    n_grid: int = 2000,
) -> PowerTrace:
    """Work and power on a uniform grid over (0, t_max].

    The best grid point is refined by golden-section search in its bracketing
    interval [lo, hi]; ties go to smaller t.  The grid pass also keeps the
    normalized state at ``lo``; when the best point is the first, lo = 0
    and that state is ``rho0``.  Each refinement point reads a Taylor
    polynomial of its bracket piece (``_bracket_power``).
    ``t_star_at_edge`` flags a grid maximum at t_max, where the true maximum
    may lie beyond the window.  The ergotropy on the same times is
    ``work_and_ergotropy(h_b, h_charge, rho0, trace.times)``.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    if n_grid < 16:
        raise ValueError(f"n_grid must be >= 16, got {n_grid}")
    if not (h_b.dim == h_charge.dim == rho0.dim):
        raise ValueError("battery, charger and state dimensions differ")
    times = t_max * np.arange(1, n_grid + 1) / n_grid
    e_init = _energy(h_b.matrix, rho0.factor)
    work_vals = np.empty(n_grid)
    best, seed, last = -np.inf, rho0.factor, rho0.factor
    for sl, states in _evolve(h_charge, rho0, times):
        work_vals[sl] = _expectations(h_b.matrix, states) - e_init
        power = work_vals[sl] / times[sl]
        k = int(np.argmax(power))
        if power[k] > best:  # keep the state just before the first maximum
            best, seed = power[k], states[k - 1].copy() if k else last
        last = states[-1].copy()

    power_vals = work_vals / times
    k_star = int(np.argmax(power_vals))
    p_grid = float(power_vals[k_star])
    t_grid = float(times[k_star])

    lo = float(times[k_star - 1]) if k_star >= 1 else 0.0
    hi = float(times[k_star + 1]) if k_star + 1 < n_grid else float(t_max)
    t_ref, p_ref = _golden_max(_bracket_power(h_b.matrix, h_charge, seed, e_init, lo, hi), lo, hi)

    if p_ref > p_grid or (p_ref == p_grid and t_ref < t_grid):
        t_star, p_max = t_ref, p_ref
    else:
        t_star, p_max = t_grid, p_grid
    return PowerTrace(
        times=times,
        work=work_vals,
        power=power_vals,
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


def _prepare(battery, chargers, init: str = "ground", beta: float | None = None):
    """``(h_b, rho0, charger operators)`` for a comparison: the battery
    normalized to span [-1, 1], its ground state or, with
    ``init = "thermal"``, its Gibbs state at ``beta``, and the operators of
    the ``ChargerSpec``s ``chargers``, each built as it is read, so a caller
    that traces one charger at a time holds one charger matrix at a time.

    A ground state of the sigma-x battery (an int ``battery``) is taken, with
    the chargers, in the translation k = 0 block (``from_terms(t, k0=True)``);
    every other battery, state and charger is a dense 2^N x 2^N operator.
    """
    k0 = isinstance(battery, int) and init == "ground"
    if isinstance(battery, BatterySpec):
        battery = build_battery_xyz(battery)
    elif isinstance(battery, int):
        battery = from_terms(noninteracting_terms(battery), k0=k0)
    elif not isinstance(battery, Operator):
        raise TypeError(f"battery must be a BatterySpec, an int, or an Operator, got {type(battery)}")
    if any(spec.n_sites != battery.n_sites for spec in chargers):
        raise ValueError("chargers must share n_sites with the battery")
    if init not in ("ground", "thermal"):
        raise ValueError(f"unknown init {init!r}")
    if init == "thermal" and beta is None:
        raise ValueError("thermal init requires beta")
    h_b = normalize_spectrum(battery)
    rho0 = ground_state(h_b) if init == "ground" else thermal_state(h_b, beta)
    return h_b, rho0, (from_terms(charger_terms(spec), k0=k0) for spec in chargers)


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
    counterpart for a shared battery and initial state (``_prepare``)."""
    h_b, rho0, chargers = _prepare(battery, (nonhermitian, hermitian), init, beta)
    trace_nh = power_trace(h_b, next(chargers), rho0, t_max, n_grid)
    trace_h = power_trace(h_b, next(chargers), rho0, t_max, n_grid)
    return DeltaRecord(
        p_max_nonhermitian=trace_nh.p_max,
        p_max_hermitian=trace_h.p_max,
        delta=trace_nh.p_max - trace_h.p_max,
    )
