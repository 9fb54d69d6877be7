"""Self-contained dense complex linear algebra kernels.

Everything here is written against plain numpy arrays (matmuls only, no
``numpy.linalg`` solvers): matrix exponential by scaling-and-squaring with a
truncated Taylor core (matmuls only, no linear solve), Hermitian
eigendecomposition (``HermitianSpectrum``, the one Hermiticity check; a
M + b I of a reduced matrix reuses its reduction), general eigenvalues by
Hessenberg reduction and shifted QR in place on the active block, and a
rank-based defectiveness test.  Both reductions take their Householder
vectors from ``_reflector``.

A Hermitian matrix is split into its exact direct-sum blocks, the connected
components of its nonzero pattern (for a spin chain, the sectors of the
symmetries its Hamiltonian conserves), and reduced to tridiagonal form by
one Householder reduction confined to those blocks (its reflectors kept, Q
formed only when all vectors are wanted); implicit QL gives the values and,
on request, all vectors, and inverse iteration on the tridiagonal form the
ground vector alone.

The dimensions of interest are small (<= 2**12), so O(n^3) dense kernels with
vectorized inner loops are the right tool.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ConvergenceError, NumericRangeError
from .tensor_core import Operator

_EPS = float(np.finfo(float).eps)

# Relative truncation error allowed per Taylor polynomial.
_TAYLOR_TOL = 2.0**-53

# Off-diagonal convergence threshold for the Hermitian eigensolver and the
# subdiagonal deflation threshold for the QR iteration, both relative.
_EIG_OFFDIAG_TOL = 1e-13
_QR_DEFLATION_TOL = 1e-13
_QL_MAX_ITER = 60
_INV_ITER_MAX = 8
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_QR_SWEEP_FACTOR = 100

# Imaginary parts below this (relative) level classify a spectrum as real.
REAL_SPECTRUM_TOL = 1e-8


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending, real) and optional orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, Operator):
        return m.matrix
    return np.asarray(m, dtype=complex)


def _frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def _taylor_degree(y: float) -> int:
    """Smallest degree m with y^(m+1) e^(2y) / (m+1)! <= 2^-53.

    That is the remainder y^(m+1) e^y / (m+1)! of the Taylor series of
    exp(A), ||A|| <= y, relative to the worst shrink ||exp(A) x|| >=
    e^(-y) ||x|| of a non-Hermitian A (Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31, 970 (2009) and SIAM J. Sci. Comput. 33, 488 (2011));
    m = 18 at y = 1.
    """
    m, bound = 0, y * math.exp(2.0 * y)
    while bound > _TAYLOR_TOL:
        m += 1
        bound *= y / (m + 1)
    return m


def _taylor_poly(a: np.ndarray, m: int) -> np.ndarray:
    """T_m(a) = sum_{k <= m} a^k / k! of a square matrix by
    Paterson-Stockmeyer: with q = isqrt(m), the powers a^2 .. a^q and
    Horner's rule in a^q on blocks of q coefficients, q - 1 + ceil(m/q) - 1
    matmuls (7 at m = 18)."""
    q = max(1, math.isqrt(m))
    powers = [np.eye(a.shape[-1], dtype=complex), a]
    for _ in range(q - 1):
        powers.append(powers[-1] @ a)
    coeffs = [1.0 / math.factorial(k) for k in range(m + 1)]
    top = max(m - 1, 0) // q
    r = sum(coeffs[top * q + i] * powers[i] for i in range(m - top * q + 1))
    for j in range(top - 1, -1, -1):
        r = r @ powers[q] + sum(coeffs[j * q + i] * powers[i] for i in range(q))
    return r


def expm_array(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix: scaled by 2^-s to 1-norm <= 1,
    a Taylor polynomial, then s squarings."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise NumericRangeError("non-finite input to matrix exponential")
    squarings = int(np.ceil(np.log2(norm))) if norm > 1.0 else 0
    scale = 0.5**squarings
    with np.errstate(over="ignore", invalid="ignore"):
        r = _taylor_poly(a * scale, _taylor_degree(norm * scale))
        for _ in range(squarings):
            r = r @ r
    if not np.all(np.isfinite(r.view(float))):
        raise NumericRangeError("matrix exponential overflowed")
    return r


def _check_hermitian(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The Hermitian matrix to reduce and its Frobenius norm: ``a`` itself
    when a - a^dag is exactly zero (no copy is needed, as 0.5 (a + a^dag)
    would equal ``a`` bit for bit), else 0.5 (a + a^dag).  Raises
    ``ValueError`` when ||a - a^dag|| exceeds 1e-10 ||a||."""
    norm = _frobenius(a)
    diff = a - a.conj().T
    if not diff.any():
        return a, norm
    dev = _frobenius(diff)
    if dev > 1e-10 * max(norm, 1e-300):
        raise ValueError(
            f"matrix is not Hermitian: ||M - M^dag|| = {dev:.3e} vs ||M|| = {norm:.3e}"
        )
    herm = 0.5 * (a + a.conj().T)
    return herm, _frobenius(herm)


def _sectors(a: np.ndarray) -> tuple[list[int] | None, list[tuple[int, int]]]:
    """The exact direct-sum blocks of a matrix with a symmetric nonzero
    pattern: the connected components of the graph linking i and j where
    a[i, j] != 0 (no tolerance).

    Returns (perm, blocks): a[perm][:, perm] has component b on the index
    range ``blocks[b]`` = (start, end).  The components are ordered by
    their first index and keep their indices ascending, so ``perm`` is
    ``None`` when that order is the identity (always so for one component).
    A depth-first search reads one row of the pattern per index it reaches
    and stops once every index is labelled.
    """
    linked = a != 0
    n = a.shape[0]
    label = [-1] * n
    sizes: list[int] = []
    seen = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        comp = len(sizes)
        label[start] = comp
        stack, size = [start], 1
        while stack and seen + size < n:
            for j in linked[stack.pop()].nonzero()[0].tolist():
                if label[j] < 0:
                    label[j] = comp
                    stack.append(j)
                    size += 1
        sizes.append(size)
        seen += size
        if seen == n:
            break
    bounds = [0, *itertools.accumulate(sizes)]
    perm = sorted(range(n), key=label.__getitem__)
    return (None if perm == list(range(n)) else perm), list(zip(bounds, bounds[1:]))


def _reflector(x: np.ndarray, out: np.ndarray, tiny: float):
    """Householder reflector of the vector x: writes into ``out`` the unit v
    with (I - 2 v v^dag) x = beta e_0 and returns beta, or returns None
    (``out`` untouched) when ||x|| < ``tiny``.

    beta = -x_0/|x_0| ||x|| has the phase opposite to x_0, so v_0 = x_0 - beta
    adds magnitudes, |v_0| = |x_0| + ||x|| > 0, and nothing cancels.
    """
    xnorm = math.sqrt(float(np.sum(np.abs(x) ** 2)))
    if xnorm < tiny:
        return None
    x0 = x[0]
    beta = -(x0 / abs(x0) if abs(x0) > 0 else 1.0) * xnorm
    out[:] = x
    out[0] -= beta
    out /= math.sqrt(float(np.sum(np.abs(out) ** 2)))
    return beta


def _tridiagonalize(a: np.ndarray, fro: float, blocks):
    """Reduce Hermitian a, in place, to real symmetric tridiagonal form
    T = Q^dag a Q.

    ``blocks`` are the (start, end) index ranges of a's exact direct-sum
    blocks (``_sectors``): every entry outside them is zero.  Householder
    step k touches only the rows and columns from k + 1 to the end of k's
    block, and a step with fewer than two entries below the diagonal of
    its block is skipped, so the cost is sum_b n_b^3, not n^3, and T keeps
    exact zeros at the block boundaries.  Returns (diag, offdiag,
    reflectors, phases) with Q = H_0 H_1 ... diag(phases): each (k, v) of
    ``reflectors`` is H = I - 2 v v^dag on the indices k + 1 to
    k + v.size.  Q itself is never formed here: ``_form_q`` builds it, and
    ``_apply_q`` applies it to one vector in O(n^2).  ``fro`` is the
    Frobenius norm of a.
    """
    n = a.shape[0]
    reflectors = []
    # Every reflector is a view into one store, each at the offset where
    # the one before it ends.
    store = np.empty(n * (n - 1) // 2, dtype=complex)
    start = 0
    tiny = 1e3 * _EPS * max(1.0, fro) / max(n, 1)
    for first, end in blocks:
        for k in range(first, end - 2):
            x = a[k + 1 : end, k]
            v = store[start : start + x.size]
            start += x.size
            beta = _reflector(x, v, tiny)
            if beta is None:
                a[k + 1 : end, k] = 0.0
                a[k, k + 1 : end] = 0.0
                continue
            # Two-sided reflection P B P on the trailing block, P = I - 2 v v^dag:
            # with w = B v, tau = v^dag w and u = 2 w - 2 tau v, that is the
            # rank-two update B - v u^dag - u v^dag.
            block = a[k + 1 : end, k + 1 : end]
            w = block @ v
            tau = float(np.real(v.conj() @ w))
            u = 2.0 * w - (2.0 * tau) * v
            block -= np.outer(v, u.conj()) + np.outer(u, v.conj())
            a[k + 1, k] = beta
            a[k + 2 : end, k] = 0.0
            a[k, k + 1 : end] = np.conj(a[k + 1 : end, k])
            reflectors.append((k, v))
    diag = np.real(np.diag(a)).copy()
    off = np.diag(a, -1).copy() if n > 1 else np.zeros(0, dtype=complex)
    # Phase-rotate so the sub-diagonal becomes real non-negative.
    e = np.abs(off)
    phases = np.ones(n, dtype=complex)
    for k in range(n - 1):
        if e[k] > 0.0:
            phases[k + 1] = off[k] * phases[k] / e[k]
        else:
            phases[k + 1] = phases[k]
    return diag, e, reflectors, phases


def _form_q(reflectors, phases) -> np.ndarray:
    """Q = H_0 H_1 ... diag(phases) as a dense matrix."""
    q = np.eye(phases.size, dtype=complex)
    for k, v in reflectors:
        cols = q[:, k + 1 : k + 1 + v.size]
        cols -= 2.0 * np.outer(cols @ v, v.conj())
    return q * phases[None, :]


def _apply_q(reflectors, phases, x) -> np.ndarray:
    """Q x for one real vector x, the reflectors applied last to first."""
    y = phases * np.asarray(x)
    for k, v in reversed(reflectors):
        tail = y[k + 1 : k + 1 + v.size]
        tail -= (2.0 * (v.conj() @ tail)) * v
    return y


def _inverse_iteration(diag, off, lam: float, gate: float) -> list[float]:
    """Unit eigenvector of the real symmetric tridiagonal T (``diag``,
    ``off``) for its eigenvalue ``lam``, by inverse iteration.

    T - lam I is factored once by Gaussian elimination with partial pivoting
    (U has two superdiagonals); a pivot below eps ||T|| is raised to that
    size, a shift error of the order of lam's own.  The fixed start vector
    1/2 + frac((i + 1) g), g the golden ratio, has no symmetry under index
    reversal, so it is not orthogonal to an odd eigenvector of a
    persymmetric T, as all-ones is.  Each step solves, normalizes and
    measures ||T x - lam x||; at least two steps are made, so the direction
    is refined once more after the residual first meets ``gate``.  Raises
    ConvergenceError if it has not after ``_INV_ITER_MAX`` steps.  The O(n)
    loops run on Python floats: cheaper than numpy's per-call overhead at
    small n, and nothing next to the O(n^3) reduction at large n.
    """
    d, e = diag.tolist(), off.tolist()
    n = len(d)
    shifted = [x - lam for x in d]
    tnorm = max(map(abs, d)) + 2.0 * max(e, default=0.0)
    pivmin = _EPS * tnorm if tnorm > 0.0 else 1.0
    u0, u1, u2 = shifted.copy(), e + [0.0], [0.0] * n
    mult, swap = [0.0] * n, [False] * n
    for i in range(n - 1):
        if abs(u0[i]) >= e[i]:
            if abs(u0[i]) < pivmin:
                u0[i] = math.copysign(pivmin, u0[i])
            mult[i] = f = e[i] / u0[i]
            u0[i + 1] -= f * u1[i]
        else:
            mult[i] = f = u0[i] / e[i]
            swap[i] = True
            u0[i], u1[i], u0[i + 1] = e[i], u0[i + 1], u1[i] - f * u0[i + 1]
            u2[i], u1[i + 1] = u1[i + 1], -f * u1[i + 1]
    if abs(u0[-1]) < pivmin:
        u0[-1] = math.copysign(pivmin, u0[-1])
    pad = [0.0] + e + [0.0]
    x = [0.5 + math.fmod((i + 1) * _GOLDEN, 1.0) for i in range(n)]
    for step in range(_INV_ITER_MAX):
        for i in range(n - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - mult[i] * x[i + 1]
            else:
                x[i + 1] -= mult[i] * x[i]
        x += [0.0, 0.0]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
        norm = math.hypot(*x)
        if not 0.0 < norm < math.inf:
            break
        x = [v / norm for v in x[:n]]
        xp = [0.0] + x + [0.0]
        resid = math.hypot(*[
            s * v + a * p + b * q
            for s, v, a, p, b, q in zip(shifted, x, pad, xp, pad[1:], xp[2:])
        ])
        if step and resid <= gate:
            return x
    raise ConvergenceError(f"inverse iteration failed to converge for dimension {n}")


def _ql_implicit(diag, off, q, off_tol):
    """Implicit-shift QL on a real symmetric tridiagonal matrix.

    Rotations within one iteration are accumulated into a small dense block
    applied to the (complex) transform columns in a single matmul.  The
    scalar recurrence runs on Python floats, which round as numpy's float64
    scalars do at a fraction of their per-operation cost.
    """
    n = diag.size
    d = diag.tolist()
    e = off.tolist() + [0.0]
    for l in range(n):
        iters = 0
        while True:
            # No relative test eps (|d_m| + |d_m+1|): every |d_i| <= ||A||_F,
            # so it stays below 4.5e-16 ||A||_F < off_tol = 1e-13 ||A||_F.
            m = l
            while m < n - 1 and abs(e[m]) > off_tol:
                m += 1
            if m == l:
                break
            iters += 1
            if iters > _QL_MAX_ITER:
                raise ConvergenceError(
                    f"QL iteration failed to converge for dimension {n}"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            denom = g + (math.copysign(r, g) if g != 0.0 else r)
            g = d[m] - d[l] + e[l] / denom
            s = c = 1.0
            p = 0.0
            width = m - l + 1
            rot = np.eye(width) if q is not None else None
            broke = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if rot is not None:
                    j = i - l
                    col_i = rot[:, j].copy()
                    col_n = rot[:, j + 1]
                    rot[:, j] = c * col_i - s * col_n
                    rot[:, j + 1] = s * col_i + c * col_n
            if rot is not None:
                q[:, l : m + 1] = q[:, l : m + 1] @ rot
            if broke:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.array(d), q


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class HermitianSpectrum:
    """The spectrum of one Hermitian matrix, from one Householder reduction
    to a real tridiagonal T.

    The matrix is first split into its exact direct-sum blocks
    (``_sectors``: the connected components of its nonzero pattern, such as
    the parity or magnetization sectors of a spin chain) and permuted so
    each block is contiguous; the reduction stays inside the blocks, so it
    costs sum_b n_b^3 rather than n^3.  A one-block matrix keeps the
    identity permutation and is reduced as a whole.  ``values`` (ascending)
    come from the QL iteration on T without vectors and are computed on
    construction.  ``ground``, the eigenvector of ``values[0]`` by inverse
    iteration on T and the stored reflectors (O(n^2) past the reduction),
    and ``vectors``, all eigenvectors by the rotation-accumulating QL on the
    same T, are each computed on first read, scattered back through the
    permutation, and kept.  Every array is read-only.  Raises
    ``ValueError`` for a matrix that is not numerically Hermitian.

    ``_affine(a, b)`` is the spectrum of a M + b I, a > 0, without a second
    reduction: its ``_source`` is the spectrum that was reduced, whose
    ``ground`` and ``vectors`` it reads (``None`` on that one itself, so no
    reference cycle keeps a reduction alive).
    """

    def __init__(self, m):
        herm, fro = _check_hermitian(_as_matrix(m))
        perm, blocks = _sectors(herm)
        # The inverse permutation takes a vector of the permuted matrix back.
        self._unperm = None if perm is None else np.argsort(perm)
        work = herm.copy() if perm is None else herm[np.ix_(perm, perm)]
        self._off_tol = _EIG_OFFDIAG_TOL * fro
        self._diag, self._off, self._reflectors, self._phases = _tridiagonalize(
            work, fro, blocks
        )
        vals, _ = _ql_implicit(self._diag, self._off, None, self._off_tol)
        self._order = np.argsort(vals, kind="stable")
        self.values = _frozen(vals[self._order])
        self._source = None

    def _affine(self, a: float, b: float) -> HermitianSpectrum:
        """The spectrum of a M + b I for a > 0: ``values`` a lambda + b, in
        the same ascending order, and the very ``ground`` and ``vectors``
        arrays of the reduced spectrum, computed there on first read."""
        out = object.__new__(type(self))
        out.values = _frozen(a * self.values + b)
        out._source = self if self._source is None else self._source
        return out

    @functools.cached_property
    def ground(self) -> np.ndarray:
        if self._source is not None:
            return self._source.ground
        x = _inverse_iteration(self._diag, self._off, float(self.values[0]), self._off_tol)
        y = _apply_q(self._reflectors, self._phases, x)
        return _frozen(y if self._unperm is None else y[self._unperm])

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        if self._source is not None:
            return self._source.vectors
        q = _form_q(self._reflectors, self._phases)
        _, q = _ql_implicit(self._diag, self._off, q, self._off_tol)
        rows = slice(None) if self._unperm is None else self._unperm[:, None]
        return _frozen(q[rows, self._order])


def hermitian_eig(m, compute_vectors: bool = True) -> EigenDecomposition:
    """Full spectrum (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, read-only.  An ``Operator``'s are those of its cached
    ``spectrum``, so it is reduced once however often it is asked."""
    spec = m.spectrum if isinstance(m, Operator) else HermitianSpectrum(m)
    return EigenDecomposition(spec.values, spec.vectors if compute_vectors else None)


def _hessenberg(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    tiny = 1e3 * _EPS * max(1.0, _frobenius(a)) / max(n, 1)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        v = np.empty_like(x)
        beta = _reflector(x, v, tiny)
        if beta is None:
            a[k + 2 :, k] = 0.0
            continue
        a[k + 1 :, k:] -= 2.0 * np.outer(v, v.conj() @ a[k + 1 :, k:])
        a[:, k + 1 :] -= 2.0 * np.outer(a[:, k + 1 :] @ v, v.conj())
        a[k + 1, k] = beta
        a[k + 2 :, k] = 0.0
    return a


def _eig2x2(a, b, c, d) -> tuple[complex, complex]:
    half_tr = 0.5 * (a + d)
    disc = np.lib.scimath.sqrt(0.25 * (a - d) ** 2 + b * c)
    return complex(half_tr + disc), complex(half_tr - disc)


def _wilkinson_shift(h, hi) -> complex:
    mu1, mu2 = _eig2x2(h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1], h[hi, hi])
    return mu1 if abs(mu1 - h[hi, hi]) <= abs(mu2 - h[hi, hi]) else mu2


def _qr_step(block: np.ndarray, mu) -> None:
    """One explicit shifted QR step on the active Hessenberg block, a view
    into the full Hessenberg matrix, in place."""
    w = block.shape[0]
    diag = np.diag_indices(w)
    block[diag] -= mu
    givens = []
    for k in range(w - 1):
        f = block[k, k]
        g = block[k + 1, k]
        dnorm = math.hypot(abs(f), abs(g))
        if dnorm < 1e-300:
            givens.append((1.0 + 0.0j, 0.0 + 0.0j, dnorm))
            continue
        fc = np.conj(f) / dnorm
        gc = np.conj(g) / dnorm
        row_k = block[k, k:].copy()
        row_n = block[k + 1, k:].copy()
        block[k, k:] = fc * row_k + gc * row_n
        block[k + 1, k:] = (-g / dnorm) * row_k + (f / dnorm) * row_n
        givens.append((f / dnorm, g / dnorm, dnorm))
    # R @ G_0^dag @ ... and the shift restored on the diagonal.
    for k in range(w - 1):
        fd, gd, dnorm = givens[k]
        if dnorm < 1e-300:
            continue
        col_k = block[: k + 2, k].copy()
        col_n = block[: k + 2, k + 1].copy()
        block[: k + 2, k] = fd * col_k + gd * col_n
        block[: k + 2, k + 1] = -np.conj(gd) * col_k + np.conj(fd) * col_n
    block[diag] += mu


def general_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a general complex matrix, sorted by (real, imag)."""
    a = _as_matrix(m)
    if not np.all(np.isfinite(a)):
        raise NumericRangeError("non-finite input to eigenvalue iteration")
    n = a.shape[0]
    trace_in = complex(np.trace(a))
    h = _hessenberg(a)
    values: list[complex] = []
    hi = n - 1
    steps = 0
    cap = _QR_SWEEP_FACTOR * n
    stagnation = 0
    while hi >= 0:
        # The active block h[lo:hi+1, lo:hi+1] starts at the nearest row
        # lo <= hi whose h[lo, lo-1] is negligible (lo = 0 if none).  That
        # entry is zeroed: its test reads h[lo, lo], which the QR steps on
        # the block move, and a deflation once taken must stay taken.
        lo = hi
        while lo > 0:
            thr = _QR_DEFLATION_TOL * (abs(h[lo - 1, lo - 1]) + abs(h[lo, lo]))
            if abs(h[lo, lo - 1]) <= max(thr, 1e-300):
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if hi - lo < 2:
            if lo == hi:
                values.append(complex(h[hi, hi]))
            else:
                values.extend(_eig2x2(h[lo, lo], h[lo, hi], h[hi, lo], h[hi, hi]))
            hi = lo - 1
            stagnation = 0
            continue
        steps += 1
        stagnation += 1
        if steps > cap:
            raise ConvergenceError(
                f"QR iteration exceeded {cap} sweeps for a {n}x{n} matrix"
            )
        if stagnation % 12 == 0:
            mu = h[hi, hi] + 0.75 * abs(h[hi, hi - 1])
        else:
            mu = _wilkinson_shift(h, hi)
        _qr_step(h[lo : hi + 1, lo : hi + 1], mu)
    vals = np.array(values, dtype=complex)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    tr_err = abs(np.sum(vals) - trace_in)
    if tr_err > 1e-8 * (1.0 + abs(trace_in)):
        raise ConsistencyError(
            f"eigenvalue sum deviates from trace by {tr_err:.3e} for n={n}"
        )
    return vals


def _rank(a: np.ndarray, tol: float) -> int:
    """Numerical rank via Gaussian elimination with complete pivoting."""
    work = a.copy()
    n = min(a.shape)
    rank = 0
    for _ in range(n):
        sub = np.abs(work[rank:, rank:])
        flat = int(np.argmax(sub))
        i, j = divmod(flat, sub.shape[1])
        if sub[i, j] <= tol:
            break
        i += rank
        j += rank
        work[[rank, i], :] = work[[i, rank], :]
        work[:, [rank, j]] = work[:, [j, rank]]
        pivot = work[rank, rank]
        factors = work[rank + 1 :, rank] / pivot
        work[rank + 1 :, rank:] -= np.outer(factors, work[rank, rank:])
        rank += 1
    return rank


def is_defective_at(m, cluster_tol: float) -> bool:
    """True when some eigenvalue cluster has deficient geometric multiplicity."""
    a = _as_matrix(m)
    vals = general_eigenvalues(a)
    # Clusters: the connected components of "closer than cluster_tol".
    perm, blocks = _sectors(np.abs(vals[:, None] - vals[None, :]) < cluster_tol)
    order = range(vals.size) if perm is None else perm
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    for start, end in blocks:
        group = order[start:end]
        if len(group) < 2:
            continue
        lam = np.mean(vals[group])
        rank = _rank(a - lam * np.eye(a.shape[0], dtype=complex), cluster_tol * scale)
        if a.shape[0] - rank < len(group):
            return True
    return False
