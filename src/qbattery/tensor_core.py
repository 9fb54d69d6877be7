"""Many-body spin operators on N qubits, assembled by index arithmetic.

Conventions: site 0 is the leftmost (most significant) tensor factor, so the
computational basis index of a product state is ``sum(bit_r * 2**(N-1-r))``.
All operators are dense complex matrices; ``hbar = 1`` throughout.  Their
entries come from those bits (Sandvik, AIP Conf. Proc. 1297, 135 (2010), sec. 4),
written from one term list (``Terms``) that the operator keeps.

A ring operator that commutes with the cyclic site shift (the sigma-x
battery, the RT ring and its Hermitian twin, any sum of one term per site)
has a translation k = 0 block, ``k0_block``, built from the same term list
without a 2^N x 2^N matrix: its basis states are the orbit sums of the bit
rotation over sqrt(orbit length), about 2^N / N of them (Sandvik, sec. 4;
Weisse & Fehske, Lect. Notes Phys. 739, 529 (2008)).  A Hermitian sum of one
term per site takes its spectrum from that 2x2 term (``SiteSpectrum``),
with no eigensolve.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGroundStateError

DEFAULT_MAX_SITES = 12
_MAX_SITES_ENV = "QBATTERY_MAX_SITES"

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "identity": np.eye(2, dtype=complex),
}


def max_sites() -> int:
    """Current cap on the chain length (env ``QBATTERY_MAX_SITES`` overrides)."""
    raw = os.environ.get(_MAX_SITES_ENV)
    if raw is None:
        return DEFAULT_MAX_SITES
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_MAX_SITES_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{_MAX_SITES_ENV} must be >= 1, got {value}")
    return value


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the contiguous complex array ``a`` is finite.

    A finite sum of all real and imaginary parts decides it with one
    reduction and no temporary; only a sum that is not finite (an inf or nan
    entry, or finite entries whose sum overflows) takes the elementwise test.
    """
    view = a.view(float)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(view.sum()) or np.isfinite(view).all())


@dataclass(frozen=True)
class Terms:
    """The term list of an operator on ``n`` sites: the 2x2 ``term`` at each
    of ``sites``; on each of ``bonds`` (r, s) the flip F_rs of bits r and s,
    with element ``xy[0]`` on aligned and ``xy[1]`` on opposed spins
    (c_x XX + c_y YY is xy = (c_x - c_y, c_x + c_y), as YY's element is
    -z_r z_s times XX's); ``zz`` sum_bonds Z_r Z_s; and ``z`` sum_r Z_r.

    The chain length (``n < 1 or n > max_sites()``), the site range and the
    term's shape are checked on construction, before anything is allocated.
    The term is kept as a read-only copy, and is the list's ``site_term``
    when the list is that term at every site and nothing else.
    """

    n: int
    term: np.ndarray | None = None
    sites: tuple[int, ...] = ()
    bonds: tuple[tuple[int, int], ...] = ()
    xy: tuple[complex, complex] = (0.0, 0.0)
    zz: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        n = self.n
        if n < 1 or n > max_sites():
            raise ValueError(f"n={n} outside the allowed range [1, {max_sites()}]")
        sites = tuple(self.sites)
        bonds = tuple(tuple(b) for b in self.bonds)
        for r in itertools.chain(sites, *bonds):
            if not 0 <= r < n:
                raise ValueError(f"site {r} out of range for n={n}")
        if self.term is not None:
            if np.shape(self.term) != (2, 2):
                raise ValueError(f"site terms must be 2x2, got shape {np.shape(self.term)}")
            term = np.array(self.term, dtype=complex)
            term.setflags(write=False)
            object.__setattr__(self, "term", term)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "bonds", bonds)

    @property
    def site_term(self) -> np.ndarray | None:
        if self.sites == tuple(range(self.n)) and not self.bonds and not self.z:
            return self.term
        return None


class SiteSpectrum:
    """The spectrum of sum_r h_r on n sites from its Hermitian 2x2 site term
    h alone, with ``HermitianSpectrum``'s interface (``values``, ``ground``,
    ``vectors``, ``_affine``), and no reduction or QL pass.

    h has the levels lam_0 = tau - r <= lam_1 = tau + r, with tau its mean
    diagonal and r = hypot((h_00 - h_11) / 2, |h_01|), and the unit
    eigenvectors g and e, each taken from the row of h - lam I whose two
    terms add without cancelling.  The basis product state b has the level
    sum_r lam_(b_r) = (n - k) lam_0 + k lam_1, k its number of 1 bits, so
    ``values`` lists the n + 1 levels ascending, level k C(n, k) times.
    ``vectors`` is [g, e]^(x)n with its columns in that order, so a Gibbs
    state's factor is (V_s sqrt(p_s))^(x)n up to column order, and ``ground``
    is g^(x)n; each is built on first read and kept.  ``ground`` raises
    ``DegenerateGroundStateError`` at a site gap of 0.  ``_affine(a, b)`` is
    the spectrum of a M + b I, a > 0: values a lambda + b, the same vectors.
    """

    def __init__(self, term: np.ndarray, n: int):
        half = 0.5 * float(term[0, 0].real - term[1, 1].real)
        tau = 0.5 * float(term[0, 0].real + term[1, 1].real)
        off = complex(term[0, 1])
        r = math.hypot(half, abs(off))
        self._n, self._gap = n, 2.0 * r
        if r == 0.0:
            self._site = np.eye(2, dtype=complex)
        else:
            big = abs(half) + r  # |h_00 - lam| or |h_11 - lam|, never a cancellation
            if half >= 0.0:
                g, e = (off, -big), (big, off.conjugate())
            else:
                g, e = (-big, off.conjugate()), (off, big)
            self._site = np.array([g, e], dtype=complex).T / math.hypot(abs(off), big)
        levels = [(n - k) * (tau - r) + k * (tau + r) for k in range(n + 1)]
        self.values = _frozen(np.repeat(levels, [math.comb(n, k) for k in range(n + 1)]))

    def _affine(self, a: float, b: float) -> SiteSpectrum:
        out = object.__new__(SiteSpectrum)
        out.__dict__.update(self.__dict__)
        out.values = _frozen(a * self.values + b)
        return out

    @functools.cached_property
    def ground(self) -> np.ndarray:
        if self._gap == 0.0:
            raise DegenerateGroundStateError("site term has a degenerate ground level (gap 0)")
        psi = np.ones(1, dtype=complex)
        for _ in range(self._n):  # psi (x) g, site 0 leftmost
            psi = np.multiply.outer(psi, self._site[:, 0]).ravel()
        return _frozen(psi)

    @functools.cached_property
    def vectors(self) -> np.ndarray:
        idx = np.arange(1 << self._n)
        ones = sum((idx >> s) & 1 for s in range(self._n))
        kron = functools.reduce(np.kron, [self._site] * self._n, np.ones((1, 1), dtype=complex))
        return _frozen(kron[:, np.argsort(ones, kind="stable")])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Operator:
    """Dense operator on an N-qubit Hilbert space, or on its translation
    k = 0 block.

    The wrapped matrix is made read-only so instances can be shared across
    concurrent workers.  ``terms`` is the term list an operator built by
    ``from_terms`` was assembled from, and ``None`` for any other.
    ``site_term`` is the read-only 2x2 matrix h with ``matrix == sum_r h_r``
    when those terms are one identical term per site, and ``None`` otherwise.
    ``k0`` marks the translation k = 0 block of an ``n_sites`` ring operator
    (``k0_block``), whose dimension is the number of k = 0 orbits.

    ``spectrum`` is built on first use and then kept, so a battery's
    spectrum is computed once however many states and traces read it.  With
    a Hermitian ``site_term`` it is the ``SiteSpectrum`` of that term, from
    the 2x2 term alone.  Otherwise it is the ``HermitianSpectrum`` of
    ``matrix``: building it computes the reduction to tridiagonal form,
    confined to the matrix's exact direct-sum blocks (the parity sectors of
    an XYZ battery, and the magnetization sectors too when gamma = 0), and
    the ascending ``values``, and nothing more; its ``ground`` vector
    (inverse iteration, for ground states) and its ``vectors`` (the full QL,
    for Gibbs states) are each computed on first read and kept.
    ``normalize_spectrum`` hands its result the raw battery's spectrum
    mapped by the same affine map, so the raw and the normalized battery
    share one spectrum.  ``hermitian_eig`` of an operator reads this
    spectrum too.  ``HermitianSpectrum``'s numeric Hermiticity check is the
    one gate for every eigen-based routine: a non-Hermitian ``matrix``
    raises ``ValueError`` there.
    """

    matrix: np.ndarray
    n_sites: int
    k0: bool = False
    terms: Terms | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.k0:
            if self.n_sites > max_sites():
                raise ValueError(f"n_sites {self.n_sites} exceeds cap {max_sites()}")
            if mat.shape[0] != _orbits(self.n_sites)[0].size:
                raise ValueError(
                    f"dimension {mat.shape[0]} does not match the k = 0 block of {self.n_sites} sites"
                )
        elif mat.shape[0] != 2**self.n_sites:
            raise ValueError(
                f"dimension {mat.shape[0]} does not match 2**{self.n_sites}"
            )
        mat = np.ascontiguousarray(mat)
        if not _all_finite(mat):
            raise ValueError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def site_term(self) -> np.ndarray | None:
        return None if self.terms is None else self.terms.site_term

    @functools.cached_property
    def spectrum(self):
        term = self.site_term
        if term is not None and not (term - term.conj().T).any():
            return SiteSpectrum(term, self.n_sites)
        from .dense_linalg import HermitianSpectrum  # dense_linalg imports this module

        return HermitianSpectrum(self.matrix)


def pauli(axis: str) -> Operator:
    """Single-site Pauli matrix for ``axis`` in {'x', 'y', 'z', 'identity'}."""
    if axis not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return Operator(_PAULI[axis].copy(), n_sites=1)


def _entries(t: Terms, idx: np.ndarray):
    """Yield ``(rows, values)``, the nonzero entries of the columns ``idx``
    (basis indices) of the operator with term list ``t``, one flip pattern
    at a time and the diagonal (rows = idx) first.  Site r is bit n - 1 - r
    of the index, with z_r = 1 - 2 bit.  The site terms' diagonal is summed
    in the order of ``sites``, and ZZ and Z are integer sums scaled once, so
    the entries are those of the Kronecker sums, bit for bit."""
    shift = t.n - 1 - np.arange(t.n)
    bit = (idx >> shift[:, None]) & 1
    spin = 1 - 2 * bit
    diag = np.zeros(idx.size, dtype=complex)
    for r in t.sites:
        diag += t.term[bit[r], bit[r]]
    if t.zz:
        diag += t.zz * sum(spin[r] * spin[s] for r, s in t.bonds)
    if t.z:
        diag += t.z * spin.sum(axis=0)
    yield idx, diag
    if t.term is not None and (t.term[0, 1] or t.term[1, 0]):
        for r in t.sites:
            yield idx ^ (1 << shift[r]), t.term[1 - bit[r], bit[r]]
    if t.xy[0] or t.xy[1]:
        for r, s in t.bonds:
            rows = idx ^ ((1 << shift[r]) | (1 << shift[s]))
            yield rows, np.where(spin[r] == spin[s], t.xy[0], t.xy[1])


def _assemble(t: Terms) -> np.ndarray:
    """The dense matrix of the term list ``t``: only its nonzero entries
    (``_entries``) are written into one zeroed matrix."""
    d = 1 << t.n
    idx = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    flat = out.reshape(-1)
    for rows, vals in _entries(t, idx):
        flat[rows * d + idx] = vals
    return out


def from_terms(t: Terms) -> Operator:
    """The operator assembled from the term list ``t``, which it keeps."""
    out = Operator(_assemble(t), n_sites=t.n)
    object.__setattr__(out, "terms", t)
    return out


@functools.cache
def _orbits(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(reps, orbit, lengths)`` of the 2^n basis states under the cyclic
    bit rotation (site r -> r + 1 on the ring): the orbit representatives
    (each orbit's smallest index) ascending, the orbit of every basis index,
    and the length R of every orbit, a divisor of n.  Read-only, and kept
    per n."""
    d = 1 << n
    rep = np.arange(d)
    rot = rep
    for _ in range(n - 1):
        rot = ((rot << 1) | (rot >> (n - 1))) & (d - 1)
        np.minimum(rep, rot, out=rep)
    out = np.unique(rep, return_inverse=True, return_counts=True)
    return tuple(_frozen(a) for a in out)


def k0_block(t: Terms) -> np.ndarray:
    """The translation k = 0 block U^T H U of the ring operator H with term
    list ``t``; column a of U is the sum of the R_a basis states of orbit a
    (``_orbits``) over sqrt(R_a).

    H commutes with the site shift, so the sum of H[t, s] over t in orbit b
    is the same for every s in orbit a, and
    H0[b, a] = sqrt(R_a / R_b) sum_(t in orbit b) H[t, s_a] needs only the
    columns of the representatives s_a: no 2^n x 2^n matrix is formed.
    Raises ``ValueError`` for terms that do not commute with the shift (a
    site term on some sites only, or bonds other than the ring's).
    """
    ring = not t.bonds or (t.n >= 2 and t.bonds == tuple(bond_pairs(t.n)))
    if t.sites not in ((), tuple(range(t.n))) or not ring:
        raise ValueError("the k = 0 block needs terms on every site and bond of the ring")
    reps, orbit, lengths = _orbits(t.n)
    rows, vals = map(np.array, zip(*_entries(t, reps)))  # one row per flip pattern
    b = orbit[rows]
    out = np.zeros((reps.size, reps.size), dtype=complex)
    np.add.at(out, (b, np.arange(reps.size)), vals * np.sqrt(lengths / lengths[b]))
    return out


def embed_site(op: Operator, site: int, n: int) -> Operator:
    """Embed a single-site operator at ``site`` in an ``n``-site chain.

    Returns I (x) ... (x) op (x) ... (x) I with ``op`` as the ``site``-th
    tensor factor counted from the left.
    """
    return from_terms(Terms(n, op.matrix, (site,)))


def site_sum(op: Operator, n: int) -> Operator:
    """Sum of ``op`` embedded at every site of an ``n``-site chain.

    The result carries ``op.matrix`` as its ``site_term``, so propagators can
    use the exact product form exp(-i t sum_r h_r) = exp(-i t h)^(x)n.
    """
    return from_terms(Terms(n, op.matrix, range(n)))


def bond_pairs(n: int, boundary: str = "periodic") -> list[tuple[int, int]]:
    """Unique nearest-neighbor bonds of an ``n``-site chain.

    The two-site ring has exactly one bond; wrapping the sum there would
    count the same physical coupling twice.
    """
    if boundary not in ("periodic", "open"):
        raise ValueError(f"unknown boundary {boundary!r}")
    if n < 2:
        raise ValueError(f"bonds need n >= 2, got n={n}")
    if boundary == "open" or n == 2:
        return [(r, r + 1) for r in range(n - 1)]
    return [(r, (r + 1) % n) for r in range(n)]
