"""Many-body spin operators on N qubits, assembled by index arithmetic.

Conventions: site 0 is the leftmost (most significant) tensor factor, so the
computational basis index of a product state is ``sum(bit_r * 2**(N-1-r))``.
All operators are dense complex matrices; ``hbar = 1`` throughout.  Their
entries come from those bits (Sandvik, AIP Conf. Proc. 1297, 135 (2010), sec. 4).
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

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


@dataclass(frozen=True)
class Operator:
    """Dense operator on an N-qubit Hilbert space.

    The wrapped matrix is made read-only so instances can be shared across
    concurrent workers.  ``site_term`` is the read-only 2x2 matrix h with
    ``matrix == sum_r h_r`` when the operator is a sum of one identical term
    per site; only :func:`site_sum` sets it, so it always agrees with
    ``matrix``.  Every other operator carries ``None``.

    ``spectrum`` is the ``HermitianSpectrum`` of ``matrix``, built on first
    use and then kept, so a battery is reduced to tridiagonal form once
    however many states and traces read it.  Building it computes the
    reduction, confined to the matrix's exact direct-sum blocks (the parity
    sectors of an XYZ battery, and the magnetization sectors too when
    gamma = 0), and the ascending ``values``, and nothing more; its ``ground``
    vector (inverse iteration, for ground states) and its ``vectors`` (the
    full QL, for Gibbs states) are each computed on first read and kept.
    ``normalize_spectrum`` hands its result the raw battery's spectrum
    mapped by the same affine map, so the raw and the normalized battery
    share one reduction.  ``hermitian_eig`` of an operator reads this
    spectrum too.  Its numeric Hermiticity check is the one gate for every
    eigen-based routine: a non-Hermitian ``matrix`` raises ``ValueError``
    there.
    """

    matrix: np.ndarray
    n_sites: int
    site_term: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if mat.shape[0] != 2**self.n_sites:
            raise ValueError(
                f"dimension {mat.shape[0]} does not match 2**{self.n_sites}"
            )
        mat = np.ascontiguousarray(mat)
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def spectrum(self):
        from .dense_linalg import HermitianSpectrum  # dense_linalg imports this module

        return HermitianSpectrum(self.matrix)


def pauli(axis: str) -> Operator:
    """Single-site Pauli matrix for ``axis`` in {'x', 'y', 'z', 'identity'}."""
    if axis not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}")
    return Operator(_PAULI[axis].copy(), n_sites=1)


def _assemble(n, term=None, sites=(), bonds=(), xy=(0.0, 0.0), zz=0.0, z=0.0) -> np.ndarray:
    """Dense matrix of sum_{r in sites} term_r + sum_{(r, s) in bonds} F_rs
    + zz sum_bonds Z_r Z_s + z sum_r Z_r on n sites, with site r at bit
    n - 1 - r of the basis index and z_r = 1 - 2 bit.  F_rs flips bits r and
    s, with element ``xy[0]`` on aligned spins and ``xy[1]`` on opposed ones;
    c_x XX + c_y YY is xy = (c_x - c_y, c_x + c_y), as YY's element is
    -z_r z_s times XX's.  Only nonzero entries are written into one zeroed
    matrix; the site terms' diagonal is summed in the order of ``sites``,
    and ZZ and Z are integer sums scaled once, so the entries are those of
    the Kronecker sums, bit for bit.  The cap is checked before allocating.
    """
    if n < 1 or n > max_sites():
        raise ValueError(f"n={n} outside the allowed range [1, {max_sites()}]")
    for r in itertools.chain(sites, *bonds):
        if not 0 <= r < n:
            raise ValueError(f"site {r} out of range for n={n}")
    if term is not None and np.shape(term) != (2, 2):
        raise ValueError(f"site terms must be 2x2, got shape {np.shape(term)}")
    d = 1 << n
    idx = np.arange(d)
    shift = n - 1 - np.arange(n)
    bit = (idx >> shift[:, None]) & 1
    out = np.zeros((d, d), dtype=complex)
    flat = out.reshape(-1)
    diag = np.zeros(d, dtype=complex)
    for r in sites:
        diag += term[bit[r], bit[r]]
        if term[0, 1] or term[1, 0]:
            flat[(idx ^ (1 << shift[r])) * d + idx] = term[1 - bit[r], bit[r]]
    spin = 1 - 2 * bit
    if xy[0] or xy[1]:
        for r, s in bonds:
            rows = idx ^ ((1 << shift[r]) | (1 << shift[s]))
            flat[rows * d + idx] = np.where(spin[r] == spin[s], xy[0], xy[1])
    if zz:
        diag += zz * sum(spin[r] * spin[s] for r, s in bonds)
    if z:
        diag += z * spin.sum(axis=0)
    flat[:: d + 1] = diag
    return out


def embed_site(op: Operator, site: int, n: int) -> Operator:
    """Embed a single-site operator at ``site`` in an ``n``-site chain.

    Returns I (x) ... (x) op (x) ... (x) I with ``op`` as the ``site``-th
    tensor factor counted from the left.
    """
    return Operator(_assemble(n, op.matrix, (site,)), n_sites=n)


def site_sum(op: Operator, n: int) -> Operator:
    """Sum of ``op`` embedded at every site of an ``n``-site chain.

    The result carries ``op.matrix`` as its ``site_term``, so propagators can
    use the exact product form exp(-i t sum_r h_r) = exp(-i t h)^(x)n.
    """
    out = Operator(_assemble(n, op.matrix, range(n)), n_sites=n)
    object.__setattr__(out, "site_term", op.matrix)
    return out


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
