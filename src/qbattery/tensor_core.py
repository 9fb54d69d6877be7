"""Many-body spin operators on N qubits built from single-site Pauli matrices.

Conventions: site 0 is the leftmost (most significant) tensor factor, so the
computational basis index of a product state is ``sum(bit_r * 2**(N-1-r))``.
All operators are dense complex matrices; ``hbar = 1`` throughout.
"""

from __future__ import annotations

import functools
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
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        mat = np.ascontiguousarray(mat)
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


def site_product(factors: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kronecker product over an ``n``-site chain of the 2x2 ``factors[r]`` at
    each site r and the identity elsewhere, site 0 leftmost.

    Every many-body operator is assembled here, so the chain-length cap is
    checked here, before anything of size 2**n is allocated.
    """
    if n < 1 or n > max_sites():
        raise ValueError(f"n={n} outside the allowed range [1, {max_sites()}]")
    for r, f in factors.items():
        if not 0 <= r < n:
            raise ValueError(f"site {r} out of range for n={n}")
        if np.shape(f) != (2, 2):
            raise ValueError(f"site factors must be 2x2, got shape {np.shape(f)} at site {r}")
    # Each step is the Kronecker product out (x) f, formed by broadcasting:
    # numpy.kron makes the same products, but its wrapper costs more than
    # the arithmetic at these sizes.
    out = np.ones((1, 1), dtype=complex)
    for r in range(n):
        f = np.asarray(factors.get(r, _PAULI["identity"]))
        a, b = out.shape
        out = (out[:, None, :, None] * f[None, :, None, :]).reshape(2 * a, 2 * b)
    return out


def embed_site(op: Operator, site: int, n: int) -> Operator:
    """Embed a single-site operator at ``site`` in an ``n``-site chain.

    Returns I (x) ... (x) op (x) ... (x) I with ``op`` as the ``site``-th
    tensor factor counted from the left.
    """
    return Operator(site_product({site: op.matrix}, n), n_sites=n)


def site_sum(op: Operator, n: int) -> Operator:
    """Sum of ``op`` embedded at every site of an ``n``-site chain.

    The result carries ``op.matrix`` as its ``site_term``, so propagators can
    use the exact product form exp(-i t sum_r h_r) = exp(-i t h)^(x)n.
    """
    total = site_product({0: op.matrix}, n)
    for r in range(1, n):
        total += site_product({r: op.matrix}, n)
    out = Operator(total, n_sites=n)
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
