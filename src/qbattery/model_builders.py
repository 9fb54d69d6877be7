"""Battery and charger Hamiltonians for the non-Hermitian charging setup.

Batteries are XYZ chains in a transverse field (or a non-interacting sum of
single-site sigma-x terms); chargers are either the local PT-symmetric field
``sigma^x + i sin(alpha) sigma^z`` per site, its Hermitian counterpart, or an
XY ring with imaginary (RT-symmetric) or real (Hermitian) anisotropy.

All couplings are dimensionless with hbar = 1.  Battery spectra are rescaled
to span exactly [-1, 1] so power comparisons across parameters stay fair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dense_linalg import REAL_SPECTRUM_TOL, general_eigenvalues
from .errors import DegenerateSpectrumError
from .tensor_core import Operator, Terms, bond_pairs, from_terms, max_sites, pauli

PT = "pt"
PT_HERMITIAN = "pt_hermitian"
RT = "rt"
RT_HERMITIAN = "rt_hermitian"
CHARGER_KINDS = (PT, PT_HERMITIAN, RT, RT_HERMITIAN)

UNBROKEN_REAL = "unbroken_real"
BROKEN_COMPLEX = "broken_complex"


@dataclass(frozen=True)
class BatterySpec:
    """XYZ chain parameters: J (xy coupling), gamma (anisotropy), delta (zz
    coupling), h (transverse field), chain length, and boundary condition."""

    J: float
    gamma: float
    delta: float
    h: float
    n_sites: int
    boundary: str = "periodic"

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValueError("interacting battery needs n_sites >= 2")
        if self.n_sites > max_sites():
            raise ValueError(f"n_sites {self.n_sites} exceeds cap {max_sites()}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        for name in ("J", "gamma", "delta", "h"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ChargerSpec:
    """Charger parameters; PT kinds use alpha only, RT kinds use
    (gamma_prime, J, h_prime) only."""

    kind: str
    n_sites: int
    alpha: float | None = None
    gamma_prime: float | None = None
    J: float | None = None
    h_prime: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHARGER_KINDS:
            raise ValueError(f"unknown charger kind {self.kind!r}")
        if self.n_sites < 1 or self.n_sites > max_sites():
            raise ValueError(f"n_sites {self.n_sites} outside [1, {max_sites()}]")
        if self.kind in (PT, PT_HERMITIAN):
            if self.alpha is None:
                raise ValueError(f"{self.kind} charger requires alpha")
            if not (self.gamma_prime is None and self.J is None and self.h_prime is None):
                raise ValueError(f"{self.kind} charger uses alpha only")
        else:
            if self.gamma_prime is None or self.J is None or self.h_prime is None:
                raise ValueError(f"{self.kind} charger requires gamma_prime, J, h_prime")
            if self.alpha is not None:
                raise ValueError(f"{self.kind} charger does not take alpha")
            if self.n_sites < 2:
                raise ValueError("RT charger needs n_sites >= 2")


def _xy_chain(J: float, aniso: complex, delta: float, h: float, n: int, boundary: str) -> Terms:
    """The terms (J/4) sum [(1+a) XX + (1-a) YY] + (delta/4) sum ZZ + (h/2) sum Z
    over the bonds of an n-site chain, with anisotropy a = ``aniso``; YY's
    element on a bond's flip is -1 on aligned spins and +1 on opposed ones."""
    xy = [0.25 * J * ((1.0 + aniso) + (1.0 - aniso) * yy) for yy in (-1.0, 1.0)]
    return Terms(n, bonds=bond_pairs(n, boundary), xy=xy, zz=0.25 * delta, z=0.5 * h)


def build_battery_xyz(spec: BatterySpec) -> Operator:
    """XYZ chain with transverse field:

    H = (J/4) sum [(1+gamma) XX + (1-gamma) YY] + (delta/4) sum ZZ
        + (h/2) sum Z.
    """
    return from_terms(_xy_chain(spec.J, spec.gamma, spec.delta, spec.h, spec.n_sites, spec.boundary))


def noninteracting_terms(n: int) -> Terms:
    """The term list of ``build_noninteracting_battery(n)``."""
    return Terms(n, pauli("x").matrix, range(n))


def build_noninteracting_battery(n: int) -> Operator:
    """Sum of single-site sigma^x terms.  Its spectrum comes from the site
    term (``SiteSpectrum``), with no eigensolve."""
    return from_terms(noninteracting_terms(n))


def spectrum_map(values: np.ndarray) -> tuple[float, float]:
    """(a, b) with a = 2/span and b = -(e_max + e_min)/span, the affine map
    a lambda + b that takes the ascending ``values`` onto [-1, 1]."""
    e_min = float(values[0])
    e_max = float(values[-1])
    span = e_max - e_min
    if span <= 1e-12 * max(1.0, abs(e_max), abs(e_min)):
        raise DegenerateSpectrumError(
            f"spectrum span {span:.3e} too small to normalize (H proportional to I)"
        )
    return 2.0 / span, -(e_max + e_min) / span


def normalize_spectrum(h: Operator) -> Operator:
    """Affine rescale a H + b I, a = 2/span, so the spectrum spans [-1, 1].

    The extremes come from ``h.spectrum`` (``spectrum_map``), and the
    result's ``spectrum`` is that same spectrum mapped by the same a and b:
    its levels are a lambda + b, and its ground vector and eigenvectors are
    those of ``h``, computed on first read.  So a battery is reduced once,
    raw and normalized together, and a sigma-x battery not at all.
    """
    spec = h.spectrum
    a, b = spectrum_map(spec.values)
    scaled = a * h.matrix
    scaled.flat[:: h.dim + 1] += b
    out = Operator(scaled, n_sites=h.n_sites)
    out.__dict__["spectrum"] = spec._affine(a, b)
    return out


def _pt_term(alpha: float, kind: str) -> np.ndarray:
    """sigma^x + i sin(alpha) sigma^z for ``PT``, sigma^x + sin(alpha) sigma^z
    for ``PT_HERMITIAN``."""
    s = math.sin(alpha)
    return pauli("x").matrix + ((1j * s) if kind == PT else s) * pauli("z").matrix


def charger_terms(spec: ChargerSpec) -> Terms:
    """The term list of ``build_charger(spec)``: one ``_pt_term`` per site
    for PT kinds; for RT kinds the battery's XY chain (``_xy_chain``) on a
    ring, with no ZZ:

    RT:           (J/4) sum [(1+i gamma') XX + (1-i gamma') YY] + (h'/2) sum Z
    RT-Hermitian: the gamma -> -i gamma' substitution, i.e. the standard XY
                  model with real anisotropy gamma'.
    """
    n = spec.n_sites
    if spec.kind in (PT, PT_HERMITIAN):
        return Terms(n, _pt_term(spec.alpha, spec.kind), range(n))
    aniso = 1j * spec.gamma_prime if spec.kind == RT else spec.gamma_prime
    return _xy_chain(spec.J, aniso, 0.0, spec.h_prime, n, "periodic")


def build_charger(spec: ChargerSpec) -> Operator:
    """Build the charger Hamiltonian for any charger kind
    (``charger_terms``).  A PT kind keeps its per-site term as
    ``site_term``."""
    return from_terms(charger_terms(spec))


def build_pt_charger(alpha: float, n: int) -> Operator:
    """Local PT-symmetric charger: sum over sites of sigma^x + i sin(alpha) sigma^z.

    alpha = pi/2 is the exceptional point where the per-site term becomes
    defective.  The per-site term is kept as ``site_term``.
    """
    return from_terms(Terms(n, _pt_term(alpha, PT), range(n)))


def build_pt_hermitian_charger(alpha: float, n: int) -> Operator:
    """Hermitian counterpart of the PT charger: sigma^x + sin(alpha) sigma^z per
    site, kept as ``site_term``."""
    return from_terms(Terms(n, _pt_term(alpha, PT_HERMITIAN), range(n)))


def build_rt_charger(spec: ChargerSpec) -> Operator:
    """XY ring charger with imaginary (RT) or real (Hermitian) anisotropy
    (``charger_terms``)."""
    if spec.kind not in (RT, RT_HERMITIAN):
        raise ValueError(f"build_rt_charger expects an RT spec, got {spec.kind!r}")
    return build_charger(spec)


def check_antilinear_symmetry(h: Operator, kind: str) -> float:
    """Relative residual of S conj(H) S^-1 - H for the PT or RT conjugation.

    PT: S is the sitewise sigma^x parity, which flips every bit of a basis
    index, so S conj(H) S is conj(H) with rows and columns reversed.  RT:
    S = exp(-i (pi/4) sum sigma^z) is diagonal, so its phases scale the rows
    and their conjugates the columns.
    """
    if kind.lower() == "pt":
        transformed = np.conj(h.matrix)[::-1, ::-1]
    elif kind.lower() == "rt":
        phase = reduce(np.kron, [np.exp(-1j * np.pi / 4.0 * np.array([1.0, -1.0]))] * h.n_sites)
        transformed = phase[:, None] * np.conj(h.matrix) * phase.conj()
    else:
        raise ValueError(f"unknown symmetry kind {kind!r}")
    num = float(np.sqrt(np.sum(np.abs(transformed - h.matrix) ** 2)))
    den = float(np.sqrt(np.sum(np.abs(h.matrix) ** 2)))
    return num / max(den, 1e-300)


def classify_phase(h: Operator) -> str:
    """'unbroken_real' when the full spectrum is real to tolerance, else
    'broken_complex'."""
    vals = general_eigenvalues(h)
    max_im = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
    max_mod = float(np.max(np.abs(vals))) if vals.size else 0.0
    if max_im < REAL_SPECTRUM_TOL * max(1.0, max_mod):
        return UNBROKEN_REAL
    return BROKEN_COMPLEX
