"""Initial battery states: ground states and canonical thermal states."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGroundStateError
from .tensor_core import Operator

PURE_VECTOR = "pure_vector"
DENSITY_MATRIX = "density_matrix"

DEFAULT_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumState:
    """A pure state vector or a density matrix, always normalized."""

    representation: str
    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if self.representation == PURE_VECTOR:
            if arr.ndim != 1:
                raise ValueError("pure state data must be a vector")
            norm = float(np.sqrt(np.real(arr.conj() @ arr)))
            if abs(norm - 1.0) > 1e-12:
                if norm < 1e-300:
                    raise ValueError("cannot normalize a zero vector")
                arr = arr / norm
        elif self.representation == DENSITY_MATRIX:
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("density matrix must be square")
            dev = float(np.max(np.abs(arr - arr.conj().T)))
            if dev > 1e-10 * max(1.0, float(np.max(np.abs(arr)))):
                raise ValueError(f"density matrix not Hermitian (deviation {dev:.3e})")
            arr = 0.5 * (arr + arr.conj().T)
            tr = float(np.real(np.trace(arr)))
            if abs(tr - 1.0) > 1e-10:
                if tr < 1e-300:
                    raise ValueError("density matrix trace underflow")
                arr = arr / tr
        else:
            raise ValueError(f"unknown representation {self.representation!r}")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("state entries must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.representation == PURE_VECTOR

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        return cls(PURE_VECTOR, vector)

    @classmethod
    def density(cls, matrix: np.ndarray) -> "QuantumState":
        return cls(DENSITY_MATRIX, matrix)

    def density_matrix(self) -> np.ndarray:
        """The state as a density matrix regardless of representation."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.real(np.trace(self.data @ self.data)))


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real
    positive (first such index on ties)."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) < 1e-300:
        return vec
    return vec * (abs(pivot) / pivot)


def ground_state(h: Operator, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> QuantumState:
    """Eigenvector of the smallest eigenvalue, phase-fixed.

    Raises when the ground space is degenerate within ``degeneracy_tol``; the
    caller must shift parameters away from the crossing.
    """
    dec = h.spectrum
    if h.dim > 1:
        gap = float(dec.values[1] - dec.values[0])
        if gap < degeneracy_tol:
            raise DegenerateGroundStateError(
                f"ground-state gap {gap:.3e} below tolerance {degeneracy_tol:.3e}"
            )
    vec = _fix_phase(dec.vectors[:, 0].copy())
    return QuantumState.pure(vec)


def thermal_state(h: Operator, beta: float) -> QuantumState:
    """Gibbs state exp(-beta H)/Z, computed in the eigenbasis.

    The largest exponent is factored out before exponentiating so large beta
    stays finite.  ``beta = inf`` returns the projector onto the (possibly
    degenerate) ground space, ``beta = 0`` the maximally mixed state.
    """
    if beta < 0 or (not math.isinf(beta) and not math.isfinite(beta)):
        raise ValueError(f"beta must be >= 0 or +inf, got {beta}")
    vals = h.spectrum.values
    vecs = h.spectrum.vectors
    if math.isinf(beta):
        span = max(1.0, abs(float(vals[0])))
        in_ground = vals - vals[0] <= DEFAULT_DEGENERACY_TOL * span
        weights = in_ground.astype(float)
        weights /= weights.sum()
    else:
        logw = -beta * (vals - vals[0])
        weights = np.exp(logw)
        weights /= weights.sum()
    rho = (vecs * weights[None, :]) @ vecs.conj().T
    return QuantumState.density(rho)
