"""Initial battery states: ground states and canonical thermal states."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dense_linalg import hermitian_eig
from .errors import DegenerateGroundStateError
from .tensor_core import Operator, _all_finite

DEFAULT_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class QuantumState:
    """A normalized state: a 1-d ``data`` is a pure state vector, a 2-d one
    a density matrix.

    ``factor`` is the read-only (d, r) column block W with rho = W W^dag that
    propagation and measurement use: the vector as one column, or V sqrt(w)
    from the eigenpairs (w, V) of a density matrix, computed on first use and
    kept.  It raises ``ValueError`` for an eigenvalue below -1e-10.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=complex)
        if arr.ndim == 1:
            norm = float(np.sqrt(np.real(arr.conj() @ arr)))
            if abs(norm - 1.0) > 1e-12:
                if norm < 1e-300:
                    raise ValueError("cannot normalize a zero vector")
                arr = arr / norm
        elif arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
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
            raise ValueError(f"state data must be a vector or a square matrix, got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        if not _all_finite(arr):
            raise ValueError("state entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    @property
    def is_pure(self) -> bool:
        return self.data.ndim == 1

    @classmethod
    def pure(cls, vector: np.ndarray) -> "QuantumState":
        if np.ndim(vector) != 1:
            raise ValueError("pure state data must be a vector")
        return cls(vector)

    @classmethod
    def density(cls, matrix: np.ndarray) -> "QuantumState":
        if np.ndim(matrix) != 2:
            raise ValueError("density matrix must be square")
        return cls(matrix)

    @functools.cached_property
    def factor(self) -> np.ndarray:
        if self.is_pure:
            return self.data[:, None]
        dec = hermitian_eig(self.data)
        if dec.values[0] < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {dec.values[0]:.3e}")
        w = dec.vectors * np.sqrt(np.clip(dec.values, 0.0, None))
        w.setflags(write=False)
        return w

    def density_matrix(self) -> np.ndarray:
        """The state as a density matrix regardless of representation."""
        if self.is_pure:
            return np.outer(self.data, self.data.conj())
        return self.data

    def purity(self) -> float:
        if self.is_pure:
            return 1.0
        return float(np.real(np.trace(self.data @ self.data)))


def _mixed(factor: np.ndarray) -> QuantumState:
    """W W^dag for a unit-Frobenius W, which it keeps as its ``factor``."""
    state = QuantumState.density(factor @ factor.conj().T)
    factor.setflags(write=False)
    state.__dict__["factor"] = factor
    return state


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude component is real
    positive (first such index on ties)."""
    idx = int(np.argmax(np.abs(vec)))
    pivot = vec[idx]
    if abs(pivot) < 1e-300:
        return vec
    return vec * (abs(pivot) / pivot)


def ground_state(h: Operator) -> QuantumState:
    """Eigenvector of the smallest eigenvalue, phase-fixed: the ``ground``
    vector of ``h.spectrum``, so no other eigenvector is computed.

    Raises when the ground space is degenerate within
    ``DEFAULT_DEGENERACY_TOL``; the caller must shift parameters away from
    the crossing.
    """
    return _ground(h.spectrum)


def _ground(spec) -> QuantumState:
    """``ground_state`` of the operator whose spectrum is ``spec``."""
    if spec.values.size > 1:
        gap = float(spec.values[1] - spec.values[0])
        if gap < DEFAULT_DEGENERACY_TOL:
            raise DegenerateGroundStateError(
                f"ground-state gap {gap:.3e} below tolerance {DEFAULT_DEGENERACY_TOL:.3e}"
            )
    return QuantumState.pure(_fix_phase(spec.ground))


def thermal_state(h: Operator, beta: float) -> QuantumState:
    """Gibbs state exp(-beta H)/Z, computed in the eigenbasis and carrying
    its factor V sqrt(w) from the spectrum of ``h``.

    The largest exponent is factored out before exponentiating so large beta
    stays finite.  ``beta = inf`` returns the projector onto the (possibly
    degenerate) ground space, ``beta = 0`` the maximally mixed state.
    """
    if beta < 0 or (not math.isinf(beta) and not math.isfinite(beta)):
        raise ValueError(f"beta must be >= 0 or +inf, got {beta}")
    dec = hermitian_eig(h)  # the cached h.spectrum, with all its vectors
    vals, vecs = dec.values, dec.vectors
    if math.isinf(beta):
        span = max(1.0, abs(float(vals[0])))
        weights = (vals - vals[0] <= DEFAULT_DEGENERACY_TOL * span).astype(float)
    else:
        weights = np.exp(-beta * (vals - vals[0]))
    weights /= weights.sum()
    return _mixed(vecs * np.sqrt(weights))
