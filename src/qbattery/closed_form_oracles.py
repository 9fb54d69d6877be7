"""Closed-form results used to cross-check the numeric pipeline.

Every function here but ``pt_work_open_xx`` (any N) is for two sites:
the evolved state and instantaneous power under the local PT charger (and its
Hermitian counterpart), and under the XY ring charger with imaginary or real
anisotropy (coupling fixed to unity, field measured in units of the
coupling).  The expressions are exact on their validity domain and are the
independent oracles for the evolution/work pipeline; outside that domain
(trigonometric singularities, branch points) they refuse with a domain error
and the numeric path is the authority.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OracleDomainError

_SINGULAR_TOL = 1e-12
_DENOM_TOL = 1e-14

BRANCH_PT_STATE = "pt_state"
BRANCH_PT_POWER = "pt_power"
BRANCH_PT_HERM_POWER = "pt_herm_power"
BRANCH_RT_STATE = "rt_state"
BRANCH_RT_POWER_SUB = "rt_power_sub"
BRANCH_RT_POWER_SUPER = "rt_power_super"
BRANCH_RT_HERM_POWER = "rt_herm_power"


def _pt_trig(alpha: float, t: float) -> tuple[float, float, float]:
    c = math.cos(alpha)
    if abs(c) < _SINGULAR_TOL:
        raise OracleDomainError(
            "cos(alpha) ~ 0 (exceptional point): use the numeric propagator"
        )
    sin_tc = math.sin(t * c)
    if abs(sin_tc) < _SINGULAR_TOL:
        raise OracleDomainError(
            f"t*cos(alpha) = {t * c:.6g} is at a trigonometric singularity"
        )
    big_c = math.cos(alpha + t * c) ** 2
    big_s = sin_tc**2
    return c, big_c, big_s


def pt_state_n2(alpha: float, t: float) -> np.ndarray:
    """Two-site state evolved by the local PT charger, unit-normalized.

    Components are proportional to (-S, -i sin cos, -i sin cos, C) with
    S = sin^2(t cos a) and C = cos^2(a + t cos a); the second and third
    entries are always equal.
    """
    c, big_c, big_s = _pt_trig(alpha, t)
    cos2 = math.cos(alpha) ** 2
    common = (big_c + big_s) ** 2
    mid = -1j * cos2 * math.sin(t * c) * math.cos(alpha + t * c) / common
    vec = np.array(
        [-cos2 * big_s / common, mid, mid, cos2 * big_c / common], dtype=complex
    )
    norm = float(np.sqrt(np.real(vec.conj() @ vec)))
    if norm < 1e-300:
        raise OracleDomainError("state expression vanished; use the numeric path")
    return vec / norm


def pt_power_n2(t: float, h: float, J: float, alpha: float) -> float:
    """Instantaneous power under the PT charger for the two-site battery."""
    if t <= 0:
        raise OracleDomainError(f"t must be > 0, got {t}")
    if h == 0:
        raise OracleDomainError("h = 0 is outside the expression's domain")
    _, big_c, big_s = _pt_trig(alpha, t)
    denom = h * t * (big_c + big_s) ** 2
    if abs(denom) < _DENOM_TOL:
        raise OracleDomainError("vanishing denominator; use the numeric path")
    num = -h * big_c**2 + h * big_s**2 + J * big_c * big_s
    return num / denom + 1.0 / t


def pt_herm_power_n2(t: float, h: float, J: float, alpha: float) -> float:
    """Instantaneous power under the Hermitian counterpart of the PT charger."""
    if t <= 0:
        raise OracleDomainError(f"t must be > 0, got {t}")
    if h == 0:
        raise OracleDomainError("h = 0 is outside the expression's domain")
    c2 = math.cos(2.0 * alpha)
    c4 = math.cos(4.0 * alpha)
    freq = math.sqrt(6.0 - 2.0 * c2)
    num = (
        -h * c4
        + c2 * (8.0 * h - 2.0 * J)
        + math.cos(t * freq) * (c2 * (4.0 * h + 2.0 * J) - 12.0 * h - 2.0 * J)
        - 7.0 * h
        - J * math.cos(2.0 * t * freq)
        + 3.0 * J
    )
    bracket = -6.0 * c2 + 0.5 * c4 + 9.5
    return num / (2.0 * h * t * bracket) + 1.0 / t


def _rt_root(gamma: float, h: float) -> complex:
    disc = gamma * gamma - 4.0 * h * h
    if abs(disc) < _SINGULAR_TOL:
        raise OracleDomainError(
            "gamma'^2 = 4 h^2 branch point: use the numeric propagator"
        )
    return complex(np.lib.scimath.sqrt(disc))


def rt_state_n2(gamma: float, h: float, t: float) -> np.ndarray:
    """Two-site state evolved by the XY ring charger with imaginary
    anisotropy, unit-normalized: (A, B, B, C)/sqrt(N).

    The square root is taken on the principal branch, under which cosh/sinh
    of imaginary arguments reduce to cos/sin automatically.
    """
    root = _rt_root(gamma, h)
    ch = np.cosh(0.5 * t * root)
    sh = np.sinh(0.5 * t * root)
    a = gamma * sh / (2.0 * root) + 0.5 * (ch - 2.0j * h * sh / root)
    b = -0.5 * math.cos(0.5 * t) + 0.5j * math.sin(0.5 * t)
    c = gamma * sh / (2.0 * root) + 0.5 * (ch + 2.0j * h * sh / root)
    vec = np.array([a, b, b, c], dtype=complex)
    norm = float(np.sqrt(np.real(vec.conj() @ vec)))
    if norm < 1e-300:
        raise OracleDomainError("state expression vanished; use the numeric path")
    return vec / norm


def rt_power_n2(t: float, gamma_prime: float, h: float) -> float:
    """Instantaneous power under the RT charger (branch chosen by comparing
    gamma'^2 with 4 h^2)."""
    if t <= 0:
        raise OracleDomainError(f"t must be > 0, got {t}")
    g = gamma_prime
    disc = g * g - 4.0 * h * h
    if abs(disc) < _SINGULAR_TOL:
        raise OracleDomainError(
            "gamma'^2 = 4 h^2 branch point: use the numeric propagator"
        )
    if disc < 0.0:
        rq = math.sqrt(-disc)
        num = 2.0 * math.cos(0.5 * t) * (
            disc * math.cos(0.5 * t * rq) - g * rq * math.sin(0.5 * t * rq)
        )
        den_abs = abs(
            g * g * math.cos(rq * t) + g * g - g * rq * math.sin(rq * t) - 8.0 * h * h
        )
        if den_abs < _DENOM_TOL:
            raise OracleDomainError("vanishing denominator; use the numeric path")
        return num / (t * den_abs) + 1.0 / t
    rr = math.sqrt(disc)
    num = 2.0 * math.cos(0.5 * t) * (
        g * rr * math.sinh(0.5 * t * rr) + disc * math.cosh(0.5 * t * rr)
    )
    den_abs = abs(
        g * g * math.cosh(rr * t) + g * g + g * rr * math.sinh(rr * t) - 8.0 * h * h
    )
    if den_abs < _DENOM_TOL:
        raise OracleDomainError("vanishing denominator; use the numeric path")
    return 1.0 / t - num / (t * den_abs)


def rt_power_branch(gamma_prime: float, h: float) -> str:
    """Which RT power branch applies at these parameters."""
    disc = gamma_prime * gamma_prime - 4.0 * h * h
    return BRANCH_RT_POWER_SUPER if disc > 0 else BRANCH_RT_POWER_SUB


def rt_herm_power_n2(t: float, gamma_prime: float, h: float) -> float:
    """Instantaneous power under the Hermitian XY charger (real anisotropy)."""
    if t <= 0:
        raise OracleDomainError(f"t must be > 0, got {t}")
    s4 = gamma_prime * gamma_prime + 4.0 * h * h
    if s4 < _DENOM_TOL:
        raise OracleDomainError("gamma'^2 + 4 h^2 = 0 is outside the domain")
    w = math.sqrt(s4)
    bracket = (
        gamma_prime * math.sin(0.5 * t) * math.sin(0.5 * t * w) / w
        + math.cos(0.5 * t) * math.cos(0.5 * t * w)
    )
    return (1.0 - bracket) / t


def pt_work_open_xx(n: int, alpha: float, t: float, hermitian: bool = False) -> float:
    """Normalized work of the N-site open XX battery (J = h = 1) from its
    all-down ground state under the PT charger or, with ``hermitian``, its
    twin.  The state stays k(t)|down>^(x)N and the raw span is N, so
    W_N = (2/N) [(N - 1)/4 (x^2 + y^2) + (N/2)(z + 1)] with (x, y, z) the
    Bloch vector of k(t)|down> = -i S |up> + (cos(w t) + i g S)|down>, where
    g = i sin(alpha) or sin(alpha), w^2 = 1 + g^2 and S = sin(w t)/w (t at
    the exceptional point w = 0)."""
    g = math.sin(alpha) if hermitian else 1j * math.sin(alpha)
    w = math.sqrt(abs(1.0 + g * g))
    up = math.sin(w * t) / w if w > 0 else t
    down = abs(math.cos(w * t) + 1j * g * up) ** 2
    norm = up * up + down
    xy2, z = 4.0 * up * up * down / norm**2, (up * up - down) / norm
    return (2.0 / n) * ((n - 1) / 4.0 * xy2 + (n / 2.0) * (z + 1.0))
