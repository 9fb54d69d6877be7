import dataclasses
import functools
import math

import numpy as np
import pytest

from qbattery.errors import DegenerateGroundStateError
from qbattery.model_builders import (
    BatterySpec,
    build_battery_xyz,
    build_noninteracting_battery,
    normalize_spectrum,
)
from qbattery.state_prep import QuantumState, ground_state, thermal_state
from qbattery.tensor_core import Operator

SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def xx_battery(j=1.0, h=1.0, n=2):
    return normalize_spectrum(
        build_battery_xyz(BatterySpec(J=j, gamma=0.0, delta=0.0, h=h, n_sites=n))
    )


def test_ground_state_xx_is_last_basis_vector():
    psi = ground_state(xx_battery())
    want = np.zeros(4, dtype=complex)
    want[3] = 1.0
    assert np.max(np.abs(psi.data - want)) < 1e-12


def test_ground_state_noninteracting():
    psi = ground_state(normalize_spectrum(build_noninteracting_battery(2)))
    want = 0.5 * np.array([1.0, -1.0, -1.0, 1.0], dtype=complex)
    assert np.max(np.abs(psi.data - want)) < 1e-12


def test_ground_state_degeneracy_at_level_crossing():
    # eigenvalues -h and -J/2 cross at J = 2h
    raw = build_battery_xyz(BatterySpec(J=2.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2))
    with pytest.raises(DegenerateGroundStateError):
        ground_state(raw)


def test_ground_state_requires_hermitian():
    op = Operator(np.array([[0, 1], [0, 0]], dtype=complex), n_sites=1)
    with pytest.raises(ValueError):
        ground_state(op)


def test_thermal_infinite_temperature_is_maximally_mixed():
    rho = thermal_state(xx_battery(), beta=0.0)
    assert np.max(np.abs(rho.data - np.eye(4) / 4.0)) < 1e-12


def test_thermal_zero_temperature_projector():
    sz_op = Operator(SZ, n_sites=1)
    rho = thermal_state(sz_op, beta=math.inf)
    assert np.max(np.abs(rho.data - np.diag([0.0, 1.0]))) < 1e-12


def test_thermal_two_level_gibbs():
    sz_op = Operator(SZ, n_sites=1)
    rho = thermal_state(sz_op, beta=1.0)
    z = np.exp(-1.0) + np.exp(1.0)
    want = np.diag([np.exp(-1.0), np.exp(1.0)]) / z
    assert np.max(np.abs(rho.data - want)) < 1e-12


def test_thermal_commutes_with_hamiltonian():
    h = xx_battery(j=0.7, h=1.1)
    rho = thermal_state(h, beta=1.7)
    comm = rho.data @ h.matrix - h.matrix @ rho.data
    assert np.max(np.abs(comm)) < 1e-10


def test_thermal_large_beta_approaches_ground_projector():
    h = xx_battery()
    rho = thermal_state(h, beta=50.0)
    psi = ground_state(h)
    proj = np.outer(psi.data, psi.data.conj())
    gap = 0.5  # normalized XX gap at J = h
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.data - proj)))
    assert dist <= math.exp(-50.0 * gap) + 1e-10


def test_thermal_energy_nonincreasing_in_beta():
    h = xx_battery(j=0.6, h=1.0)
    energies = []
    for beta in (0.0, 0.3, 1.0, 3.0, 10.0, 50.0):
        rho = thermal_state(h, beta)
        energies.append(float(np.real(np.trace(h.matrix @ rho.data))))
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_thermal_rejects_negative_beta():
    with pytest.raises(ValueError):
        thermal_state(xx_battery(), beta=-1.0)


def test_quantum_state_validation():
    v = np.array([3.0, 4.0], dtype=complex)
    st = QuantumState.pure(v)  # normalized on construction
    assert abs(np.linalg.norm(st.data) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        QuantumState.pure(np.zeros(2, dtype=complex))
    with pytest.raises(ValueError):
        QuantumState.density(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    rho = QuantumState.density(np.diag([2.0, 2.0]).astype(complex))
    assert abs(np.trace(rho.data) - 1.0) < 1e-12


def test_purity():
    psi = ground_state(xx_battery())
    assert psi.purity() == 1.0
    rho = thermal_state(xx_battery(), beta=0.0)
    assert abs(rho.purity() - 0.25) < 1e-12


def test_quantum_state_kind_follows_data_shape():
    assert [f.name for f in dataclasses.fields(QuantumState)] == ["data"]
    assert QuantumState(np.array([1.0, 0.0])).is_pure
    assert not QuantumState(np.eye(2) / 2).is_pure
    with pytest.raises(ValueError):
        QuantumState.pure(np.eye(2) / 2)
    with pytest.raises(ValueError):
        QuantumState.density(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        QuantumState.density(np.ones((2, 3)) / 2)
    with pytest.raises(ValueError):
        QuantumState(np.ones((2, 2, 2)))


def test_factor_reproduces_the_state():
    psi = ground_state(xx_battery())
    assert psi.factor.shape == (4, 1)
    assert np.array_equal(psi.factor[:, 0], psi.data)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    user = QuantumState.density(a @ a.conj().T)
    battery = xx_battery(j=0.7, n=3)
    gibbs = thermal_state(battery, beta=1.3)
    vals, vecs = np.linalg.eigh(battery.matrix)
    boltzmann = np.exp(-1.3 * (vals - vals[0]))
    want = (vecs * (boltzmann / boltzmann.sum())) @ vecs.conj().T
    assert np.max(np.abs(gibbs.data - want)) < 1e-12
    for state in (psi, user, gibbs):
        w = state.factor
        assert state.factor is w
        assert not w.flags.writeable
        assert np.max(np.abs(w @ w.conj().T - state.density_matrix())) < 1e-14


def test_factor_rejects_negative_eigenvalue():
    rho = QuantumState.density(np.diag([1.5, 0.2, -0.2, -0.5]).astype(complex))
    with pytest.raises(ValueError, match=r"negative eigenvalue -5\.000e-01"):
        rho.factor
    # rounding-level negatives of a rank-deficient state are clipped
    psi = ground_state(xx_battery())
    proj = QuantumState.density(np.outer(psi.data, psi.data.conj()))
    assert np.max(np.abs(proj.factor @ proj.factor.conj().T - proj.data)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("beta", [0.0, 0.7, 3.0, math.inf])
def test_sigma_x_gibbs_state_is_the_site_product(n, beta):
    # The normalized sigma-x battery is sum_r sigma^x_r / n, so its Gibbs
    # state is the n-th Kronecker power of the one-site Gibbs state of
    # sigma^x / n, whose factor is V_s sqrt(p_s).
    h = normalize_spectrum(build_noninteracting_battery(n))
    rho = thermal_state(h, beta)
    lam = np.array([-1.0, 1.0]) / n
    p = np.exp(-beta * (lam - lam[0])) if math.isfinite(beta) else np.array([1.0, 0.0])
    site = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0) * np.sqrt(p / p.sum())
    w = functools.reduce(np.kron, [site] * n)
    assert np.max(np.abs(rho.data - w @ w.conj().T)) < 1e-14
    assert np.max(np.abs(rho.factor @ rho.factor.conj().T - rho.data)) < 1e-15
