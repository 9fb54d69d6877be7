import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbattery.dense_linalg import (
    _EPS,
    HermitianSpectrum,
    _check_hermitian,
    _form_q,
    _frobenius,
    _inverse_iteration,
    _ql_implicit,
    _rank,
    _reflector,
    _sectors,
    expm_array,
    general_eigenvalues,
    hermitian_eig,
    is_defective_at,
)
from qbattery.errors import ConvergenceError, DegenerateGroundStateError, NumericRangeError
from qbattery.model_builders import (
    RT,
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_noninteracting_battery,
    build_rt_charger,
    normalize_spectrum,
)
from qbattery.state_prep import ground_state
from qbattery.tensor_core import Operator

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def taylor_expm(a, terms=200):
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


# --- matrix exponential -----------------------------------------------------


def test_expm_zero_is_identity():
    got = expm_array(np.zeros((4, 4), dtype=complex))
    assert np.max(np.abs(got - np.eye(4))) < 1e-14


def test_expm_diagonal():
    t = 1.3
    got = expm_array(-1j * t * SZ)
    want = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    assert np.max(np.abs(got - want)) < 1e-14


def test_expm_against_taylor_series():
    a = -1j * (SX + 1j * np.sin(np.pi / 3) * SZ)
    assert np.max(np.abs(expm_array(a) - taylor_expm(a))) < 1e-12


def test_expm_inverse_identity_random():
    rng = np.random.default_rng(11)
    for d in (2, 3, 7, 16):
        a = random_complex(rng, d)
        a *= 10.0 / np.abs(a).sum(axis=0).max()
        err = np.max(np.abs(expm_array(a) @ expm_array(-a) - np.eye(d)))
        assert err < 1e-10


def test_expm_unitary_for_hermitian_generator():
    rng = np.random.default_rng(12)
    for t in (0.5, 7.0, 50.0):
        h = random_complex(rng, 8)
        h = 0.5 * (h + h.conj().T)
        u = expm_array(-1j * t * h)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("params", [(0.3, 1.5), (1.2, 0.2)], ids=["unbroken", "broken"])
def test_expm_batch_matches_mpmath_on_rt_chargers(n, params):
    # The RT chargers of the sweeps have no product form, so every RT trace
    # chains exponentials of this kernel; (gamma', h') sit in the unbroken and
    # the broken phase.  The reference exponentiates the same double matrices.
    mpmath = pytest.importorskip("mpmath")
    gamma_prime, h_prime = params
    spec = ChargerSpec(kind=RT, n_sites=n, gamma_prime=gamma_prime, J=1.0, h_prime=h_prime)
    times = np.array([0.05, 1.0, 5.0, 10.0])
    stack = times[:, None, None] * (-1j * build_rt_charger(spec).matrix)
    got = [expm_array(a) for a in stack]
    with mpmath.workdps(50):
        for a, k in zip(stack, got):
            want = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=complex)
            assert np.linalg.norm(k - want) <= 1e-13 * np.linalg.norm(want)


def test_matrix_exponential_overflow():
    a = 1e3 * np.eye(2, dtype=complex)
    with pytest.raises(NumericRangeError, match="overflowed"):
        expm_array(a)
    with np.errstate(invalid="ignore"):
        scaled = np.inf * a
    with pytest.raises(NumericRangeError, match="non-finite input"):
        expm_array(scaled)


# --- Hermitian eigendecomposition -------------------------------------------


def test_hermitian_eig_pauli_spectra():
    dec = hermitian_eig(SZ)
    assert np.allclose(dec.values, [-1.0, 1.0], atol=1e-14)
    xx = np.kron(SX, SX)
    dec = hermitian_eig(xx)
    assert np.allclose(dec.values, [-1.0, -1.0, 1.0, 1.0], atol=1e-13)


def test_hermitian_eig_xx_battery_characteristic_roots():
    # H = (J/4)(XX + YY) + (h/2)(ZI + IZ) at J = h = 1; the characteristic
    # polynomial factors into (x^2 - h^2)(x^2 - J^2/4).
    sy = np.array([[0, -1j], [1j, 0]])
    h = 0.25 * (np.kron(SX, SX) + np.kron(sy, sy)) + 0.5 * (
        np.kron(SZ, np.eye(2)) + np.kron(np.eye(2), SZ)
    )
    dec = hermitian_eig(h)
    assert np.allclose(dec.values, [-1.0, -0.5, 0.5, 1.0], atol=1e-13)


def test_hermitian_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(21)
    for d in (2, 5, 17, 40):
        m = random_complex(rng, d)
        m = 0.5 * (m + m.conj().T)
        dec = hermitian_eig(m)
        norm = np.sqrt(np.sum(np.abs(m) ** 2))
        rebuilt = (dec.vectors * dec.values[None, :]) @ dec.vectors.conj().T
        assert np.max(np.abs(rebuilt - m)) < 1e-9 * norm
        gram = dec.vectors.conj().T @ dec.vectors
        assert np.max(np.abs(gram - np.eye(d))) < 1e-10
        assert np.all(np.diff(dec.values) >= -1e-14)
        residual = m @ dec.vectors - dec.vectors * dec.values[None, :]
        assert np.max(np.abs(residual)) < 1e-9 * max(norm, 1.0)


def test_hermitian_eig_matches_numpy_reference():
    rng = np.random.default_rng(22)
    for d in (3, 16, 33):
        m = random_complex(rng, d)
        m = 0.5 * (m + m.conj().T)
        got = hermitian_eig(m, compute_vectors=False).values
        assert np.max(np.abs(got - np.linalg.eigvalsh(m))) < 1e-11 * max(
            1.0, np.abs(m).max()
        )


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(SX + 1j * SZ)


def test_hermitian_eig_values_only_matches_full():
    rng = np.random.default_rng(23)
    m = random_complex(rng, 12)
    m = 0.5 * (m + m.conj().T)
    full = hermitian_eig(m).values
    vals = hermitian_eig(m, compute_vectors=False).values
    assert np.max(np.abs(full - vals)) < 1e-12


# --- ground vector by inverse iteration, against numpy.linalg.eigh -----------


def assert_ground_matches_eigh(m):
    """``HermitianSpectrum(m).ground`` is a unit eigenvector of ``values[0]``
    (residual <= 1e-13) and the reference ground vector up to phase
    (1 - |overlap| <= 1e-12); the values are those of a values-only solve."""
    spec = HermitianSpectrum(m)
    assert np.array_equal(spec.values, hermitian_eig(m, compute_vectors=False).values)
    v = spec.ground
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
    assert np.linalg.norm(m @ v - spec.values[0] * v) <= 1e-13
    ref = np.linalg.eigh(m)[1][:, 0]
    assert 1.0 - abs(np.vdot(ref, v)) <= 1e-12


@settings(derandomize=True, max_examples=16, deadline=None)
@given(
    n=st.integers(2, 8),
    boundary=st.sampled_from(["open", "periodic"]),
    j=st.floats(-1.9, 1.9),
    gamma=st.floats(0.0, 1.0),
    delta=st.floats(-2.0, 0.0),
)
@example(n=8, boundary="open", j=1.0, gamma=0.0, delta=0.0)
@example(n=8, boundary="periodic", j=-1.3, gamma=0.4, delta=-0.7)
def test_ground_vector_of_xyz_battery_matches_eigh(n, boundary, j, gamma, delta):
    spec = BatterySpec(J=j, gamma=gamma, delta=delta, h=1.0, n_sites=n, boundary=boundary)
    m = normalize_spectrum(build_battery_xyz(spec)).matrix
    vals = np.linalg.eigvalsh(m)
    if vals[1] - vals[0] < 1e-4:  # a (near-)degenerate ground space has no one vector
        return
    assert_ground_matches_eigh(m)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_ground_vector_of_field_battery_matches_eigh(n):
    assert_ground_matches_eigh(normalize_spectrum(build_noninteracting_battery(n)).matrix)


@pytest.mark.parametrize("h", [1.0, -1.0])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_ground_vector_of_diagonal_battery_matches_eigh(n, h):
    # J = 0 leaves a diagonal matrix: no reflector, and T splits at every
    # index.  The ground level sits last for h > 0 and first for h < 0, so
    # the zero pivot of T - lam I is met at the end and at the start.
    m = build_battery_xyz(BatterySpec(J=0.0, gamma=0.3, delta=-0.4, h=h, n_sites=n)).matrix
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
    assert_ground_matches_eigh(m)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    exponent=st.floats(4.0, 8.0),
    d=st.integers(2, 16),
    seed=st.integers(0, 2**16),
)
@example(exponent=8.0, d=16, seed=0)
@example(exponent=4.0, d=2, seed=1)
def test_ground_vector_at_near_degenerate_gap_matches_eigh(exponent, d, seed):
    rng = np.random.default_rng(seed)
    levels = np.concatenate([[-1.0, -1.0 + 10.0**-exponent], np.linspace(-0.5, 1.0, d)[2:]])
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    m = (u * levels) @ u.conj().T
    assert_ground_matches_eigh(0.5 * (m + m.conj().T))


def test_ground_vector_of_exchange_symmetric_pair():
    # On T = [[0, 1], [1, 0]] the all-ones start would be the exact
    # eigenvector of +1, orthogonal to the ground vector (1, -1)/sqrt(2).
    m = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert_ground_matches_eigh(m)
    x = _inverse_iteration(np.zeros(2), np.ones(1), -1.0, 1e-14)
    assert abs(abs(x[0] - x[1]) - np.sqrt(2.0)) <= 1e-15


def test_ground_vector_is_reproducible():
    m = normalize_spectrum(build_noninteracting_battery(4)).matrix
    assert np.array_equal(HermitianSpectrum(m).ground, HermitianSpectrum(m).ground)


def test_inverse_iteration_raises_when_the_residual_stays_above_its_gate():
    # 0.5 is no eigenvalue of diag(0, 1), so no step meets the gate.
    with pytest.raises(ConvergenceError, match="dimension 2"):
        _inverse_iteration(np.array([0.0, 1.0]), np.zeros(1), 0.5, 1e-13)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_periodic_battery_at_j_equal_h_stays_degenerate(n):
    raw = build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=n))
    with pytest.raises(DegenerateGroundStateError):
        ground_state(normalize_spectrum(raw))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    parts=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), min_size=1, max_size=12)
)
@example(parts=[(0.0, 0.0), (3.0, -4.0)])  # x_0 = 0: beta is real
@example(parts=[(-1.0, 1.0), (1e-9, 0.0), (0.0, 1e-9)])  # x nearly along e_0
def test_reflector_maps_x_onto_beta_e0(parts):
    x = np.array([complex(a, b) for a, b in parts])
    xnorm = float(np.linalg.norm(x))
    assume(xnorm > 1e-100)
    out = np.full_like(x, np.nan)
    assert _reflector(x, out, 2.0 * xnorm) is None
    assert np.all(np.isnan(out))
    beta = _reflector(x, out, 0.5 * xnorm)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-14
    e0 = np.zeros_like(x)
    e0[0] = 1.0
    assert np.max(np.abs(x - 2.0 * np.vdot(out, x) * out - beta * e0)) <= 1e-14 * xnorm
    # beta has the phase opposite to x_0, so v_0 = x_0 - beta cancels nothing
    assert abs(beta * np.conj(x[0]) + xnorm * abs(x[0])) <= 1e-14 * xnorm * abs(x[0])


# --- reduction by exact direct-sum blocks ------------------------------------


def hidden_direct_sum(sizes, seed, shared):
    """Random Hermitian blocks of the given sizes, each exactly Hermitian
    with levels in [-1, 1], assembled as a direct sum and hidden by a random
    basis permutation.  With ``shared`` every block has -0.9 and 0.5 among
    its levels, so blocks share eigenvalues and the ground level is tied
    across blocks.  Returns the matrix and its hidden permutation."""
    rng = np.random.default_rng(seed)
    d = sum(sizes)
    m = np.zeros((d, d), dtype=complex)
    start = 0
    for b in sizes:
        levels = rng.uniform(-1.0, 1.0, b)
        if shared:
            levels[: min(b, 2)] = [-0.9, 0.5][: min(b, 2)]
        u, _ = np.linalg.qr(rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b)))
        block = (u * levels) @ u.conj().T
        m[start : start + b, start : start + b] = 0.5 * (block + block.conj().T)
        start += b
    perm = rng.permutation(d)
    return m[np.ix_(perm, perm)], perm


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
    shared=st.booleans(),
)
@example(sizes=[1], seed=0, shared=False)
@example(sizes=[1, 2, 1, 2], seed=1, shared=True)
@example(sizes=[2, 12, 1], seed=2, shared=False)
@example(sizes=[12, 12], seed=3, shared=True)
def test_hidden_direct_sum_is_split_and_solved(sizes, seed, shared):
    m, hidden = hidden_direct_sum(sizes, seed, shared)
    d = m.shape[0]
    perm, blocks = _sectors(m)
    assert sorted(e - s for s, e in blocks) == sorted(sizes)
    # Each block found is one block of the direct sum.
    block_of = np.repeat(np.arange(len(sizes)), sizes)[hidden]
    order = np.arange(d) if perm is None else np.array(perm)
    for s, e in blocks:
        assert np.unique(block_of[order[s:e]]).size == 1
    norm = np.linalg.norm(m)
    vals = np.linalg.eigvalsh(m)
    spec = HermitianSpectrum(m)
    assert np.max(np.abs(spec.values - vals)) <= 1e-13 * norm
    x = spec.vectors
    assert np.max(np.abs(x.conj().T @ x - np.eye(d))) <= 1e-12
    assert np.max(np.abs(m @ x - x * spec.values)) <= 1e-12 * max(norm, 1.0)
    if d > 1 and vals[1] - vals[0] >= 1e-4:
        assert_ground_matches_eigh(m)


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_anisotropic_battery_splits_by_parity(n, boundary):
    spec = BatterySpec(J=1.1, gamma=0.4, delta=-0.5, h=1.0, n_sites=n, boundary=boundary)
    perm, blocks = _sectors(build_battery_xyz(spec).matrix)
    assert blocks == [(0, 2 ** (n - 1)), (2 ** (n - 1), 2**n)]
    parity = [bin(i).count("1") % 2 for i in perm]
    assert parity == [0] * 2 ** (n - 1) + [1] * 2 ** (n - 1)


@pytest.mark.parametrize("delta", [0.0, -0.7])
@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_xx_battery_splits_by_magnetization(n, boundary, delta):
    spec = BatterySpec(J=1.0, gamma=0.0, delta=delta, h=1.0, n_sites=n, boundary=boundary)
    perm, blocks = _sectors(build_battery_xyz(spec).matrix)
    assert [e - s for s, e in blocks] == [math.comb(n, k) for k in range(n + 1)]
    order = list(range(2**n)) if perm is None else perm
    ups = [bin(i).count("1") for i in order]
    assert ups == sorted(ups)


def test_one_component_matrix_keeps_identity_permutation():
    rng = np.random.default_rng(41)
    dense = random_complex(rng, 64)
    for m in (build_noninteracting_battery(6).matrix, dense + dense.conj().T):
        perm, blocks = _sectors(m)
        assert perm is None and blocks == [(0, 64)]


def test_tie_across_sectors_is_a_degenerate_ground_state():
    # The same block twice, hidden by a permutation: the lowest levels of
    # two sectors tie although neither sector is degenerate on its own.
    block, _ = hidden_direct_sum([4], 5, False)
    m = np.zeros((8, 8), dtype=complex)
    m[:4, :4] = m[4:, 4:] = block
    perm = np.random.default_rng(6).permutation(8)
    m = m[np.ix_(perm, perm)]
    assert len(_sectors(m)[1]) == 2
    with pytest.raises(DegenerateGroundStateError):
        ground_state(Operator(m, n_sites=3))


def test_nearly_hermitian_input_is_reduced_as_its_hermitian_part():
    rng = np.random.default_rng(42)
    m = random_complex(rng, 10)
    m = m + m.conj().T
    skewed = m + 1e-13 * random_complex(rng, 10)
    got = HermitianSpectrum(skewed)
    want = HermitianSpectrum(0.5 * (skewed + skewed.conj().T))
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.ground, want.ground)


def test_check_hermitian_returns_an_exactly_hermitian_matrix_itself():
    a = build_battery_xyz(BatterySpec(J=1.1, gamma=0.4, delta=-0.5, h=1.0, n_sites=4)).matrix
    herm, fro = _check_hermitian(a)
    assert herm is a and fro == _frobenius(a)
    b = a.copy()
    b[0, 1] += 1e-13
    herm, fro = _check_hermitian(b)
    assert np.array_equal(herm, 0.5 * (b + b.conj().T)) and fro == _frobenius(herm)


def ql_with_relative_test(diag, off, q, off_tol):
    """``_ql_implicit`` as it was with LAPACK's relative deflation test
    eps (|d_m| + |d_m+1|) beside off_tol."""
    n = diag.size
    d = diag.tolist()
    e = off.tolist() + [0.0]
    for l in range(n):
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= max(off_tol, _EPS * dd):
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            denom = g + (math.copysign(r, g) if g != 0.0 else r)
            g = d[m] - d[l] + e[l] / denom
            s = c = 1.0
            p = 0.0
            rot = np.eye(m - l + 1) if q is not None else None
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


@pytest.mark.parametrize("n", range(2, 9))
def test_ql_deflation_by_off_tol_alone_is_bitwise_unchanged(n):
    # Every |d_i| <= ||A||_F, so eps (|d_m| + |d_m+1|) <= 4.5e-16 ||A||_F
    # never exceeds off_tol = 1e-13 ||A||_F and the relative test never
    # deflates: values and accumulated vectors come out bit for bit the same.
    rng = np.random.default_rng(n)
    ops = [
        build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=n, boundary="open")),
        build_battery_xyz(BatterySpec(J=-1.3, gamma=0.45, delta=0.7, h=0.6, n_sites=n)),
        build_battery_xyz(BatterySpec(J=0.8, gamma=0.0, delta=-1.2, h=-0.3, n_sites=n)),
        build_noninteracting_battery(n),
    ]
    for op in ops:
        spec = HermitianSpectrum(op)
        args = (spec._diag, spec._off)
        assert np.array_equal(_ql_implicit(*args, None, spec._off_tol)[0], ql_with_relative_test(*args, None, spec._off_tol)[0])
        if n <= 6:
            new = _ql_implicit(*args, _form_q(spec._reflectors, spec._phases), spec._off_tol)
            old = ql_with_relative_test(*args, _form_q(spec._reflectors, spec._phases), spec._off_tol)
            assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


# --- general eigenvalues -----------------------------------------------------


def test_general_eigenvalues_pt_characteristic_roots():
    # characteristic polynomial of sx + i sin(a) sz gives +-sqrt(1 - sin^2 a)
    a = SX + 1j * np.sin(np.pi / 3) * SZ
    vals = general_eigenvalues(a)
    assert np.allclose(sorted(vals.real), [-0.5, 0.5], atol=1e-10)
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_general_eigenvalues_exceptional_point():
    vals = general_eigenvalues(SX + 1j * SZ)
    assert np.max(np.abs(vals)) < 1e-7  # defective double zero


def test_general_eigenvalues_hermitian_input_real():
    rng = np.random.default_rng(31)
    m = random_complex(rng, 12)
    m = 0.5 * (m + m.conj().T)
    vals = general_eigenvalues(m)
    assert np.max(np.abs(vals.imag)) < 1e-9
    herm = hermitian_eig(m, compute_vectors=False).values
    assert np.max(np.abs(np.sort(vals.real) - herm)) < 1e-8


def test_general_eigenvalues_trace_and_numpy_reference():
    rng = np.random.default_rng(32)
    for d in (2, 6, 24, 48):
        a = random_complex(rng, d)
        vals = general_eigenvalues(a)
        assert abs(np.sum(vals) - np.trace(a)) < 1e-8 * (1 + abs(np.trace(a)))
        ref = np.linalg.eigvals(a)
        got = vals[np.lexsort((vals.imag, vals.real))]
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.max(np.abs(got - ref)) < 1e-9 * max(1.0, np.abs(a).max())


@pytest.mark.parametrize("sizes", [(1, 2, 3), (3, 2, 1), (2, 1, 3, 1, 2)])
def test_general_eigenvalues_deflate_in_mid_chain(sizes):
    # Block upper triangular: the Hessenberg form keeps exact zeros between
    # the diagonal blocks, so 1x1, 2x2 and 3x3 blocks deflate above the
    # foot of the chain as well as at it.
    rng = np.random.default_rng(33)
    d = sum(sizes)
    a = random_complex(rng, d)
    start = 0
    for b in sizes:
        a[start + b :, start : start + b] = 0.0
        start += b
    got = general_eigenvalues(a)
    ref = np.linalg.eigvals(a)
    ref = ref[np.lexsort((ref.imag, ref.real))]
    assert np.max(np.abs(got - ref)) <= 1e-12


# --- defectiveness ------------------------------------------------------------


def test_is_defective_examples():
    assert is_defective_at(SX + 1j * SZ, 1e-6) is True
    assert is_defective_at(SZ, 1e-6) is False
    assert is_defective_at(np.eye(2, dtype=complex), 1e-6) is False


def test_is_defective_jordan_block():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert is_defective_at(jordan, 1e-8) is True


def _pairwise_clusters(vals, tol):
    """The cluster search is_defective_at ran before it used ``_sectors``:
    grow each cluster by every eigenvalue closer than tol to a member."""
    n = vals.size
    assigned = [-1] * n
    clusters = []
    for i in range(n):
        if assigned[i] >= 0:
            continue
        group = [i]
        assigned[i] = len(clusters)
        queue = [i]
        while queue:
            p = queue.pop()
            for j in range(n):
                if assigned[j] < 0 and abs(vals[p] - vals[j]) < tol:
                    assigned[j] = assigned[i]
                    group.append(j)
                    queue.append(j)
        clusters.append(group)
    return clusters


def _pairwise_is_defective_at(a, tol):
    vals = general_eigenvalues(a)
    scale = max(1.0, float(np.max(np.abs(a))))
    for group in _pairwise_clusters(vals, tol):
        if len(group) >= 2:
            rank = _rank(a - np.mean(vals[group]) * np.eye(a.shape[0], dtype=complex), tol * scale)
            if a.shape[0] - rank < len(group):
                return True
    return False


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    jordan=st.lists(st.booleans(), min_size=4, max_size=4),
    tol=st.sampled_from([1e-10, 1e-8, 1e-6]),
    step=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**16),
)
def test_defective_clusters_match_the_pairwise_search(sizes, jordan, tol, step, seed):
    # Planted clusters: members chained step * tol apart, so a cluster's ends
    # can be further apart than tol; a Jordan coupling makes it defective.
    rng = np.random.default_rng(seed)
    diag, coupled = [], []
    for c, size in enumerate(sizes):
        center = c + 1j * rng.uniform(-1.0, 1.0)
        direction = np.exp(2j * np.pi * rng.uniform())
        diag += [center + k * step * tol * direction for k in range(size)]
        coupled += [jordan[c] and k > 0 for k in range(size)]
    a = np.diag(np.array(diag, dtype=complex))
    for i in np.flatnonzero(coupled):
        a[i - 1, i] = 1.0
    shuffle = rng.permutation(len(diag))
    a = a[shuffle][:, shuffle]
    vals = general_eigenvalues(a)
    perm, blocks = _sectors(np.abs(vals[:, None] - vals[None, :]) < tol)
    order = list(range(vals.size)) if perm is None else perm
    got = {frozenset(order[start:end]) for start, end in blocks}
    assert got == {frozenset(group) for group in _pairwise_clusters(vals, tol)}
    assert is_defective_at(a, tol) is _pairwise_is_defective_at(a, tol)
