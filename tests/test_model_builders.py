import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbattery.dense_linalg import general_eigenvalues, hermitian_eig, is_defective_at
from qbattery.errors import DegenerateGroundStateError, DegenerateSpectrumError
from qbattery.model_builders import (
    BROKEN_COMPLEX,
    PT,
    PT_HERMITIAN,
    RT,
    RT_HERMITIAN,
    UNBROKEN_REAL,
    BatterySpec,
    ChargerSpec,
    build_battery_xyz,
    build_charger,
    build_noninteracting_battery,
    build_pt_charger,
    build_pt_hermitian_charger,
    build_rt_charger,
    check_antilinear_symmetry,
    classify_phase,
    normalize_spectrum,
)
from qbattery.state_prep import ground_state
from qbattery.tensor_core import Operator, embed_site, pauli

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def xx_spec(j=1.0, h=1.0, n=2, **kw):
    return BatterySpec(J=j, gamma=0.0, delta=0.0, h=h, n_sites=n, **kw)


# --- batteries ----------------------------------------------------------------


def test_battery_pure_field_term():
    h = build_battery_xyz(BatterySpec(J=0.0, gamma=0.0, delta=0.0, h=1.0, n_sites=2))
    assert np.array_equal(h.matrix, np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex))


def test_battery_xx_spectrum():
    h = build_battery_xyz(xx_spec())
    vals = hermitian_eig(h, compute_vectors=False).values
    assert np.allclose(vals, [-1.0, -0.5, 0.5, 1.0], atol=1e-13)


def test_battery_ising_like_hand_expansion():
    # J=1, gamma=1, h=0: H = (1/2) sx (x) sx
    h = build_battery_xyz(BatterySpec(J=1.0, gamma=1.0, delta=0.0, h=0.0, n_sites=2))
    assert np.max(np.abs(h.matrix - 0.5 * np.kron(SX, SX))) < 1e-15


def test_battery_zz_coupling_hand_expansion():
    h = build_battery_xyz(BatterySpec(J=0.0, gamma=0.0, delta=2.0, h=0.0, n_sites=2))
    assert np.array_equal(h.matrix, 0.5 * np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_battery_spec_validation():
    with pytest.raises(ValueError):
        BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=1.0, n_sites=1)
    with pytest.raises(ValueError):
        BatterySpec(J=np.inf, gamma=0.0, delta=0.0, h=1.0, n_sites=2)
    with pytest.raises(ValueError):
        xx_spec(boundary="twisted")


def test_noninteracting_battery():
    assert np.array_equal(build_noninteracting_battery(1).matrix, SX)
    h2 = build_noninteracting_battery(2)
    vals = hermitian_eig(h2, compute_vectors=False).values
    assert np.allclose(vals, [-2.0, 0.0, 0.0, 2.0], atol=1e-13)
    norm = normalize_spectrum(h2)
    vals = hermitian_eig(norm, compute_vectors=False).values
    assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-12)


# --- spectrum normalization -----------------------------------------------------


def test_normalize_affine_cases():
    two_sz = Operator(2.0 * SZ, n_sites=1)
    assert np.max(np.abs(normalize_spectrum(two_sz).matrix - SZ)) < 1e-12
    shifted = Operator(SZ + 5.0 * np.eye(2), n_sites=1)
    assert np.max(np.abs(normalize_spectrum(shifted).matrix - SZ)) < 1e-12


def test_normalize_idempotent_and_endpoints():
    h = normalize_spectrum(build_battery_xyz(xx_spec(j=0.7, h=1.3)))
    again = normalize_spectrum(h)
    assert np.max(np.abs(again.matrix - h.matrix)) < 1e-10
    vals = hermitian_eig(h, compute_vectors=False).values
    assert abs(vals[0] + 1.0) < 1e-10 and abs(vals[-1] - 1.0) < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        xx_spec(j=1.0, h=1.0),
        xx_spec(j=-1.5, h=1.0, n=3),
        BatterySpec(J=1.0, gamma=0.6, delta=-0.4, h=0.8, n_sites=3),
    ],
)
def test_normalized_spectrum_spans_unit_interval(spec):
    vals = hermitian_eig(
        normalize_spectrum(build_battery_xyz(spec)), compute_vectors=False
    ).values
    assert vals[0] > -1.0 - 1e-10 and vals[-1] < 1.0 + 1e-10
    assert abs(vals[0] + 1.0) < 1e-10 and abs(vals[-1] - 1.0) < 1e-10


def test_normalize_degenerate_spectrum_error():
    ident = Operator(np.eye(4, dtype=complex), n_sites=2)
    with pytest.raises(DegenerateSpectrumError):
        normalize_spectrum(ident)


@settings(derandomize=True, max_examples=12, deadline=None)
@given(
    n=st.integers(2, 8),
    boundary=st.sampled_from(["open", "periodic"]),
    j=st.floats(-1.9, 1.9),
    gamma=st.floats(0.0, 1.0),
    delta=st.floats(-2.0, 0.0),
    raw_first=st.booleans(),
)
@example(n=8, boundary="open", j=1.3, gamma=0.2, delta=-0.5, raw_first=False)
@example(n=6, boundary="periodic", j=-0.6, gamma=0.9, delta=-1.1, raw_first=True)
def test_normalized_spectrum_maps_the_raw_reduction(n, boundary, j, gamma, delta, raw_first):
    # The normalized battery's spectrum is its raw battery's, mapped: levels
    # a lambda + b, and the very ground and vector arrays of the raw
    # reduction, whichever of the two is read first.  All vectors (the
    # full-vector QL, ~1 s at N = 8) are read up to N = 6.
    raw = build_battery_xyz(BatterySpec(J=j, gamma=gamma, delta=delta, h=1.0, n_sites=n, boundary=boundary))
    h = normalize_spectrum(raw)
    spec = h.spectrum
    vals = spec.values
    assert not vals.flags.writeable
    assert np.max(np.abs(vals - np.linalg.eigvalsh(h.matrix))) <= 1e-14
    assert abs(vals[0] + 1.0) <= 4 * np.spacing(1.0) and abs(vals[-1] - 1.0) <= 4 * np.spacing(1.0)
    first, second = (raw.spectrum, spec) if raw_first else (spec, raw.spectrum)
    assert first.ground is second.ground
    if n <= 6:
        assert first.vectors is second.vectors
        assert hermitian_eig(h).vectors is raw.spectrum.vectors
    g = spec.ground
    assert np.linalg.norm(h.matrix @ g - vals[0] * g) <= 1e-13


def test_normalizing_twice_maps_the_first_reduction():
    raw = build_battery_xyz(xx_spec(j=0.7, h=1.3, n=4))
    again = normalize_spectrum(normalize_spectrum(raw))
    assert again.spectrum.ground is raw.spectrum.ground
    assert np.max(np.abs(again.spectrum.values - np.linalg.eigvalsh(again.matrix))) <= 1e-14


@pytest.mark.parametrize("n", [4, 6])
def test_normalized_periodic_battery_at_j_equal_minus_h_stays_degenerate(n):
    # The gap check reads the mapped levels; J = h = 1 is tested with the
    # ground vector in test_dense_linalg.
    raw = build_battery_xyz(BatterySpec(J=1.0, gamma=0.0, delta=0.0, h=-1.0, n_sites=n))
    with pytest.raises(DegenerateGroundStateError):
        ground_state(normalize_spectrum(raw))


# --- chargers -------------------------------------------------------------------


def test_pt_charger_hermitian_limit():
    assert np.array_equal(build_pt_charger(0.0, 1).matrix, SX)


def test_pt_charger_single_site_eigenvalues():
    vals = general_eigenvalues(build_pt_charger(np.pi / 3, 1))
    assert np.allclose(sorted(vals.real), [-0.5, 0.5], atol=1e-10)
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_pt_charger_exceptional_point_defective():
    assert is_defective_at(build_pt_charger(np.pi / 2, 1), 1e-6)


def test_pt_charger_reflection_symmetry():
    a = np.pi / 3
    h1 = build_pt_charger(a, 2).matrix
    h2 = build_pt_charger(np.pi - a, 2).matrix
    assert np.max(np.abs(h1 - h2)) < 1e-15


def test_pt_hermitian_charger():
    assert np.array_equal(
        build_pt_hermitian_charger(0.0, 2).matrix, build_pt_charger(0.0, 2).matrix
    )
    vals = hermitian_eig(build_pt_hermitian_charger(np.pi / 2, 1)).values
    assert np.allclose(vals, [-np.sqrt(2), np.sqrt(2)], atol=1e-12)
    h = build_pt_hermitian_charger(np.pi / 3, 2).matrix
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_site_term_matches_matrix_for_per_site_builders(n):
    s = np.sin(np.pi / 3)
    cases = [
        (build_pt_charger(np.pi / 3, n), SX + 1j * s * SZ),
        (build_pt_hermitian_charger(np.pi / 3, n), SX + s * SZ),
        (build_noninteracting_battery(n), SX),
    ]
    for op, term in cases:
        assert np.array_equal(op.site_term, term)
        assert not op.site_term.flags.writeable
        embedded = sum(embed_site(Operator(term, n_sites=1), r, n).matrix for r in range(n))
        assert np.array_equal(op.matrix, embedded)


def test_site_term_absent_on_every_other_operator():
    rt = ChargerSpec(kind=RT, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=0.5)
    rt_h = ChargerSpec(kind=RT_HERMITIAN, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=0.5)
    others = [
        build_rt_charger(rt),
        build_charger(rt_h),
        build_battery_xyz(xx_spec()),
        normalize_spectrum(build_noninteracting_battery(2)),
        Operator(build_pt_charger(np.pi / 3, 2).matrix, n_sites=2),
    ]
    for op in others:
        assert op.site_term is None


def test_rt_charger_hand_expansion():
    spec = ChargerSpec(kind=RT, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=0.5)
    h = build_rt_charger(spec).matrix
    want = np.array(
        [
            [0.5, 0, 0, 0.4j],
            [0, 0, 0.5, 0],
            [0, 0.5, 0, 0],
            [0.4j, 0, 0, -0.5],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(h - want)) < 1e-15
    assert np.max(np.abs(h - h.conj().T)) > 0.1  # genuinely non-Hermitian


def test_rt_hermitian_charger_is_hermitian():
    spec = ChargerSpec(kind=RT_HERMITIAN, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=0.5)
    op = build_rt_charger(spec)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-15


def test_rt_gamma_zero_coincides():
    a = build_rt_charger(ChargerSpec(kind=RT, n_sites=2, gamma_prime=0.0, J=1.0, h_prime=0.5))
    b = build_rt_charger(
        ChargerSpec(kind=RT_HERMITIAN, n_sites=2, gamma_prime=0.0, J=1.0, h_prime=0.5)
    )
    assert np.array_equal(a.matrix, b.matrix)


def test_rt_conjugation_relation():
    plus = build_rt_charger(ChargerSpec(kind=RT, n_sites=3, gamma_prime=0.6, J=1.0, h_prime=0.7))
    minus = build_rt_charger(ChargerSpec(kind=RT, n_sites=3, gamma_prime=-0.6, J=1.0, h_prime=0.7))
    assert np.array_equal(minus.matrix, np.conj(plus.matrix))


def test_charger_spec_validation():
    with pytest.raises(ValueError):
        ChargerSpec(kind="weird", n_sites=2, alpha=0.1)
    with pytest.raises(ValueError):
        ChargerSpec(kind=PT, n_sites=2)  # missing alpha
    with pytest.raises(ValueError):
        ChargerSpec(kind=PT, n_sites=2, alpha=0.1, gamma_prime=0.5)
    with pytest.raises(ValueError):
        ChargerSpec(kind=RT, n_sites=2, gamma_prime=0.5, J=1.0)  # missing h_prime
    with pytest.raises(ValueError):
        ChargerSpec(kind=RT, n_sites=1, gamma_prime=0.5, J=1.0, h_prime=0.5)


def test_build_charger_dispatch():
    pt = build_charger(ChargerSpec(kind=PT, n_sites=2, alpha=0.3))
    assert np.array_equal(pt.matrix, build_pt_charger(0.3, 2).matrix)
    pth = build_charger(ChargerSpec(kind=PT_HERMITIAN, n_sites=2, alpha=0.3))
    assert np.array_equal(pth.matrix, build_pt_hermitian_charger(0.3, 2).matrix)


# --- symmetry checks and phase classification -----------------------------------


def test_pt_symmetry_residual():
    assert check_antilinear_symmetry(build_pt_charger(np.pi / 3, 2), "pt") < 1e-10
    assert check_antilinear_symmetry(build_pt_charger(np.pi / 2, 3), "pt") < 1e-10


def test_rt_symmetry_residual():
    spec = ChargerSpec(kind=RT, n_sites=2, gamma_prime=0.8, J=1.0, h_prime=1.0)
    assert check_antilinear_symmetry(build_rt_charger(spec), "rt") < 1e-10


@settings(derandomize=True, max_examples=24, deadline=None)
@given(alpha=st.floats(0.0, np.pi), n=st.integers(2, 6))
@example(alpha=np.pi / 2, n=6)
def test_pt_symmetry_residual_property(alpha, n):
    assert check_antilinear_symmetry(build_pt_charger(alpha, n), "pt") <= 1e-12


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    gamma_prime=st.floats(0.0, 3.0),
    h_prime=st.floats(0.0, 3.0),
    j=st.floats(-2.0, 2.0),
    n=st.integers(2, 6),
)
def test_rt_symmetry_residual_property(gamma_prime, h_prime, j, n):
    spec = ChargerSpec(kind=RT, n_sites=n, gamma_prime=gamma_prime, J=j, h_prime=h_prime)
    assert check_antilinear_symmetry(build_rt_charger(spec), "rt") <= 1e-12


def test_symmetry_absent_for_plain_sz():
    op = embed_site(pauli("z"), 0, 1)
    assert check_antilinear_symmetry(op, "pt") > 1.0


def test_classify_phase():
    assert classify_phase(build_pt_hermitian_charger(0.4, 2)) == UNBROKEN_REAL
    assert classify_phase(build_pt_charger(np.pi / 3, 2)) == UNBROKEN_REAL
    # two-site RT spectral-reality boundary sits at h' = gamma'/2 for J=1
    g = 0.8
    above = ChargerSpec(kind=RT, n_sites=2, gamma_prime=g, J=1.0, h_prime=0.45)
    below = ChargerSpec(kind=RT, n_sites=2, gamma_prime=g, J=1.0, h_prime=0.35)
    assert classify_phase(build_rt_charger(above)) == UNBROKEN_REAL
    assert classify_phase(build_rt_charger(below)) == BROKEN_COMPLEX


# --- exact assembly ---------------------------------------------------------------


def kron_embed(m, r, n):
    return np.kron(np.kron(np.eye(2**r), m), np.eye(2 ** (n - r - 1)))


def kron_bond_sum(a, b, n, boundary):
    bonds = [(r, r + 1) for r in range(n - 1)]
    if boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    return sum(kron_embed(a, r, n) @ kron_embed(b, s, n) for r, s in bonds)


def kron_field(m, n):
    return sum(kron_embed(m, r, n) for r in range(n))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_battery_assembly_is_exact(n, boundary):
    J, g, h = 0.7, 0.3, 1.3
    for d in (-0.4, 0.0):  # delta = 0 builds no ZZ sum
        spec = BatterySpec(J=J, gamma=g, delta=d, h=h, n_sites=n, boundary=boundary)
        want = (
            0.25 * J * ((1.0 + g) * kron_bond_sum(SX, SX, n, boundary) + (1.0 - g) * kron_bond_sum(SY, SY, n, boundary))
            + 0.25 * d * kron_bond_sum(SZ, SZ, n, boundary)
            + 0.5 * h * kron_field(SZ, n)
        )
        assert np.array_equal(build_battery_xyz(spec).matrix, want), d


@pytest.mark.parametrize("kind", [RT, RT_HERMITIAN])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rt_charger_assembly_is_exact(n, kind):
    gp, J, hp = 0.8, 1.1, 0.5
    aniso = 1j * gp if kind == RT else gp
    want = (
        0.25 * J * ((1.0 + aniso) * kron_bond_sum(SX, SX, n, "periodic") + (1.0 - aniso) * kron_bond_sum(SY, SY, n, "periodic"))
        + 0.5 * hp * kron_field(SZ, n)
    )
    spec = ChargerSpec(kind=kind, n_sites=n, gamma_prime=gp, J=J, h_prime=hp)
    assert np.array_equal(build_rt_charger(spec).matrix, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pt_charger_and_conjugators_are_exact(n):
    term = SX + 1j * np.sin(1.1) * SZ
    assert np.array_equal(build_pt_charger(1.1, n).matrix, kron_field(term, n))
    # the symmetry residuals against S conj(H) S^-1 with the Kronecker
    # conjugators: the sitewise sigma^x parity (PT) and exp(-i (pi/4) sum Z) (RT)
    rot = np.diag(np.exp(-1j * np.pi / 4.0 * np.array([1.0, -1.0])))
    conjugators = {"pt": reduce(np.kron, [SX] * n), "rt": reduce(np.kron, [rot] * n)}
    rng = np.random.default_rng(n)
    d = 2**n
    rt_spec = ChargerSpec(kind=RT, n_sites=n, gamma_prime=0.8, J=1.1, h_prime=0.5)
    for h in (
        build_pt_charger(1.1, n),
        build_rt_charger(rt_spec),
        Operator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), n_sites=n),
    ):
        for kind, s in conjugators.items():
            want = np.linalg.norm(s @ h.matrix.conj() @ np.linalg.inv(s) - h.matrix) / np.linalg.norm(h.matrix)
            assert abs(check_antilinear_symmetry(h, kind) - want) <= 1e-15, kind


@pytest.mark.parametrize(
    "build", [lambda: build_noninteracting_battery(40), lambda: build_pt_charger(1.0, 13)]
)
def test_chain_cap_rejects_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="outside the allowed range"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def kron_sites(factors, n):
    return reduce(np.kron, [factors.get(r, np.eye(2, dtype=complex)) for r in range(n)])


def kron_sums(n, boundary):
    """XX, YY and ZZ bond sums and the Z field of an n-site chain, each a
    sum of Kronecker products."""
    bonds = [(r, r + 1) for r in range(n - 1)]
    if boundary == "periodic" and n > 2:
        bonds.append((n - 1, 0))
    xx, yy, zz = (sum(kron_sites({r: p, s: p}, n) for r, s in bonds) for p in (SX, SY, SZ))
    return xx, yy, zz, sum(kron_sites({r: SZ}, n) for r in range(n))


# (J, gamma, delta, h): gamma and delta zero and nonzero, J and h of both signs
XYZ_SETS = [
    (0.7, 0.3, -0.4, 1.3),
    (-1.1, 0.0, 0.0, -0.6),
    (0.9, 0.0, 0.37, 1.0),
    (-0.45, 0.61, 0.0, -1.7),
    (1.234567, -0.987, -1.3333, 0.1),
]


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("n", range(2, 11))
def test_bit_assembly_equals_kronecker_sums(n, boundary):
    # Bitwise, in the Kronecker sums' floating-point order: (J/4) applied to
    # (1+a) XX + (1-a) YY, and the ZZ and Z sums formed over integers and
    # scaled once.
    xx, yy, zz, z = kron_sums(n, boundary)
    for J, g, d, h in XYZ_SETS:
        spec = BatterySpec(J=J, gamma=g, delta=d, h=h, n_sites=n, boundary=boundary)
        want = 0.25 * J * ((1.0 + g) * xx + (1.0 - g) * yy) + 0.25 * d * zz + 0.5 * h * z
        assert np.array_equal(build_battery_xyz(spec).matrix, want), (J, g, d, h)
    if boundary == "open":
        return
    for kind in (RT, RT_HERMITIAN):
        for gp, J, hp in [(0.8, 1.1, 0.5), (1.2, -0.7, -0.2)]:
            aniso = 1j * gp if kind == RT else gp
            want = 0.25 * J * ((1.0 + aniso) * xx + (1.0 - aniso) * yy) + 0.5 * hp * z
            spec = ChargerSpec(kind=kind, n_sites=n, gamma_prime=gp, J=J, h_prime=hp)
            assert np.array_equal(build_charger(spec).matrix, want), (kind, gp, J)


@pytest.mark.parametrize("n", range(1, 9))
def test_per_site_builders_equal_kronecker_sums(n):
    cases = [
        (build_pt_charger(1.1, n), SX + 1j * np.sin(1.1) * SZ),
        (build_pt_hermitian_charger(-0.7, n), SX + np.sin(-0.7) * SZ),
        (build_noninteracting_battery(n), SX),
    ]
    for op, term in cases:
        assert np.array_equal(op.matrix, sum(kron_sites({r: term}, n) for r in range(n)))


def test_every_builder_checks_the_cap(monkeypatch):
    battery = BatterySpec(J=1.0, gamma=0.3, delta=0.2, h=1.0, n_sites=4)
    rt = ChargerSpec(kind=RT, n_sites=4, gamma_prime=0.8, J=1.0, h_prime=0.5)
    rt_h = ChargerSpec(kind=RT_HERMITIAN, n_sites=4, gamma_prime=0.8, J=1.0, h_prime=0.5)
    builds = [
        lambda: build_battery_xyz(battery),
        lambda: build_noninteracting_battery(4),
        lambda: build_pt_charger(0.3, 4),
        lambda: build_pt_hermitian_charger(0.3, 4),
        lambda: build_rt_charger(rt),
        lambda: build_charger(rt_h),
        lambda: embed_site(pauli("x"), 0, 4),
    ]
    for build in builds:
        build()
    monkeypatch.setenv("QBATTERY_MAX_SITES", "3")
    for build in builds:
        with pytest.raises(ValueError, match="outside the allowed range"):
            build()


def test_assembly_memory_is_the_output():
    # No d x d temporaries: at N = 10 the output is 16 MB.
    spec = BatterySpec(J=1.1, gamma=0.4, delta=-0.5, h=1.0, n_sites=10)
    tracemalloc.start()
    try:
        build_battery_xyz(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * 2**20
