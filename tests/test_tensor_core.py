from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.dense_linalg import general_eigenvalues
from qbattery.errors import DegenerateGroundStateError
from qbattery.state_prep import QuantumState
from qbattery.tensor_core import (
    Operator,
    SiteSpectrum,
    Terms,
    _assemble,
    _orbits,
    bond_pairs,
    embed_site,
    k0_block,
    max_sites,
    pauli,
    site_sum,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_pauli_matrices():
    assert np.array_equal(pauli("x").matrix, SX)
    assert np.array_equal(pauli("y").matrix, SY)
    assert np.array_equal(pauli("z").matrix, SZ)
    assert np.array_equal(pauli("identity").matrix, np.eye(2))


def test_pauli_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_embed_site_leftmost_ordering():
    # site 0 is the most significant tensor factor
    assert np.array_equal(embed_site(pauli("z"), 0, 2).matrix, np.diag([1, 1, -1, -1]).astype(complex))
    assert np.array_equal(embed_site(pauli("z"), 1, 2).matrix, np.diag([1, -1, 1, -1]).astype(complex))


def test_site_sum_matrix_and_term():
    term = SX + 0.4j * SZ
    op = site_sum(Operator(term, n_sites=1), 3)
    want = sum(np.kron(np.kron(np.eye(2**r), term), np.eye(2 ** (2 - r))) for r in range(3))
    assert np.array_equal(op.matrix, want)
    assert np.array_equal(op.site_term, term)
    assert not op.site_term.flags.writeable


def test_plain_operator_has_no_site_term():
    assert Operator(np.eye(4), n_sites=2).site_term is None
    assert embed_site(pauli("x"), 0, 2).site_term is None


def test_embed_identity_and_right_site():
    assert np.array_equal(embed_site(pauli("identity"), 1, 3).matrix, np.eye(8))
    assert np.array_equal(embed_site(pauli("x"), 1, 2).matrix, np.kron(np.eye(2), SX))


def test_embed_site_out_of_range():
    with pytest.raises(ValueError):
        embed_site(pauli("x"), 2, 2)
    with pytest.raises(ValueError):
        embed_site(pauli("x"), -1, 2)


def test_embed_rejects_multisite_operator():
    big = Operator(np.eye(4, dtype=complex), n_sites=2)
    with pytest.raises(ValueError):
        embed_site(big, 0, 3)


def test_embeddings_commute_on_distinct_sites():
    rng = np.random.default_rng(7)
    axes = ["x", "y", "z"]
    for _ in range(10):
        a, b = rng.choice(axes, size=2)
        r, s = rng.choice(4, size=2, replace=False)
        oa = embed_site(pauli(a), int(r), 4).matrix
        ob = embed_site(pauli(b), int(s), 4).matrix
        assert np.max(np.abs(oa @ ob - ob @ oa)) < 1e-14


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("site", [0, 1, 2])
def test_embedded_pauli_squares_to_identity(axis, site):
    op = embed_site(pauli(axis), site, 3).matrix
    assert np.max(np.abs(op @ op - np.eye(8))) < 1e-14


def test_strided_inputs_are_accepted():
    # A transposed or sliced complex array cannot be viewed as floats; the
    # finiteness checks read the complex entries themselves.
    m = (np.arange(16) + 1j * np.arange(16)).reshape(4, 4)
    assert np.array_equal(Operator(m.T, n_sites=2).matrix, m.T)
    assert np.array_equal(general_eigenvalues(m.T), general_eigenvalues(m.T.copy()))
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex).T
    assert np.array_equal(QuantumState.density(rho).data, rho)
    psi = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], dtype=complex)[::2]
    assert np.array_equal(QuantumState.pure(psi).data, [1.0, 0.0, 0.0])


def test_operator_invariants():
    with pytest.raises(ValueError):
        Operator(np.full((2, 2), np.nan, dtype=complex), n_sites=1)
    with pytest.raises(ValueError):
        Operator(np.eye(3, dtype=complex), n_sites=1)
    op = pauli("x")
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_max_sites_env_override(monkeypatch):
    monkeypatch.setenv("QBATTERY_MAX_SITES", "3")
    assert max_sites() == 3
    with pytest.raises(ValueError):
        embed_site(pauli("x"), 0, 4)
    monkeypatch.setenv("QBATTERY_MAX_SITES", "junk")
    with pytest.raises(ValueError):
        max_sites()


def test_bond_pairs_unique():
    # the two-site ring has exactly one physical bond
    assert bond_pairs(2, "periodic") == [(0, 1)]
    assert bond_pairs(2, "open") == [(0, 1)]
    assert bond_pairs(4, "periodic") == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert bond_pairs(5, "open") == [(0, 1), (1, 2), (2, 3), (3, 4)]


def kron_sites(factors, n):
    """The Kronecker product of ``factors[r]`` at site r and the identity
    elsewhere, site 0 leftmost."""
    return reduce(np.kron, [factors.get(r, np.eye(2, dtype=complex)) for r in range(n)])


# A bond term is one flip with element xy[0] on aligned and xy[1] on opposed
# spins (YY's element is -z_r z_s times XX's), or the ZZ diagonal.
BOND_TERMS = {
    "x": (SX, {"xy": (1.0, 1.0)}),
    "y": (SY, {"xy": (-1.0, 1.0)}),
    "z": (SZ, {"zz": 1.0}),
}


def test_site_product_places_factors_left_to_right():
    # site 0 is the most significant bit of the basis index
    assert np.array_equal(embed_site(pauli("identity"), 2, 3).matrix, np.eye(8))
    assert np.array_equal(embed_site(pauli("x"), 0, 3).matrix, np.kron(np.kron(SX, np.eye(2)), np.eye(2)))
    assert np.array_equal(embed_site(pauli("z"), 2, 3).matrix, np.kron(np.eye(4), SZ))
    assert np.array_equal(_assemble(Terms(3, bonds=[(0, 2)], xy=(1.0, 1.0))), np.kron(np.kron(SX, np.eye(2)), SX))
    assert np.array_equal(_assemble(Terms(3, bonds=[(2, 0)], zz=1.0)), np.kron(np.kron(SZ, np.eye(2)), SZ))
    assert np.array_equal(_assemble(Terms(3, z=1.0)), site_sum(pauli("z"), 3).matrix)


def test_site_product_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        _assemble(Terms(0, SX, (0,)))
    with pytest.raises(ValueError):
        embed_site(Operator(SX, n_sites=1), 0, 0)
    with pytest.raises(ValueError):
        _assemble(Terms(3, SX, (3,)))
    with pytest.raises(ValueError):
        _assemble(Terms(3, bonds=[(0, 3)], xy=(1.0, 1.0)))
    with pytest.raises(ValueError):
        _assemble(Terms(3, np.eye(4), (0,)))
    monkeypatch.setenv("QBATTERY_MAX_SITES", "3")
    with pytest.raises(ValueError):
        _assemble(Terms(4))
    with pytest.raises(ValueError):
        site_sum(pauli("x"), 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    axes=st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz")),
    sites=st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(range(n)).map(lambda p: p[:2]))
    ),
)
def test_site_product_of_two_sites_is_the_product_of_embeddings(axes, sites):
    # The assembled XX, YY and ZZ bond terms equal the product of the two
    # embeddings; each row of an embedding has one nonzero, so the matmul
    # is exact.  The product of two different axes is not axis a's term.
    n, (r, s) = sites
    a, b = axes
    ea = embed_site(pauli(a), r, n).matrix
    eb = embed_site(pauli(b), s, n).matrix
    assert np.array_equal(ea @ eb, kron_sites({r: BOND_TERMS[a][0], s: BOND_TERMS[b][0]}, n))
    assembled = _assemble(Terms(n, bonds=[(r, s)], **BOND_TERMS[a][1]))
    assert np.array_equal(assembled, ea @ eb) == (a == b)


@pytest.mark.parametrize("n", range(1, 9))
def test_site_product_equals_numpy_kron(n):
    # A general (non-Hermitian) 2x2 term at one site and at every site,
    # against numpy.kron, bitwise: each entry is one product of the term's
    # entries with ones, and the diagonal of the sum is added in site order.
    rng = np.random.default_rng(n)
    term = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    for r in range(n):
        assert np.array_equal(embed_site(Operator(term, n_sites=1), r, n).matrix, kron_sites({r: term}, n))
    want = sum(kron_sites({r: term}, n) for r in range(n))
    assert np.array_equal(site_sum(Operator(term, n_sites=1), n).matrix, want)
    for axis in ("x", "y", "z"):
        assert np.array_equal(site_sum(pauli(axis), n).matrix, sum(kron_sites({r: pauli(axis).matrix}, n) for r in range(n)))


# --- finiteness -------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1j * np.inf, 1j * np.nan])
def test_one_non_finite_entry_is_rejected(bad):
    m = np.eye(4, dtype=complex)
    m[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Operator(m, n_sites=2)
    psi = np.full(4, 0.5, dtype=complex)
    psi[3] = bad
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 1] = bad
    with np.errstate(invalid="ignore"):  # normalizing them meets the entry first
        with pytest.raises(ValueError):
            QuantumState.pure(psi)
        with pytest.raises(ValueError):
            QuantumState.density(rho)


def test_finite_entries_whose_sum_overflows_are_accepted():
    m = np.full((4, 4), 1e308 + 1e308j)
    with np.errstate(over="ignore"):
        assert np.isinf(m.view(float).sum())
    assert np.array_equal(Operator(m, n_sites=2).matrix, m)


# --- translation k = 0 block --------------------------------------------------------


def _rotations(b, n):
    return [((b << k) | (b >> (n - k))) & ((1 << n) - 1) for k in range(n)]


def k0_basis(n):
    """U, the d x d0 matrix whose column a is the sum of the basis states of
    orbit a over sqrt(its length), from an explicit orbit enumeration."""
    orbits = {}
    for b in range(1 << n):
        orbits.setdefault(min(_rotations(b, n)), set()).add(b)
    u = np.zeros((1 << n, len(orbits)))
    for a, rep in enumerate(sorted(orbits)):
        members = sorted(orbits[rep])
        u[members, a] = 1.0 / np.sqrt(len(members))
    return u


@pytest.mark.parametrize("n", range(1, 13))
def test_orbits_of_the_bit_rotation(n):
    reps, orbit, lengths = _orbits(n)
    # the number of binary necklaces of length n (OEIS A000031)
    assert reps.size == [2, 3, 4, 6, 8, 14, 20, 36, 60, 108, 188, 352][n - 1]
    assert lengths.sum() == 1 << n and all(n % r == 0 for r in lengths.tolist())
    assert np.array_equal(orbit[reps], np.arange(reps.size))
    for b in range(0, 1 << n, max(1, (1 << n) // 64)):
        rots = _rotations(b, n)
        assert reps[orbit[b]] == min(rots) and lengths[orbit[b]] == len(set(rots))
    assert _orbits(n) is _orbits(n)
    assert not any(a.flags.writeable for a in (reps, orbit, lengths))


def _ring_terms(n):
    rng = np.random.default_rng(n)
    general = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    terms = [Terms(n, SX, range(n)), Terms(n, general, range(n)), Terms(n, z=0.7)]
    if n >= 2:
        bonds = bond_pairs(n)
        terms += [
            Terms(n, bonds=bonds, xy=(0.2j, 0.5), z=0.25),  # an RT ring
            Terms(n, bonds=bonds, xy=(0.3, -0.45), zz=0.35, z=-0.6),  # a periodic XYZ chain
        ]
    return terms


@pytest.mark.parametrize("n", range(1, 9))
def test_k0_block_is_the_projection_on_the_orbit_sums(n):
    u = k0_basis(n)
    for terms in _ring_terms(n):
        dense = _assemble(terms)
        assert np.max(np.abs(k0_block(terms) - u.T @ dense @ u)) < 1e-13
        # the orbit sums span an invariant subspace
        assert np.max(np.abs(dense @ u - u @ (u.T @ dense @ u))) < 1e-13


def test_k0_block_rejects_terms_that_break_the_ring():
    for terms in (Terms(4, SX, (0,)), Terms(4, bonds=bond_pairs(4, "open"), xy=(1.0, 1.0))):
        with pytest.raises(ValueError, match="k = 0 block"):
            k0_block(terms)


def test_k0_operator_dimension():
    block = k0_block(Terms(4, SX, range(4)))
    assert Operator(block, n_sites=4, k0=True).dim == 6
    with pytest.raises(ValueError, match="k = 0 block"):
        Operator(block, n_sites=5, k0=True)
    with pytest.raises(ValueError):
        Operator(block, n_sites=4)
    with pytest.raises(ValueError, match="cap"):
        Operator(np.eye(6), n_sites=40, k0=True)


# --- spectra from a site term -------------------------------------------------------


SITE_TERMS = [
    SX,
    SZ,  # diagonal, lower level at bit 1
    -SZ + 0.3 * np.eye(2),  # diagonal, lower level at bit 0
    np.array([[0.4, 0.3 - 0.8j], [0.3 + 0.8j, -1.1]]),  # h_00 > h_11
    np.array([[-0.9, -0.2 + 0.5j], [-0.2 - 0.5j, 0.6]]),  # h_00 < h_11
]


@pytest.mark.parametrize("k", range(len(SITE_TERMS)))
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_site_spectrum_matches_the_dense_matrix(k, n):
    op = site_sum(Operator(SITE_TERMS[k], n_sites=1), n)
    spec = op.spectrum
    assert isinstance(spec, SiteSpectrum)
    h = op.matrix
    assert np.max(np.abs(spec.values - np.linalg.eigvalsh(h))) < 1e-13
    v = spec.vectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(h.shape[0]))) < 1e-14
    assert np.max(np.abs(h @ v - v * spec.values)) < 1e-13
    g = spec.ground
    assert abs(np.linalg.norm(g) - 1.0) < 1e-15
    assert np.max(np.abs(h @ g - spec.values[0] * g)) < 1e-13
    assert not any(a.flags.writeable for a in (spec.values, v, g))


def test_site_spectrum_affine_map_and_degenerate_site():
    spec = site_sum(pauli("x"), 3).spectrum
    mapped = spec._affine(0.5, 0.25)
    assert np.array_equal(mapped.values, 0.5 * spec.values + 0.25)
    assert np.array_equal(mapped.ground, spec.ground)
    flat = site_sum(Operator(2.0 * np.eye(2), n_sites=1), 3).spectrum
    assert np.array_equal(flat.values, np.full(8, 6.0))
    with pytest.raises(DegenerateGroundStateError):
        flat.ground


def test_only_a_hermitian_site_term_skips_the_eigensolve():
    pt = site_sum(Operator(SX + 0.5j * SZ, n_sites=1), 2)
    with pytest.raises(ValueError, match="not Hermitian"):
        pt.spectrum
    assert not isinstance(embed_site(pauli("x"), 0, 2).spectrum, SiteSpectrum)
