from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.dense_linalg import general_eigenvalues
from qbattery.state_prep import QuantumState
from qbattery.tensor_core import (
    Operator,
    _assemble,
    bond_pairs,
    embed_site,
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
    assert np.array_equal(_assemble(3, bonds=[(0, 2)], xy=(1.0, 1.0)), np.kron(np.kron(SX, np.eye(2)), SX))
    assert np.array_equal(_assemble(3, bonds=[(2, 0)], zz=1.0), np.kron(np.kron(SZ, np.eye(2)), SZ))
    assert np.array_equal(_assemble(3, z=1.0), site_sum(pauli("z"), 3).matrix)


def test_site_product_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        _assemble(0, SX, (0,))
    with pytest.raises(ValueError):
        embed_site(Operator(SX, n_sites=1), 0, 0)
    with pytest.raises(ValueError):
        _assemble(3, SX, (3,))
    with pytest.raises(ValueError):
        _assemble(3, bonds=[(0, 3)], xy=(1.0, 1.0))
    with pytest.raises(ValueError):
        _assemble(3, np.eye(4), (0,))
    monkeypatch.setenv("QBATTERY_MAX_SITES", "3")
    with pytest.raises(ValueError):
        _assemble(4)
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
    assembled = _assemble(n, bonds=[(r, s)], **BOND_TERMS[a][1])
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
