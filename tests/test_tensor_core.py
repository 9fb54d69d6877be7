from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.tensor_core import (
    Operator,
    bond_pairs,
    embed_site,
    max_sites,
    pauli,
    site_product,
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


def test_site_product_places_factors_left_to_right():
    assert np.array_equal(site_product({}, 3), np.eye(8))
    assert np.array_equal(site_product({0: SX, 2: SZ}, 3), np.kron(np.kron(SX, np.eye(2)), SZ))
    assert np.array_equal(site_product({2: SZ, 0: SX}, 3), site_product({0: SX, 2: SZ}, 3))


def test_site_product_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError):
        site_product({0: SX}, 0)
    with pytest.raises(ValueError):
        site_product({3: SX}, 3)
    with pytest.raises(ValueError):
        site_product({0: np.eye(4)}, 3)
    monkeypatch.setenv("QBATTERY_MAX_SITES", "3")
    with pytest.raises(ValueError):
        site_product({}, 4)


_complex_2x2 = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=4,
).map(lambda v: np.array(v, dtype=complex).reshape(2, 2))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a=_complex_2x2,
    b=_complex_2x2,
    sites=st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.permutations(range(n)).map(lambda p: p[:2]))
    ),
)
def test_site_product_of_two_sites_is_the_product_of_embeddings(a, b, sites):
    n, (r, s) = sites
    # The embeddings commute, so the product is taken left site first, and
    # summed elementwise: with fused multiply-adds neither a BLAS matmul nor
    # a complex product with swapped operands rounds identically.
    if r > s:
        (r, a), (s, b) = (s, b), (r, a)
    ea, eb = site_product({r: a}, n), site_product({s: b}, n)
    want = (ea[:, :, None] * eb[None, :, :]).sum(axis=1)
    assert np.array_equal(site_product({r: a, s: b}, n), want)


@pytest.mark.parametrize("n", range(1, 9))
def test_site_product_equals_numpy_kron(n):
    # The broadcast product forms exactly numpy.kron's products, so the two
    # agree bitwise, with a factor at every site and with identities between.
    rng = np.random.default_rng(n)
    factors = {r: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for r in range(n)}
    assert np.array_equal(site_product(factors, n), reduce(np.kron, factors.values()))
    sparse = {r: f for r, f in factors.items() if r % 2 == 0}
    want = reduce(np.kron, [sparse.get(r, np.eye(2, dtype=complex)) for r in range(n)])
    assert np.array_equal(site_product(sparse, n), want)
