"""Exact linear algebra: canonical echelon forms, membership and nullspaces."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxnoether.errors import AmbientMismatch
from maxnoether.linalg import MODULUS, Subspace, modular_rank, nullspace, rref


def F(x):
    return Fraction(x)


def terms(row):
    """A dense integer row as a term row, its nonzero (index, coefficient) pairs."""
    return tuple((i, x) for i, x in enumerate(row) if x)


def test_rref_trivial_cases():
    m, rank = rref([[1, 0], [0, 1]])
    assert m == [[1, 0], [0, 1]] and rank == 2
    m, rank = rref([[1, 2], [2, 4]])
    assert m == [[1, 2], [0, 0]] and rank == 1
    m, rank = rref([[0, 0], [0, 0]])
    assert m == [[0, 0], [0, 0]] and rank == 0


def test_rref_normalizes_pivots_and_clears_columns():
    m, rank = rref([[2, 4, 6], [1, 3, 5]])
    assert rank == 2
    assert m[0] == [1, 0, -1]
    assert m[1] == [0, 1, 2]


def test_rref_idempotent_on_fractions():
    # the rows 1/2, 1/3 and 2/5, 1 scaled by 30: linalg takes integer rows only
    rows = [[15, 10], [12, 30]]
    once, r1 = rref(rows)
    twice, r2 = rref(once)
    assert once == twice and r1 == r2


def test_span_and_membership():
    e1 = [1, 0]
    e2 = [0, 1]
    u = Subspace.span([e1], 2)
    w = Subspace.span([e1, e2], 2)
    assert all(map(w.contains_vector, u.basis))
    assert not u.contains_vector(e2)
    assert Subspace.span([[1, 1]], 2) == Subspace.span([[2, 2]], 2)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.span([[1, 0]], 2).contains_vector([1, 0, 0])
    with pytest.raises(AmbientMismatch):
        Subspace.span([[1, 0, 0]], 2)


def test_nullspace_solves_system():
    rows = [[1, 2, 3], [0, 1, 1]]
    ns = nullspace(map(terms, rows), 3)
    assert ns.dim == 1
    v = ns.basis[0]
    for row in rows:
        assert sum(F(a) * b for a, b in zip(row, v)) == 0


def test_nullspace_no_constraints_is_everything():
    assert nullspace([], 3).dim == 3


def test_zero_ambient():
    s = Subspace.span([], 0)
    assert s.dim == 0
    assert s == nullspace([], 0)


def test_nullspace_rejects_a_term_outside_the_ambient():
    with pytest.raises(AmbientMismatch):
        nullspace([((0, 1), (3, 2))], 3)
    with pytest.raises(AmbientMismatch):
        nullspace([((1, 1),), ((-1, 4), (2, 1))], 3)
    with pytest.raises(AmbientMismatch):
        nullspace([((0, 1),)], 0)


# wide enough that rows share factors, so the gcd reduction runs
entries = st.integers(-30, 30)
matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5)
)


@settings(max_examples=60)
@given(matrices)
def test_rref_idempotent_random(mat):
    once, r1 = rref(mat)
    twice, r2 = rref(once)
    assert once == twice and r1 == r2


@settings(max_examples=60)
@given(matrices)
def test_rank_invariant_under_row_scaling_and_swaps(mat):
    _, rank = rref(mat)
    scaled = [[3 * x for x in row] for row in reversed(mat)]
    _, rank2 = rref(scaled)
    assert rank == rank2


@settings(max_examples=60)
@given(matrices)
def test_rank_nullity(mat):
    ncols = len(mat[0])
    _, rank = rref(mat)
    assert nullspace(map(terms, mat), ncols).dim == ncols - rank


@settings(max_examples=40)
@given(matrices)
def test_span_contains_its_generators(mat):
    ncols = len(mat[0])
    sp = Subspace.span(mat, ncols)
    for row in mat:
        assert sp.contains_vector(row)
    assert sp.dim == rref(mat)[1]


def _fraction_gauss_jordan(mat):
    """Nonzero rows of the reduced row echelon form, by textbook Fraction steps."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(m[0])):
        src = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if src is None:
            continue
        m[rank], m[src] = m[src], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                q = m[i][col]
                m[i] = [a - q * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


larger_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=6)
)


@settings(max_examples=80)
@given(larger_matrices)
def test_span_is_primitive_integer_rref(mat):
    ncols = len(mat[0])
    sp = Subspace.span(mat, ncols)
    reference = _fraction_gauss_jordan(mat)
    assert len(sp.basis) == len(reference)
    for row, piv, ref in zip(sp.basis, sp.pivots, reference):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1 and row[piv] > 0
        assert [Fraction(x, row[piv]) for x in row] == ref
    kernel = nullspace(map(terms, mat), ncols)
    assert kernel == Subspace.span(kernel.basis, ncols)
    for v in kernel.basis:
        for row in mat:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def dense_nullspace(mat, ncols):
    """Canonical kernel basis of dense integer rows, as dense tuples: the reference for ``nullspace``.

    One ``rref`` with the columns reversed; each solution then leads at its
    free column and is zero on the others, scaled by the lcm of the pivots
    and made primitive.
    """
    reduced, rank = rref(row[::-1] for row in mat)
    echelon = [row[::-1] for row in reduced[:rank]]
    pivots = [ncols - 1 - next(i for i, x in enumerate(row) if x) for row in reduced[:rank]]
    scale = math.lcm(*(row[piv] for row, piv in zip(echelon, pivots)))
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = scale
        for row, piv in zip(echelon, pivots):
            v[piv] = -row[f] * (scale // row[piv])
        g = math.gcd(*v)
        vectors.append(tuple(x // g for x in v))
    return tuple(vectors)


# mostly zeros, with small entries that share factors and large ones that do not
sparse_entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(-6, 6), st.integers(-10**20, 10**20)
)


@st.composite
def systems(draw):
    """A width from 0 and up to 8 rows, plus repeated rows and combinations of two rows."""
    ncols = draw(st.integers(0, 8))
    mat = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols), max_size=8))
    for _ in range(draw(st.integers(0, 3)) if mat else 0):
        x, y = (mat[draw(st.integers(0, len(mat) - 1))] for _ in range(2))
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        mat.insert(draw(st.integers(0, len(mat))), [a * u + b * v for u, v in zip(x, y)])
    return ncols, mat


@settings(max_examples=300)
@given(systems())
def test_nullspace_over_terms_matches_the_dense_route(system):
    ncols, mat = system
    got = nullspace(map(terms, mat), ncols)
    expected = dense_nullspace(mat, ncols)
    assert got.ambient == ncols
    assert got.basis == expected
    assert got.rows == tuple(map(terms, expected))


def test_nullspace_of_no_rows_and_of_no_columns_matches_the_dense_route():
    assert nullspace([], 0) == Subspace(0, ()) and dense_nullspace([], 0) == ()
    assert nullspace([(), ()], 0).basis == dense_nullspace([[], []], 0) == ()
    assert nullspace([], 4).basis == dense_nullspace([], 4)
    assert nullspace([(), ()], 3).basis == dense_nullspace([[0, 0, 0], [0, 0, 0]], 3)


# -- the modular rank, a certified lower bound --------------------------------


def mod_rank(mat, limit):
    return modular_rank(map(terms, mat), limit)


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(
            st.one_of(st.integers(-10**30, 10**30), st.just(0)), min_size=n, max_size=n
        ),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=80)
@given(int_matrices)
def test_modular_rank_is_at_most_the_exact_rank(mat):
    _, rank = rref(mat)
    assert mod_rank(mat, len(mat[0])) <= rank
    # low-rank rows: every row a combination of the first two
    combos = [
        [a * x + b * y for x, y in zip(mat[0], mat[-1])] for a, b in ((1, 2), (3, -1), (7, 5))
    ]
    assert mod_rank(combos, len(mat[0])) <= rref(combos)[1] <= 2


def test_modular_rank_falls_short_on_multiples_of_the_prime():
    # exact rank 2, but the second row vanishes mod p
    rows = [[1, 0, 0], [0, MODULUS, 3 * MODULUS]]
    assert rref(rows)[1] == 2
    assert mod_rank(rows, 3) == 1
    # every 2 x 2 minor is p, although no entry is a multiple of it
    rows = [[1, 1, 0], [1, MODULUS + 1, MODULUS]]
    assert rref(rows)[1] == 2
    assert mod_rank(rows, 3) == 1


def test_modular_rank_equals_the_exact_rank_on_small_rows():
    rng = random.Random(5)
    for _ in range(50):
        ncols = rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 7))]
        assert mod_rank(mat, ncols) == rref(mat)[1]
    # mostly zero rows: spans of columns that start, end and fill in at random places
    for _ in range(50):
        ncols = rng.randint(1, 12)
        mat = [
            [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(ncols)]
            for _ in range(rng.randint(1, 12))
        ]
        assert mod_rank(mat, ncols) == rref(mat)[1]


def test_modular_rank_stops_at_the_limit():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert [mod_rank(rows, limit) for limit in (0, 1, 2, 3, 4)] == [0, 1, 2, 3, 3]
    assert modular_rank([], 2) == 0

    def rows_then_boom():
        yield ((0, 1),)
        yield ((1, 1),)
        raise AssertionError("read past the limit")

    assert modular_rank(rows_then_boom(), 2) == 2
