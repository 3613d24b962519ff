"""Exact linear algebra: canonical echelon forms, membership and nullspaces."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from maxnoether.errors import AmbientMismatch
from maxnoether.linalg import MODULUS, Subspace, modular_rank, nullspace, rref


def F(x):
    return Fraction(x)


def terms(row):
    """A dense integer row as a term row, its nonzero (index, coefficient) pairs."""
    return tuple((i, x) for i, x in enumerate(row) if x)


def within(space, row):
    """Does the term row lie in the subspace?  Reference: adding it leaves the span unchanged."""
    return Subspace.span(space.rows + (row,), space.ambient) == space


def dense(row, width):
    """The coefficient list of width ``width`` that a term row gives."""
    out = [0] * width
    for i, x in row:
        out[i] = x
    return out


def basis(space):
    """The basis rows of a ``Subspace``, each written out over the whole ambient."""
    return tuple(tuple(dense(row, space.ambient)) for row in space.rows)


def _fraction_gauss_jordan(mat, ncols):
    """Nonzero rows of the reduced row echelon form, by textbook Fraction steps."""
    m = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(ncols):
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


def exact_rank(mat):
    """Rank over Q of dense integer rows, by the Fraction reference."""
    return len(_fraction_gauss_jordan(mat, len(mat[0])))


def test_rref_trivial_cases():
    m, rank = rref([((0, 1),), ((1, 1),)], 2)
    assert m == [((0, 1),), ((1, 1),)] and rank == 2
    m, rank = rref([((0, 1), (1, 2)), ((0, 2), (1, 4))], 2)
    assert m == [((0, 1), (1, 2)), ()] and rank == 1
    m, rank = rref([(), ()], 2)
    assert m == [(), ()] and rank == 0


def test_rref_normalizes_pivots_and_clears_columns():
    m, rank = rref(map(terms, [[2, 4, 6], [1, 3, 5]]), 3)
    assert rank == 2
    assert m[0] == ((0, 1), (2, -1))
    assert m[1] == ((1, 1), (2, 2))


def test_rref_idempotent_on_rows_with_common_factors():
    # each row shares a factor of its own: 5 and 6
    rows = [((0, 15), (1, 10)), ((0, 12), (1, 30))]
    once, r1 = rref(rows, 2)
    twice, r2 = rref(once, 2)
    assert once == twice and r1 == r2


def test_span_and_membership():
    e1 = ((0, 1),)
    e2 = ((1, 1),)
    u = Subspace.span([e1], 2)
    w = Subspace.span([e1, e2], 2)
    assert all(within(w, row) for row in u.rows)
    assert not within(u, e2)
    assert within(u, ()) and within(Subspace.span([], 2), ())
    assert Subspace.span([((0, 1), (1, 1))], 2) == Subspace.span([((0, 2), (1, 2))], 2)


def test_ambient_mismatch():
    space = Subspace.span([((0, 1),)], 2)
    for row in (((0, 1), (2, 1)), ((-1, 1),), ((5, 3),)):
        with pytest.raises(AmbientMismatch):
            Subspace.span([((0, 1),), row], 2)
        with pytest.raises(AmbientMismatch):
            rref([row], 2)
    with pytest.raises(AmbientMismatch):
        Subspace.span([((0, 1),)], 0)


def test_nullspace_solves_system():
    rows = [[1, 2, 3], [0, 1, 1]]
    ns = nullspace(map(terms, rows), 3)
    assert ns.dim == 1
    v = basis(ns)[0]
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
    # rows of one term at most skip the elimination, and are checked all the same
    for ncols in (0, 1, 5):
        for bad in (-1, ncols):
            cases = [[((bad, 1),)], [(), ((bad, 0),)]]
            if ncols:
                cases.append([((0, 2),), (), ((bad, -7),)])
            for rows in cases:
                with pytest.raises(AmbientMismatch):
                    nullspace(rows, ncols)


# wide enough that rows share factors, so the gcd reduction runs
entries = st.integers(-30, 30)
matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5)
)


@settings(max_examples=60)
@given(matrices)
def test_rref_idempotent_random(mat):
    ncols = len(mat[0])
    once, r1 = rref(map(terms, mat), ncols)
    twice, r2 = rref(once, ncols)
    assert once == twice and r1 == r2


@settings(max_examples=60)
@given(matrices)
def test_rank_invariant_under_row_scaling_and_swaps(mat):
    ncols = len(mat[0])
    _, rank = rref(map(terms, mat), ncols)
    scaled = [[3 * x for x in row] for row in reversed(mat)]
    _, rank2 = rref(map(terms, scaled), ncols)
    assert rank == rank2


@settings(max_examples=60)
@given(matrices)
def test_rank_nullity(mat):
    ncols = len(mat[0])
    _, rank = rref(map(terms, mat), ncols)
    assert nullspace(map(terms, mat), ncols).dim == ncols - rank


@settings(max_examples=40)
@given(matrices)
def test_span_contains_its_generators(mat):
    ncols = len(mat[0])
    sp = Subspace.span(map(terms, mat), ncols)
    for row in mat:
        assert within(sp, terms(row))
    assert sp.dim == rref(map(terms, mat), ncols)[1]


larger_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=6)
)


@settings(max_examples=80)
@given(larger_matrices)
def test_span_is_primitive_integer_rref(mat):
    ncols = len(mat[0])
    sp = Subspace.span(map(terms, mat), ncols)
    reference = _fraction_gauss_jordan(mat, ncols)
    assert len(basis(sp)) == len(reference)
    for row, piv, ref in zip(basis(sp), sp.pivots, reference):
        assert all(type(x) is int for x in row)
        assert math.gcd(*row) == 1 and row[piv] > 0
        assert [Fraction(x, row[piv]) for x in row] == ref
    kernel = nullspace(map(terms, mat), ncols)
    assert kernel == Subspace.span(kernel.rows, ncols)
    for v in basis(kernel):
        for row in mat:
            assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def dense_nullspace(mat, ncols):
    """Canonical kernel basis of dense integer rows, as dense tuples: the reference for ``nullspace``.

    One Fraction Gauss-Jordan elimination with the columns reversed, so each
    pivot is its row's last column; each solution then leads at its free
    column and is zero on the others, and is scaled to coprime integers.
    """
    reduced = _fraction_gauss_jordan([row[::-1] for row in mat], ncols)
    echelon = [row[::-1] for row in reduced]
    pivots = [ncols - 1 - next(i for i, x in enumerate(row) if x) for row in reduced]
    vectors = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, piv in zip(echelon, pivots):
            v[piv] = -row[f]
        scale = math.lcm(*(x.denominator for x in v))
        g = math.gcd(*(int(x * scale) for x in v))
        vectors.append(tuple(int(x * scale) // g for x in v))
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
    assert basis(got) == expected
    assert got.rows == tuple(map(terms, expected))


nonzero_entries = st.one_of(st.integers(-6, 6), st.integers(-10**20, 10**20)).filter(bool)


@st.composite
def one_term_systems(draw):
    """One-term and empty rows on a width from 0 to 12, with pinned columns repeated.

    One row of two terms may join them, so a system can just miss the
    coordinate path.
    """
    ncols = draw(st.integers(0, 12))
    rows = [()] * draw(st.integers(0, 2))
    if ncols:
        unit = st.tuples(st.integers(0, ncols - 1), nonzero_entries).map(lambda term: (term,))
        rows += draw(st.lists(st.one_of(unit, st.just(())), max_size=12))
    pinned = [i for ((i, _),) in filter(None, rows)]
    for _ in range(draw(st.integers(0, 3)) if pinned else 0):
        again = ((draw(st.sampled_from(pinned)), draw(nonzero_entries)),)
        rows.insert(draw(st.integers(0, len(rows))), again)
    if ncols >= 2 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2, unique=True)))
        pair = ((i, draw(nonzero_entries)), (j, draw(nonzero_entries)))
        rows.insert(draw(st.integers(0, len(rows))), pair)
    return ncols, rows


@settings(max_examples=300)
@given(one_term_systems())
@example((0, [(), ()]))
@example((3, [((0, 1),), ((1, 1), (2, 1))]))
@example((4, [((2, -(10**20)),), (), ((2, 3),), ((0, 1), (3, -2)), ((0, 5),)]))
def test_nullspace_of_one_term_rows_matches_the_dense_route(system):
    ncols, rows = system
    got = nullspace(rows, ncols)
    expected = dense_nullspace([dense(row, ncols) for row in rows], ncols)
    assert got.ambient == ncols
    assert basis(got) == expected
    assert got.rows == tuple(map(terms, expected))


def test_nullspace_of_no_rows_and_of_no_columns_matches_the_dense_route():
    assert nullspace([], 0) == Subspace(0, ()) and dense_nullspace([], 0) == ()
    assert basis(nullspace([(), ()], 0)) == dense_nullspace([[], []], 0) == ()
    assert basis(nullspace([], 4)) == dense_nullspace([], 4)
    assert basis(nullspace([(), ()], 3)) == dense_nullspace([[0, 0, 0], [0, 0, 0]], 3)


@settings(max_examples=300)
@given(systems())
@example((0, []))
@example((0, [[], []]))
@example((3, []))
@example((3, [[0, 0, 0], [2, 4, -6], [0, 0, 0], [-1, -2, 3], [10**20, 0, 7]]))
def test_rref_and_span_match_the_fraction_reference(system):
    ncols, mat = system
    reduced, rank = rref(map(terms, mat), ncols)
    reference = _fraction_gauss_jordan(mat, ncols)
    assert rank == len(reference)
    # the rows keep their number: a () for each zero row follows the echelon rows
    assert reduced[rank:] == [()] * (len(mat) - rank)
    for row, ref in zip(reduced, reference):
        values = dense(row, ncols)
        _, p = row[0]
        assert p > 0 and math.gcd(*values) == 1
        assert [Fraction(x, p) for x in values] == ref
    sp = Subspace.span(map(terms, mat), ncols)
    assert sp == Subspace(ncols, tuple(reduced[:rank]))
    assert all(within(sp, terms(row)) for row in mat)


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
    rank = exact_rank(mat)
    assert mod_rank(mat, len(mat[0])) <= rank
    # low-rank rows: every row a combination of the first two
    combos = [
        [a * x + b * y for x, y in zip(mat[0], mat[-1])] for a, b in ((1, 2), (3, -1), (7, 5))
    ]
    assert mod_rank(combos, len(mat[0])) <= exact_rank(combos) <= 2


def test_modular_rank_falls_short_on_multiples_of_the_prime():
    # exact rank 2, but the second row vanishes mod p
    rows = [[1, 0, 0], [0, MODULUS, 3 * MODULUS]]
    assert exact_rank(rows) == 2
    assert mod_rank(rows, 3) == 1
    # every 2 x 2 minor is p, although no entry is a multiple of it
    rows = [[1, 1, 0], [1, MODULUS + 1, MODULUS]]
    assert exact_rank(rows) == 2
    assert mod_rank(rows, 3) == 1
    # a monomial that is a multiple of p adds no rank, whether its column is free or held
    assert mod_rank([[MODULUS]], 1) == 0
    rows = [[1, 0], [2 * MODULUS, 0], [0, -MODULUS]]
    assert exact_rank(rows) == 2
    assert mod_rank(rows, 2) == 1


def test_modular_rank_equals_the_exact_rank_on_small_rows():
    rng = random.Random(5)
    for _ in range(50):
        ncols = rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 7))]
        assert mod_rank(mat, ncols) == exact_rank(mat)
    # mostly zero rows: spans of columns that start, end and fill in at random places
    for _ in range(50):
        ncols = rng.randint(1, 12)
        mat = [
            [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(ncols)]
            for _ in range(rng.randint(1, 12))
        ]
        assert mod_rank(mat, ncols) == exact_rank(mat)
    # rows that lead further left come later: each stops at a column left of
    # the pivots already held and keeps them unreduced in its own row
    for _ in range(50):
        ncols = rng.randint(2, 10)
        mat = [
            [rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(ncols)]
            for _ in range(rng.randint(2, 10))
        ]
        mat.sort(key=lambda row: next((j for j, x in enumerate(row) if x), ncols), reverse=True)
        assert mod_rank(mat, ncols) == exact_rank(mat)
    # monomial-heavy rows: a monomial opens its column, is cleared by a
    # monomial pivot there, or meets a longer echelon row and is reduced
    for _ in range(100):
        ncols = rng.randint(1, 8)
        mat = []
        for _ in range(rng.randint(1, 12)):
            row = [0] * ncols
            for j in rng.sample(range(ncols), min(rng.choice((1, 1, 1, 2)), ncols)):
                row[j] = rng.choice((-3, -2, -1, 1, 2, 3))
            mat.append(row)
        assert mod_rank(mat, ncols) == exact_rank(mat)
    rows = [[0, 0, 1, 1], [0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 0, 0]]
    assert mod_rank(rows, 4) == exact_rank(rows) == 4
    # a monomial at a column whose echelon row is longer is reduced, not dropped;
    # one at a column whose echelon row is [1] adds nothing
    for rows in ([[1, 1], [1, 0]], [[1, 1], [5, 0], [0, 7]], [[1, 0], [-4, 0], [0, 3]]):
        assert mod_rank(rows, 3) == exact_rank(rows) == 2


def test_modular_rank_stops_at_the_limit():
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert [mod_rank(rows, limit) for limit in (0, 1, 2, 3, 4)] == [0, 1, 2, 3, 3]
    assert modular_rank([], 2) == 0

    def rows_then_boom():
        yield ((0, 1),)
        yield ((1, 1),)
        raise AssertionError("read past the limit")

    assert modular_rank(rows_then_boom(), 2) == 2
