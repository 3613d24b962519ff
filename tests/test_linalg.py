"""Exact linear algebra: canonical echelon forms and subspace lattice ops."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxnoether.errors import AmbientMismatch
from maxnoether.linalg import Subspace, nullspace, rref


def F(x):
    return Fraction(x)


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
    rows = [[F("1/2"), F("1/3")], [F("2/5"), F(1)]]
    once, r1 = rref(rows)
    twice, r2 = rref(once)
    assert once == twice and r1 == r2


def test_span_and_membership():
    e1 = [1, 0]
    e2 = [0, 1]
    u = Subspace.span([e1], 2)
    w = Subspace.span([e1, e2], 2)
    assert w.contains(u)
    assert not u.contains(Subspace.span([e2], 2))
    assert Subspace.span([[1, 1]], 2) == Subspace.span([[2, 2]], 2)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        Subspace.span([[1, 0]], 2).contains(Subspace.span([[1, 0, 0]], 3))
    with pytest.raises(AmbientMismatch):
        Subspace.span([[1, 0, 0]], 2)


def test_sum_of_subspaces():
    u = Subspace.span([[1, 0, 0]], 3)
    v = Subspace.span([[0, 1, 0]], 3)
    assert (u + v).dim == 2
    assert (u + u) == u


def test_nullspace_solves_system():
    rows = [[1, 2, 3], [0, 1, 1]]
    ns = nullspace(rows, 3)
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


entries = st.integers(-6, 6).map(Fraction) | st.fractions(
    min_value=-3, max_value=3, max_denominator=5
)
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
    assert nullspace(mat, ncols).dim == ncols - rank


@settings(max_examples=40)
@given(matrices)
def test_span_contains_its_generators(mat):
    ncols = len(mat[0])
    sp = Subspace.span(mat, ncols)
    for row in mat:
        assert sp.contains_vector(row)
    assert sp.dim == rref(mat)[1]
