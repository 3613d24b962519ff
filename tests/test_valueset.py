"""Value set arithmetic against window-materialized set oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from maxnoether.errors import EmptySet, NotARing, NotNested
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.valueset import (
    ValueSet,
    canonical_ideal,
    dualizing_values,
    n_fold,
    quotient_dim,
    ring_closure,
    sumset,
)

S345 = NumericalSemigroup.from_generators([3, 4, 5])
S23 = NumericalSemigroup.from_generators([2, 3])
S27 = NumericalSemigroup.from_generators([2, 7])
S5679 = NumericalSemigroup.from_generators([5, 6, 7, 9])


def materialize(vs, lo, hi):
    """Oracle view: the set restricted to an explicit window."""
    return {x for x in range(lo, hi + 1) if x in vs}


def test_normalization_absorbs_into_threshold():
    assert ValueSet((0, 1, 2), 3) == ValueSet.naturals()
    assert ValueSet((5,), 5) == ValueSet.above(5)
    assert ValueSet((4, 7, 8, 9), 10) == ValueSet((4,), 7)


def test_empty_set_is_flagged():
    empty = ValueSet.finite([])
    assert empty.is_empty
    assert empty.min is None
    with pytest.raises(EmptySet):
        sumset(empty, ValueSet.naturals())


@pytest.mark.parametrize(
    "s, exceptional, threshold",
    [
        (S345, (0, 1), 3),
        (S23, (0,), 2),
        (S5679, (0, 4, 5, 6, 7), 9),
    ],
)
def test_canonical_ideal_frozen(s, exceptional, threshold):
    k = canonical_ideal(s)
    assert k == ValueSet(exceptional, threshold)
    # oracle: direct membership test of the defining condition on a window
    a = s.conductor
    assert materialize(k, -2, 2 * a) == {
        d for d in range(-2, 2 * a + 1) if not s.contains(a - d - 1)
    }
    assert k.min == 0


def test_canonical_ideal_equals_semigroup_iff_symmetric():
    assert canonical_ideal(S23) == ValueSet.from_semigroup(S23)
    assert canonical_ideal(S345) != ValueSet.from_semigroup(S345)
    for s in enumerate_semigroups(10):
        assert (canonical_ideal(s) == ValueSet.from_semigroup(s)) == s.is_symmetric()


def test_canonical_ideal_contains_semigroup_with_small_threshold():
    for s in enumerate_semigroups(8):
        k = canonical_ideal(s)
        assert ValueSet.from_semigroup(s).is_subset(k)
        assert k.min == 0
        assert k.threshold is not None and k.threshold <= s.conductor


@pytest.mark.parametrize(
    "s, expected",
    [
        (NumericalSemigroup.from_generators([1]), ValueSet.naturals()),
        (S345, ValueSet((-3, -2), 0)),
        (S27, ValueSet((-6, -4, -2), 0)),
    ],
)
def test_dualizing_values_frozen(s, expected):
    assert dualizing_values(s) == expected


def test_dualizing_shift_identity():
    for s in enumerate_semigroups(6):
        assert canonical_ideal(s).shift(-s.conductor) == dualizing_values(s)
        assert dualizing_values(s).min == -s.conductor


def test_sumset_frozen_examples():
    k = ValueSet((0, 1), 3)
    assert sumset(k, k) == ValueSet.naturals()
    evens = ValueSet((0, 2, 4), 6)
    assert n_fold(evens, 2) == evens
    assert n_fold(k, 1) == k


def test_sumset_window_oracle():
    a = ValueSet((0, 2), 5)
    b = ValueSet((-3, 1), None)
    got = sumset(a, b)
    want = set()
    for x in materialize(a, -10, 40):
        for y in (-3, 1):
            want.add(x + y)
    assert materialize(got, -10, 30) == {w for w in want if -10 <= w <= 30}


def test_module_closure_examples():
    # closing under adding members of S is the sumset with S
    r345 = ValueSet.from_semigroup(S345)
    assert sumset(ValueSet.finite([0]), r345) == r345
    k = canonical_ideal(S345)
    assert sumset(k, r345) == k
    assert sumset(ValueSet.finite([5]), ValueSet.from_semigroup(S23)) == ValueSet((5,), 7)


def test_ring_closure_examples():
    assert ring_closure(ValueSet((0, 1), 3)) == ValueSet.naturals()
    assert ring_closure(ValueSet((0, 4, 5, 6, 7), 9)) == ValueSet((0,), 4)
    s = ValueSet.from_semigroup(S5679)
    assert ring_closure(s) == s


def test_ring_closure_errors():
    with pytest.raises(NotARing):
        ring_closure(ValueSet((1, 2), 5))
    with pytest.raises(NotARing):
        ring_closure(ValueSet((-1, 0), 3))
    with pytest.raises(NotARing):
        ring_closure(ValueSet.finite([0, 2]))


def test_ring_closure_finite_with_unit_gcd():
    assert ring_closure(ValueSet.finite([0, 2, 3])) == ValueSet((0,), 2)
    assert ring_closure(ValueSet.finite([0])) == ValueSet.finite([0])


def test_quotient_dim_frozen():
    assert quotient_dim(ValueSet.above(6), ValueSet.above(9)) == 3
    k = canonical_ideal(S345)
    assert quotient_dim(k, k) == 0
    k4511 = canonical_ideal(NumericalSemigroup.from_generators([4, 5, 11]))
    assert k4511 == ValueSet((0, 1, 4, 5, 6), 8)
    assert quotient_dim(ValueSet.naturals(), k4511) == 3


def test_quotient_dim_not_nested():
    with pytest.raises(NotNested):
        quotient_dim(ValueSet.above(5), ValueSet.above(3))
    with pytest.raises(NotNested):
        quotient_dim(ValueSet.above(0), ValueSet.finite([0, 1]))


def test_shift_examples():
    assert ValueSet.above(6).shift(-1) == ValueSet.above(5)
    assert ValueSet.finite([0, 1]).shift(3) == ValueSet.finite([3, 4])
    assert canonical_ideal(S27).shift(-6) == dualizing_values(S27)


def test_eta_bound_over_census():
    # below-conductor excess of the canonical ideal stays under the genus
    for s in enumerate_semigroups(8):
        if s.genus == 0:
            continue
        eta = quotient_dim(canonical_ideal(s), ValueSet.from_semigroup(s))
        assert eta < s.genus


def test_module_closure_idempotent_and_monotone():
    ring = ValueSet.from_semigroup(S5679)
    k = canonical_ideal(S5679)
    assert k == ValueSet((0, 4, 5, 6, 7), 9)
    closed = sumset(k, ring)
    assert closed == k  # K + S = K
    assert sumset(closed, ring) == closed
    # monotone: a subset closes into the closure of its superset
    bigger = ValueSet((0, 1, 4), 5)
    assert k.is_subset(bigger)
    assert closed.is_subset(sumset(bigger, ring))
    assert sumset(ValueSet.finite([0]), ring).is_subset(closed)


finite_sets = st.lists(st.integers(-8, 12), min_size=1, max_size=5)
thresholds = st.one_of(st.none(), st.integers(-8, 14))


@st.composite
def value_sets(draw):
    exc = draw(finite_sets)
    t = draw(thresholds)
    return ValueSet(tuple(exc), t)


@settings(max_examples=80)
@given(value_sets(), value_sets())
def test_sumset_matches_window_oracle(a, b):
    # elements are >= -8 by construction, so any sum <= 40 has both witnesses
    # inside [-8, 48] and the windows below are exhaustive
    got = sumset(a, b)
    want = set()
    for x in materialize(a, -8, 48):
        for y in materialize(b, -8, 48):
            want.add(x + y)
    assert materialize(got, -16, 40) == {w for w in want if -16 <= w <= 40}


@settings(max_examples=60)
@given(value_sets(), st.integers(-10, 10))
def test_shift_roundtrip(a, e):
    assert a.shift(e).shift(-e) == a


@settings(max_examples=40)
@given(value_sets())
def test_n_fold_consistency(a):
    assert n_fold(a, 1) == a
    assert n_fold(a, 3) == sumset(sumset(a, a), a)
