"""Value set arithmetic against window-materialized set oracles."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from maxnoether.errors import ConductorTooLarge, EmptySet, NotARing, NotNested
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.valueset import (
    MAX_CONDUCTOR,
    ValueSet,
    canonical_ideal,
    dualizing_values,
    missing_below,
    n_fold,
    quotient_dim,
    ring_closure,
    sumset,
)
from test_semigroup import closure_members

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
    assert canonical_ideal(S23) == S23.values
    assert canonical_ideal(S345) != S345.values
    for s in enumerate_semigroups(10):
        assert (canonical_ideal(s) == s.values) == s.is_symmetric()


def test_canonical_ideal_contains_semigroup_with_small_threshold():
    for s in enumerate_semigroups(8):
        k = canonical_ideal(s)
        assert s.values.is_subset(k)
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
    r345 = S345.values
    assert sumset(ValueSet.finite([0]), r345) == r345
    k = canonical_ideal(S345)
    assert sumset(k, r345) == k
    assert sumset(ValueSet.finite([5]), S23.values) == ValueSet((5,), 7)


def test_ring_closure_examples():
    assert ring_closure(ValueSet((0, 1), 3)) == ValueSet.naturals()
    assert ring_closure(ValueSet((0, 4, 5, 6, 7), 9)) == ValueSet((0,), 4)
    s = S5679.values
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


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4))
def test_ring_closure_finite_matches_oracle(gens):
    # the oracle is a breadth-first search, independent of sumsets
    if math.gcd(*gens) != 1:
        with pytest.raises(NotARing):
            ring_closure(ValueSet.finite([0, *gens]))
        return
    closed = ring_closure(ValueSet.finite([0, *gens]))
    # Schur's bound: the closure holds everything from (min - 1)(max - 1) on
    bound = (min(gens) - 1) * (max(gens) - 1) + 25
    assert materialize(closed, -3, bound) == closure_members(gens, bound)
    assert closed.threshold <= (min(gens) - 1) * (max(gens) - 1)


def test_ring_closure_stops_at_the_conductor_cap():
    # <400, 401> has conductor 399 * 400, far past the cap; the closure must
    # say so after a window of MAX_CONDUCTOR + 400 values, not 399 * 400
    with pytest.raises(ConductorTooLarge, match=f"MAX_CONDUCTOR = {MAX_CONDUCTOR}"):
        ring_closure(ValueSet.finite([0, 400, 401]))
    with pytest.raises(ConductorTooLarge):
        ring_closure(ValueSet((0, 400, 401), 10**9))
    with pytest.raises(ConductorTooLarge):
        ring_closure(ValueSet.finite([0, 2, MAX_CONDUCTOR + 3]))
    # a least member past the cap leaves the gaps 1, ..., min - 1, and a
    # member gcd of 2 leaves t - 1 or t - 2: no window of that size is built
    with pytest.raises(ConductorTooLarge):
        ring_closure(ValueSet.finite([0, 10**9, 10**9 + 1]))
    with pytest.raises(ConductorTooLarge):
        ring_closure(ValueSet((0,), 10**9))
    with pytest.raises(ConductorTooLarge):
        ring_closure(ValueSet((0, 2), 10**9))
    # the lower bounds are tight at the cap
    assert ring_closure(ValueSet((0,), MAX_CONDUCTOR)).threshold == MAX_CONDUCTOR
    closed = ring_closure(ValueSet((0, 2), MAX_CONDUCTOR + 1))
    assert closed.threshold == MAX_CONDUCTOR
    # a Schur bound past the cap with a small conductor still closes exactly
    assert ring_closure(ValueSet.finite([0, 2, 3, 3 * MAX_CONDUCTOR])) == ValueSet((0,), 2)
    at_cap = ring_closure(ValueSet.finite([0, 2, MAX_CONDUCTOR + 1]))
    assert at_cap.threshold == MAX_CONDUCTOR
    # a ray that starts inside the window is kept: <3, 10000> below 10001
    # has its largest gap at 9998
    closed = ring_closure(ValueSet((0, 3, MAX_CONDUCTOR), MAX_CONDUCTOR + 1))
    assert closed.threshold == MAX_CONDUCTOR - 1
    assert closed.exceptional == tuple(range(0, MAX_CONDUCTOR - 1, 3))


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
        eta = quotient_dim(canonical_ideal(s), s.values)
        assert eta < s.genus


def test_module_closure_idempotent_and_monotone():
    ring = S5679.values
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


# -- differential tests against plain Python sets ------------------------------

# Drawn members are >= -8 and thresholds <= 14, so a sum of up to four members
# that is <= CUT has every summand <= CUT + 24 <= HI, and every finite part
# and threshold the operations below produce lies at or below CUT.
LOW, CUT, HI = -40, 60, 100


@st.composite
def raw_value_sets(draw):
    """(members, threshold) as handed to the constructor, before normal form."""
    kind = draw(st.sampled_from(["singleton", "finite", "ray", "mixed"]))
    if kind == "singleton":
        return [draw(st.integers(-8, 12))], None
    if kind == "ray":
        return [], draw(st.integers(-8, 14))
    exc = draw(st.lists(st.integers(-8, 12), min_size=1, max_size=8))
    return exc, None if kind == "finite" else draw(st.integers(-8, 14))


def reference(raw, hi=HI):
    """The members of a raw value set up to ``hi``, as a Python set."""
    exc, t = raw
    return set(exc) | (set(range(t, hi + 1)) if t is not None else set())


def build(raw):
    exc, t = raw
    return ValueSet(tuple(exc), t)


def window(vs, hi=CUT):
    return {x for x in range(LOW, hi + 1) if vs.contains(x)}


def set_sum(a, b):
    return {x + y for x in a for y in b}


@settings(max_examples=150)
@given(raw_value_sets())
def test_membership_and_listing_match_python_sets(raw):
    vs, ref = build(raw), reference(raw)
    assert window(vs) == {x for x in ref if x <= CUT}
    for bound in range(LOW, CUT + 1, 7):
        assert vs.elements_below(bound) == sorted(x for x in ref if x < bound)
    assert vs.min == (min(ref) if ref else None)


@settings(max_examples=150)
@given(raw_value_sets(), raw_value_sets())
def test_sumset_matches_python_sets(ra, rb):
    got = sumset(build(ra), build(rb))
    want = set_sum(reference(ra), reference(rb))
    assert window(got) == {x for x in want if x <= CUT}
    assert (got.threshold is None) == (ra[1] is None and rb[1] is None)
    assert got == ValueSet(tuple(got.exceptional), got.threshold)  # normal form


@settings(max_examples=80)
@given(raw_value_sets(), st.integers(1, 4))
def test_n_fold_matches_python_sets(raw, n):
    want = reference(raw)
    for _ in range(n - 1):
        want = {x for x in set_sum(want, reference(raw)) if x <= HI}
    assert window(n_fold(build(raw), n)) == {x for x in want if x <= CUT}


@settings(max_examples=150)
@given(raw_value_sets(), raw_value_sets())
def test_subset_and_quotient_dim_match_python_sets(ra, rb):
    a, b = build(ra), build(rb)
    ref_a, ref_b = reference(ra), reference(rb)
    # past 14 each reference holds all of the window or none of it, so
    # comparing the references decides inclusion of the infinite sets
    assert a.is_subset(b) == (ref_a <= ref_b)
    if not ref_b <= ref_a:
        with pytest.raises(NotNested):
            quotient_dim(a, b)
    elif ra[1] is not None and rb[1] is None:
        with pytest.raises(NotNested):
            quotient_dim(a, b)
    else:
        assert quotient_dim(a, b) == len(ref_a - ref_b)


@settings(max_examples=150)
@given(raw_value_sets(), raw_value_sets())
def test_missing_below_matches_python_sets(ra, rb):
    a, b = build(ra), build(rb)
    diff = reference(ra) - reference(rb)
    for bound in range(LOW, CUT + 1, 3):
        assert missing_below(a, b, bound) == sorted(x for x in diff if x < bound)
    assert missing_below(ValueSet.finite([]), a, CUT) == []
    assert missing_below(a, ValueSet.finite([]), CUT) == a.elements_below(CUT)


@settings(max_examples=40)
@given(raw_value_sets())
def test_empty_operands_are_rejected(raw):
    empty, vs = ValueSet.finite([]), build(raw)
    with pytest.raises(EmptySet):
        sumset(empty, vs)
    with pytest.raises(EmptySet):
        sumset(vs, empty)
    with pytest.raises(EmptySet):
        n_fold(empty, 2)
    assert not empty.contains(0) and empty.is_subset(vs)
    if raw[1] is None:
        assert quotient_dim(vs, empty) == len(reference(raw))
    else:
        with pytest.raises(NotNested):
            quotient_dim(vs, empty)


def mask_built(raw):
    """The raw set built by ``_from_mask``, which never holds a tuple."""
    exc, t = raw
    lo = min(exc + ([] if t is None else [t]))
    return ValueSet._from_mask(lo, sum(1 << (x - lo) for x in set(exc)), t)


@settings(max_examples=150)
@given(raw_value_sets(), raw_value_sets())
def test_equal_sets_hash_equal_in_either_form(ra, rb):
    for other in (ra, rb):
        same = reference(ra) == reference(other)
        for make_a in (build, mask_built):
            for make_b in (build, mask_built):
                a, b = make_a(ra), make_b(other)
                assert (a == b) == same
                if same:
                    assert hash(a) == hash(b)
        # two constructed sets compare and hash by their tuples
        a, b = build(ra), build(other)
        assert (a == b) == same and hash(a) == hash(build(ra))
        assert "_mask" not in a.__dict__ and "_mask" not in b.__dict__


def test_far_member_compares_and_hashes_without_a_mask():
    # a mask of these sets would need 10**12 bits
    a, b = ValueSet.finite([0, 10**12]), ValueSet.finite([0, 10**12])
    assert a == b and hash(a) == hash(b)
    assert a != ValueSet.finite([0, 10**12 + 1]) and a != ValueSet.finite([0, 1, 10**12])
    assert a != ValueSet._from_mask(0, 0b11, None)  # one form each, other shapes
    assert "_mask" not in a.__dict__ and "_mask" not in b.__dict__


@settings(max_examples=150)
@given(raw_value_sets(), st.integers(0, 5), st.integers(0, 3))
def test_constructed_and_mask_built_sets_agree(raw, pad, spill):
    # the constructor keeps a sorted tuple, sumset and _from_mask keep a mask;
    # one set reached both ways is one normal form
    built = build(raw)
    exc, t = raw
    lo = min(exc + ([] if t is None else [t])) - pad  # an offset below every member
    mask = sum(1 << (x - lo) for x in set(exc))
    if t is not None:
        mask |= ((1 << spill) - 1) << (t - lo)  # bits on the ray are dropped
    reached = [
        ValueSet._from_mask(lo, mask, t),
        sumset(built, ValueSet.finite([0])),
        sumset(ValueSet.finite([-pad]), built).shift(pad),
    ]
    for vs in reached:
        assert vs == built and hash(vs) == hash(built)
        assert vs.exceptional == built.exceptional
        assert vs.min == built.min and vs.is_empty == built.is_empty
        assert str(vs) == str(built) and vs.to_json() == built.to_json()
        assert ValueSet(vs.exceptional, vs.threshold) == vs
    # the same mask and threshold from another offset is another set
    if built.exceptional:
        moved = ValueSet._from_mask(lo + 1, mask, None if t is None else t + 1)
        assert moved != built and moved == built.shift(1)
