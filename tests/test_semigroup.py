"""Numerical semigroup invariants against brute-force oracles."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from maxnoether.errors import ConductorTooLarge, EmptyGenerators, NoSingularity, NotCofinite
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.valueset import MAX_CONDUCTOR


def closure_members(gens, bound):
    """Oracle: all sums of generators up to ``bound``, by breadth-first search."""
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in members:
                members.add(y)
                frontier.append(y)
    return members


def oracle_gaps(gens, bound=200):
    members = closure_members(gens, bound)
    return [x for x in range(1, bound) if x not in members]


def oracle_pseudo_frobenius(s):
    """Oracle: exhaustive test of every gap against every nonzero member."""
    nonzero = [m for m in range(1, 2 * s.conductor + 2) if s.contains(m)]
    return [x for x in s.gaps if all(s.contains(x + m) for m in nonzero)]


SEMIGROUPS_G7 = list(enumerate_semigroups(7))


@pytest.mark.parametrize(
    "gens, gaps, alpha, beta, genus",
    [
        ([1], (), 0, 1, 0),
        ([3, 4, 5], (1, 2), 3, 3, 2),
        ([2, 7], (1, 3, 5), 6, 2, 3),
        ([5, 6, 7, 9], (1, 2, 3, 4, 8), 9, 5, 5),
    ],
)
def test_from_generators_frozen(gens, gaps, alpha, beta, genus):
    s = NumericalSemigroup.from_generators(gens)
    assert s.gaps == gaps == tuple(oracle_gaps(gens))
    assert s.conductor == alpha
    assert s.multiplicity == beta
    assert s.genus == genus
    assert s.frobenius == alpha - 1


def test_from_generators_reduces_to_minimal_set():
    s = NumericalSemigroup.from_generators([3, 4, 5, 7, 9])
    assert s.generators == (3, 4, 5)


def test_from_generators_errors():
    with pytest.raises(EmptyGenerators):
        NumericalSemigroup.from_generators([])
    with pytest.raises(NotCofinite):
        NumericalSemigroup.from_generators([2, 4])


def test_contains():
    s = NumericalSemigroup.from_generators([3, 4, 5])
    assert not s.contains(2)
    assert s.contains(7)
    assert s.contains(-1) is False
    assert NumericalSemigroup.from_generators([1]).contains(0)


@pytest.mark.parametrize(
    "gens, pf",
    [
        ([3, 4, 5], (1, 2)),
        ([2, 3], (1,)),
        ([5, 6, 7, 9], (4, 8)),
    ],
)
def test_pseudo_frobenius_frozen(gens, pf):
    s = NumericalSemigroup.from_generators(gens)
    assert s.pseudo_frobenius() == pf == tuple(oracle_pseudo_frobenius(s))
    assert s.frobenius in s.pseudo_frobenius()


def test_pseudo_frobenius_full_semigroup():
    with pytest.raises(NoSingularity):
        NumericalSemigroup.from_generators([1]).pseudo_frobenius()


@pytest.mark.parametrize(
    "gens, symmetric",
    [([2, 3], True), ([3, 4, 5], False), ([4, 5, 6], True)],
)
def test_is_symmetric_frozen(gens, symmetric):
    s = NumericalSemigroup.from_generators(gens)
    assert s.is_symmetric() is symmetric


def test_is_symmetric_matches_the_definition():
    semigroups = list(enumerate_semigroups(12))
    assert len(semigroups) == 1413
    for s in semigroups:
        f = s.frobenius
        # x in S iff F - x is a gap; outside [0, F] exactly one of x, F - x is in S
        definition = all(s.contains(x) != s.contains(f - x) for x in range(f + 1))
        assert s.is_symmetric() is definition, s.gaps


@pytest.mark.parametrize(
    "gens, ag",
    [([3, 5, 7], True), ([4, 5, 11], False), ([2, 3], True)],
)
def test_is_almost_gorenstein_frozen(gens, ag):
    s = NumericalSemigroup.from_generators(gens)
    assert s.is_almost_gorenstein() is ag


def test_almost_gorenstein_witness_invariants():
    s = NumericalSemigroup.from_generators([3, 5, 7])
    assert (s.genus, s.conductor - s.genus, len(s.pseudo_frobenius())) == (3, 2, 2)
    s = NumericalSemigroup.from_generators([4, 5, 11])
    assert (s.genus, s.conductor - s.genus, len(s.pseudo_frobenius())) == (5, 3, 2)


def test_enumerate_trivial():
    assert [str(s) for s in enumerate_semigroups(0)] == ["<1>"]


def test_enumerate_genus_two_census():
    got = list(enumerate_semigroups(2))
    assert [s.gaps for s in got] == [(), (1,), (1, 2), (1, 3)]
    assert {str(s) for s in got} == {"<1>", "<2,3>", "<3,4,5>", "<2,5>"}


def test_enumerate_counts_match_bruteforce():
    # the census scans g-subsets in combinations order, so the two agree in order,
    # although the walk sorts no level
    from maxnoether.suites import bruteforce_gap_census

    tree = [s.gaps for s in enumerate_semigroups(12)]
    assert tree == bruteforce_gap_census(12)
    assert len(tree) == sum(PUBLISHED_GENUS_COUNTS[:13])


def test_enumerate_builds_each_child_as_from_gaps_does():
    # the walk derives a child's generators, members and multiplicity from its
    # parent; from_gaps derives them from the gaps alone, by one sumset
    for s in enumerate_semigroups(15):
        ref = NumericalSemigroup.from_gaps(s.gaps)
        assert s.generators == ref.generators, s.gaps
        assert (s.gaps, s.values, s.multiplicity) == (ref.gaps, ref.values, ref.multiplicity)


def test_enumerate_a_multiplicity_above_every_genus_walks_nothing(monkeypatch):
    # genus g allows multiplicity g + 1 at most, reached by {0} u [g + 1, oo) alone
    assert [str(s) for s in enumerate_semigroups(6, min_multiplicity=7)] == ["<7,8,9,10,11,12,13>"]

    def refuse(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(NumericalSemigroup, "from_generators", refuse)
    assert list(enumerate_semigroups(6, min_multiplicity=8)) == []
    assert list(enumerate_semigroups(22, min_multiplicity=30)) == []


def _pair_loop_census(max_genus):
    """Gap sets by the plain pair loop: no sum of two non-gaps may be a gap."""
    from itertools import combinations

    found = []
    for g in range(max_genus + 1):
        for gaps in combinations(range(1, 2 * g), g):
            members = [m for m in range(1, 2 * g) if m not in gaps]
            if all(x + y not in gaps for x in members for y in members):
                found.append(gaps)
    return found


# Numerical semigroups per genus, g = 0..14 (Bras-Amoros, Semigroup Forum 76,
# 2008): published counts that owe nothing to this code
PUBLISHED_GENUS_COUNTS = [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693]


def test_bruteforce_census_per_genus_counts():
    from maxnoether.suites import bruteforce_gap_census

    counts = Counter(len(gaps) for gaps in bruteforce_gap_census(14))
    assert [counts[g] for g in range(15)] == PUBLISHED_GENUS_COUNTS
    assert sum(counts.values()) == 4107


def test_bruteforce_census_matches_a_pair_loop():
    # the census prunes a member-or-gap search with sum masks; this oracle
    # tries every g-subset with a plain pair loop and shares none of that
    from maxnoether.suites import bruteforce_gap_census

    assert sorted(bruteforce_gap_census(8)) == sorted(_pair_loop_census(8))
    assert len(_pair_loop_census(8)) == sum(PUBLISHED_GENUS_COUNTS[:9])


def test_bruteforce_census_keeps_the_subset_scan_order():
    # the former census: every g-subset of [1, 2g - 1] in combinations order,
    # kept when no member x <= top / 2 adds up to a gap by a mask shift
    from itertools import combinations

    from maxnoether.suites import bruteforce_gap_census

    reference = [()]
    for g in range(1, 10):
        for gaps in combinations(range(1, 2 * g), g):
            top = gaps[-1]
            gapmask = sum(1 << h for h in gaps)
            members = ~gapmask & ((1 << top) - 1)
            if not any(
                members >> x & 1 and members << x & gapmask for x in range(1, top // 2 + 1)
            ):
                reference.append(gaps)
    assert bruteforce_gap_census(9) == reference
    assert bruteforce_gap_census(0) == [()] and bruteforce_gap_census(-1) == []


def test_bruteforce_census_uses_no_semigroup_or_value_set_code(monkeypatch):
    from maxnoether import semigroup, suites, valueset

    def refuse(*args, **kwargs):
        raise AssertionError("the census must not call this")

    monkeypatch.setattr(NumericalSemigroup, "from_gaps", refuse)
    monkeypatch.setattr(semigroup, "enumerate_semigroups", refuse)
    monkeypatch.setattr(suites, "enumerate_semigroups", refuse)
    monkeypatch.setattr(valueset.ValueSet, "__init__", refuse)
    monkeypatch.setattr(valueset.ValueSet, "_from_mask", refuse)
    counts = Counter(len(gaps) for gaps in suites.bruteforce_gap_census(10))
    assert [counts[g] for g in range(11)] == PUBLISHED_GENUS_COUNTS[:11]


def test_from_gaps_accepts_exactly_the_census():
    # every semigroup of genus g has its gaps in [1, 2g - 1]
    from itertools import combinations

    from maxnoether.suites import bruteforce_gap_census

    census = set(bruteforce_gap_census(6))
    tried = accepted = 0
    for g in range(7):
        for gaps in combinations(range(1, 2 * g), g):
            tried += 1
            if gaps not in census:
                with pytest.raises(ValueError, match="is a gap"):
                    NumericalSemigroup.from_gaps(gaps)
                continue
            s = NumericalSemigroup.from_gaps(gaps)
            assert s.gaps == gaps
            assert NumericalSemigroup.from_generators(s.generators) == s
            accepted += 1
    assert (tried, accepted) == (638, len(census))


def test_enumerate_per_genus_counts():
    counts = Counter(s.genus for s in enumerate_semigroups(14))
    assert [counts[g] for g in range(15)] == PUBLISHED_GENUS_COUNTS


def test_enumerate_min_multiplicity_filter():
    got = list(enumerate_semigroups(3, min_multiplicity=3))
    assert all(s.multiplicity >= 3 for s in got)
    assert {s.gaps for s in got} == {(1, 2), (1, 2, 3), (1, 2, 4), (1, 2, 5)}


def test_enumerate_no_duplicates_up_to_genus_9():
    seen = [s.gaps for s in enumerate_semigroups(9)]
    assert len(seen) == len(set(seen))


@given(st.sampled_from(SEMIGROUPS_G7))
def test_partition_and_bounds(s):
    alpha, g = s.conductor, s.genus
    below = set(range(alpha))
    assert set(s.gaps) | {m for m in below if s.contains(m)} == below
    assert alpha <= 2 * g
    assert s.multiplicity <= g + 1


@given(st.sampled_from(SEMIGROUPS_G7))
def test_generators_are_minimal_and_regenerate(s):
    regen = NumericalSemigroup.from_generators(s.generators) if s.generators else s
    assert regen == s
    for i, g in enumerate(s.generators):
        others = s.generators[:i] + s.generators[i + 1 :]
        if others:
            sub = closure_members(others, g)
            assert g not in sub


@given(st.sampled_from(SEMIGROUPS_G7))
def test_values_of_a_plain_instance_close_the_generators(s):
    # an instance made without a constructor computes its value set itself
    assert NumericalSemigroup(s.generators, s.gaps).values == s.values


def test_almost_gorenstein_inequality_over_census():
    # the count genus >= |S below conductor| + type - 1 holds for every
    # semigroup; almost Gorenstein means it is tight
    for s in enumerate_semigroups(8):
        if not s.gaps:
            continue
        n_below = s.conductor - s.genus
        t = len(s.pseudo_frobenius())
        assert s.genus >= n_below + t - 1
        assert s.is_almost_gorenstein() == (s.genus == n_below + t - 1)


def trace_nearly_gorenstein_oracle(s):
    """M inside K + (S - K), from listed sets on the window [0, 2 * conductor)."""
    c = s.conductor
    window = range(2 * c)
    members = {x for x in window if x >= c or x not in s.gaps}
    k = {d for d in window if d >= c or (c - 1 - d) not in members}
    dual = {x for x in window if all(x + d in members or x + d >= c for d in k)}
    trace = {x + d for x in dual for d in k}
    return all(m in trace for m in members if 0 < m < c)


def test_nearly_gorenstein_counts_per_genus():
    # non-symmetric semigroups of genus exactly g = 5..10
    counts = {g: Counter() for g in range(5, 11)}
    for s in enumerate_semigroups(10):
        if s.genus < 5 or s.is_symmetric():
            continue
        ng, ag = s.is_nearly_gorenstein(), s.is_almost_gorenstein()
        assert ng == trace_nearly_gorenstein_oracle(s)
        counts[s.genus].update(total=1, nearly=ng, almost=ag)
    assert [counts[g]["nearly"] for g in range(5, 11)] == [7, 13, 18, 37, 57, 91]
    assert [counts[g]["almost"] for g in range(5, 11)] == [6, 11, 14, 28, 41, 64]
    assert [counts[g]["total"] for g in range(5, 11)] == [9, 17, 31, 60, 103, 184]


def test_almost_gorenstein_implies_nearly_gorenstein():
    only_nearly = []
    for s in enumerate_semigroups(10):
        if s.is_almost_gorenstein():
            assert s.is_nearly_gorenstein(), s
        elif s.is_nearly_gorenstein():
            only_nearly.append(s)
        if s.is_symmetric():
            assert s.is_nearly_gorenstein(), s
    assert min(only_nearly, key=lambda s: (s.genus, s.gaps)).generators == (4, 5, 11)
    s = NumericalSemigroup.from_generators([4, 5, 11])
    assert s.is_nearly_gorenstein() and not s.is_almost_gorenstein()


@given(st.sampled_from(SEMIGROUPS_G7))
def test_pseudo_frobenius_matches_oracle(s):
    if not s.gaps:
        return
    assert list(s.pseudo_frobenius()) == oracle_pseudo_frobenius(s)


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4))
def test_random_generators_membership_matches_oracle(gens):
    import math

    if math.gcd(*gens) != 1:
        with pytest.raises(NotCofinite):
            NumericalSemigroup.from_generators(gens)
        return
    s = NumericalSemigroup.from_generators(gens)
    members = closure_members(gens, s.conductor + 10)
    for m in range(s.conductor + 10):
        assert s.contains(m) == (m in members)


def test_conductor_cap_is_exact():
    # <2, 2k+1> has conductor 2k
    at_cap = NumericalSemigroup.from_generators([2, MAX_CONDUCTOR + 1])
    assert at_cap.conductor == MAX_CONDUCTOR
    with pytest.raises(ConductorTooLarge, match=str(MAX_CONDUCTOR)):
        NumericalSemigroup.from_generators([2, MAX_CONDUCTOR + 3])
    with pytest.raises(ConductorTooLarge):
        NumericalSemigroup.from_generators([MAX_CONDUCTOR + 1, MAX_CONDUCTOR + 2])
    # a huge generator next to a unit one is redundant and costs nothing
    assert NumericalSemigroup.from_generators([1, 10**12]).gaps == ()
