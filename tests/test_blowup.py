"""Blowup stabilization data and the almost Gorenstein equivalences."""

import pytest

from maxnoether.blowup import analyze
from maxnoether.errors import NotApplicable
from maxnoether.curves import RationalCurveModel
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.suites import _power_defect, _value_route_dim
from maxnoether.valueset import (
    ValueSet,
    canonical_ideal,
    n_fold,
    quotient_dim,
    ring_closure,
    sumset,
)


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


def test_analyze_345():
    ana = analyze(sg(3, 4, 5))
    assert ana.blowup_values == ValueSet.naturals()
    assert ana.stabilization_index == 2
    assert ana.blowup_genus == 0
    assert ana.eta == 1


def test_analyze_gorenstein_is_trivial():
    s = sg(2, 3)
    ana = analyze(s)
    assert ana.blowup_values == s.values
    assert ana.stabilization_index == 1
    assert ana.eta == 0


def test_analyze_5679():
    ana = analyze(sg(5, 6, 7, 9))
    assert ana.blowup_values == ValueSet((0,), 4)
    assert ana.stabilization_index == 2
    assert ana.blowup_genus == 3


def test_nearly_gorenstein_checks_examples():
    rec = analyze(sg(3, 5, 7)).almost_gorenstein_checks()
    assert rec.almost_gorenstein and rec.gap_one and rec.square_is_blowup
    assert rec.consistent

    rec = analyze(sg(4, 5, 11)).almost_gorenstein_checks()
    assert not rec.almost_gorenstein and not rec.gap_one
    assert quotient_dim(
        analyze(sg(4, 5, 11)).blowup_values, canonical_ideal(sg(4, 5, 11))
    ) == 3
    assert rec.consistent

    rec = analyze(sg(3, 4, 5)).almost_gorenstein_checks()
    assert rec.almost_gorenstein and rec.gap_one and rec.square_is_blowup
    assert rec.powers_collapse


def test_nearly_gorenstein_rejects_symmetric():
    with pytest.raises(NotApplicable):
        analyze(sg(2, 3)).almost_gorenstein_checks()


@pytest.mark.parametrize(
    "gens, drop", [([3, 4, 5], 2), ([5, 6, 7, 9], 2), ([3, 7, 8], 4)]
)
def test_genus_drop_frozen(gens, drop):
    assert analyze(sg(*gens)).genus_drop() == drop


def test_genus_drop_rejects_symmetric():
    with pytest.raises(NotApplicable):
        analyze(sg(2, 5)).genus_drop()


def nonsymmetric(max_genus):
    return (s for s in enumerate_semigroups(max_genus) if not s.is_symmetric())


def test_census_chain_strictly_increases_until_stable():
    for s in nonsymmetric(9):
        ana = analyze(s)
        prev = ana.canonical
        for n in range(2, ana.stabilization_index + 2):
            cur = n_fold(ana.canonical, n)
            assert prev.is_subset(cur)
            if n <= ana.stabilization_index:
                if n < ana.stabilization_index:
                    assert prev != cur
                else:
                    assert cur == ana.blowup_values
            else:
                assert cur == prev == ana.blowup_values
            prev = cur


def test_census_equivalences():
    for s in nonsymmetric(9):
        ana = analyze(s)
        rec = ana.almost_gorenstein_checks()
        assert rec.consistent
        if rec.almost_gorenstein:
            assert ana.stabilization_index <= 2
        assert ana.stabilization_index <= quotient_dim(ana.blowup_values, ana.canonical) + 1
        assert ana.genus_drop() >= 2
        assert ana.eta < s.genus


def test_power_defect_vanishes_on_gorenstein_branches():
    for s in enumerate_semigroups(8):
        if s.is_symmetric():
            assert [_power_defect(s, n) for n in range(1, 5)] == [0, 0, 0, 0], s.gaps


def test_power_defect_345():
    # K = {0, 1, 3, 4, ...} and K^n = N for n >= 2, so e(n) = n*1 - 2
    assert [_power_defect(sg(3, 4, 5), n) for n in range(2, 6)] == [0, 1, 2, 3]


def test_power_defect_count_matches_value_route_on_one_branch():
    for s in enumerate_semigroups(6):
        if s.genus < 2:
            continue
        curve = RationalCurveModel.from_semigroups([s])
        for n in range(2, 5):
            count = (2 * n - 1) * (s.genus - 1) - _power_defect(s, n)
            assert count == _value_route_dim(curve, n), (s.gaps, n)


def fresh_analysis(s):
    """The blowup data and checks as computed per call, before power chains were kept."""
    k = canonical_ideal(s)
    ohat = ring_closure(k)
    index, power = 1, k
    while power != ohat:
        power = sumset(power, k)
        index += 1
    # 0 is in K, so the module K generates over the blowup ring is the blowup
    omega_hat = sumset(k, ohat)
    assert omega_hat == ohat
    fields = (
        k,
        ohat,
        index,
        quotient_dim(k, s.values),
        quotient_dim(ValueSet.naturals(), ohat),
    )
    checks = (
        s.is_almost_gorenstein(),
        quotient_dim(omega_hat, k) == 1,
        n_fold(k, 2) == ohat,
        all(
            sumset(n_fold(k, m), ohat) == n_fold(k, m)
            for m in range(2, index + 1)
        ),
    )
    return fields, checks, s.genus - fields[-1]


def test_one_analysis_gives_the_per_call_results():
    for s in enumerate_semigroups(8):
        ana = analyze(s)
        fields, checks, drop = fresh_analysis(s)
        assert (
            ana.canonical,
            ana.blowup_values,
            ana.stabilization_index,
            ana.eta,
            ana.blowup_genus,
        ) == fields
        assert [ana.power(m) for m in range(1, 7)] == [n_fold(ana.canonical, m) for m in range(1, 7)]
        if s.is_symmetric():
            continue
        assert ana.genus_drop() == drop
        rec = ana.almost_gorenstein_checks()
        assert (
            rec.almost_gorenstein,
            rec.gap_one,
            rec.square_is_blowup,
            rec.powers_collapse,
        ) == checks


def test_analysis_methods_reject_symmetric():
    ana = analyze(sg(2, 5))
    with pytest.raises(NotApplicable):
        ana.genus_drop()
    with pytest.raises(NotApplicable):
        ana.almost_gorenstein_checks()
