"""Curve models: exact section spaces, products, and the surjectivity oracle."""

from fractions import Fraction

import pytest

from maxnoether.curves import (
    RationalCurveModel,
    check_hyperelliptic_resolution,
    check_resolution_quotient,
    global_sections,
    is_certified_hyperelliptic,
    local_support_set,
    max_noether_holds,
    numerator_degree_bound,
    products_span,
    resolve,
    section_valuations,
    _subspace_orders,
)
from maxnoether.errors import CurveSpecError, NotApplicable
from maxnoether.semigroup import NumericalSemigroup
from maxnoether.valueset import ValueSet, canonical_ideal, dualizing_values, n_fold


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


def curve(*gen_lists):
    return RationalCurveModel.from_semigroups([sg(*g) for g in gen_lists])


def test_model_validation():
    with pytest.raises(ValueError):
        RationalCurveModel.from_semigroups([sg(1)])
    with pytest.raises(ValueError):
        RationalCurveModel(
            (
                *curve((3, 4, 5)).branches,
                *curve((2, 5)).branches,
            )
        )  # both at center 0


def test_local_support_set_examples():
    assert local_support_set(sg(3, 4, 5), 1) == ValueSet((-3, -2), 0)
    assert local_support_set(sg(2, 7), 2) == ValueSet((-12, -10, -8), -6)
    for gens in ((3, 4, 5), (2, 7), (5, 6, 7, 9)):
        s = sg(*gens)
        assert local_support_set(s, 1).shift(s.conductor) == canonical_ideal(s)


def test_local_support_window_oracle():
    # brute-force n-fold sums of the weight-1 exponents on a window
    s = sg(2, 7)
    e1 = set(dualizing_values(s).elements_below(30))
    pairwise = {a + b for a in e1 for b in e1}
    got = local_support_set(s, 2)
    for e in range(-24, 20):
        assert (e in got) == (e in pairwise)


def test_sections_single_345():
    c = curve((3, 4, 5))
    sec = global_sections(c, 1)
    assert sec.dim == 2 == c.genus
    # basis numerators 1 and t over t^3, i.e. values -3 and -2
    assert sec.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    assert global_sections(c, 2).dim == 3


def test_sections_smooth_model():
    c = RationalCurveModel(())
    for n in (1, 2, 3):
        assert global_sections(c, n).dim == 0
    assert section_valuations(c, 5) == ()
    assert max_noether_holds(c, 2).holds


def test_sections_dim_is_genus_multibranch():
    for gen_lists in (
        ((3, 4, 5), (2, 5)),
        ((3, 4, 5), (3, 5, 7)),
        ((2, 5), (2, 7)),
        ((3, 4, 5), (2, 5), (2, 5)),
    ):
        c = curve(*gen_lists)
        assert global_sections(c, 1).dim == c.genus


def test_section_valuations():
    c = curve((3, 4, 5))
    assert section_valuations(c, 0) == (-3, -2)
    vals = section_valuations(c, 1)
    assert 0 in vals and 1 in vals


def test_products_span_identity_at_weight_one():
    c = curve((3, 4, 5), (2, 5))
    assert products_span(c, 1) == global_sections(c, 1)


@pytest.mark.parametrize(
    "gens, n, dim",
    [((3, 4, 5), 2, 3), ((2, 7), 2, 5), ((3, 5, 7), 2, 6)],
)
def test_products_span_dims(gens, n, dim):
    assert products_span(curve(gens), n).dim == dim


def test_max_noether_345():
    chk = max_noether_holds(curve((3, 4, 5)), 2)
    assert chk.holds and chk.products_dim == chk.sections_dim == 3


def test_max_noether_hyperelliptic_failure_27():
    chk = max_noether_holds(curve((2, 7)), 2)
    assert not chk.holds
    assert (chk.products_dim, chk.sections_dim) == (5, 6)
    assert chk.missing_values == (7,)
    assert chk.describe() == "dimension 5 < 6, missing value 7"


def test_max_noether_357():
    chk = max_noether_holds(curve((3, 5, 7)), 2)
    assert chk.holds and chk.sections_dim == 6


@pytest.mark.parametrize("k, gap", [(3, 1), (4, 2), (5, 3)])
def test_hyperelliptic_family_gap(k, gap):
    chk = max_noether_holds(curve((2, 2 * k + 1)), 2)
    assert not chk.holds
    assert chk.dimension_gap == gap == k - 2


def test_single_branch_value_sets_match_sumsets():
    # linear algebra must reproduce the pure sumset predictions
    for gens in ((3, 4, 5), (2, 7), (3, 5, 7), (3, 7, 8)):
        s = sg(*gens)
        c = curve(gens)
        k = canonical_ideal(s)
        w = ValueSet.finite(k.elements_below(s.conductor))
        for n in (2, 3):
            top = n * (s.conductor - 2)
            sections = sorted(_subspace_orders(global_sections(c, n), Fraction(0)))
            prods = sorted(_subspace_orders(products_span(c, n), Fraction(0)))
            assert sections == n_fold(k, n).elements_below(top + 1)
            assert prods == n_fold(w, n).elements_below(top + 1)


def test_resolve_genus_additivity():
    c = curve((3, 4, 5), (3, 4, 5))
    assert resolve(c, 0).genus == 2
    assert resolve(resolve(c, 0), 0).genus == 0


def test_resolution_quotient_two_branches():
    c = curve((3, 4, 5), (3, 4, 5))
    for index in (0, 1):
        for n in (2, 3):
            assert check_resolution_quotient(c, index, n).ok


def test_resolution_quotient_single_branch_reduces_to_noether():
    c = curve((3, 4, 5))
    res = check_resolution_quotient(c, 0, 2)
    assert res.resolved_dim == 0
    assert res.ok == max_noether_holds(c, 2).holds


def test_hyperelliptic_resolution_positive():
    c = curve((2, 5), (3, 4, 5))
    assert is_certified_hyperelliptic(resolve(c, 1))
    for n in (2, 3):
        assert check_hyperelliptic_resolution(c, 1, n)


def test_hyperelliptic_resolution_preconditions():
    c = curve((2, 5), (3, 4, 5))
    with pytest.raises(NotApplicable):
        check_hyperelliptic_resolution(c, 0, 2)  # multiplicity 2 branch
    c2 = curve((3, 4, 5), (3, 4, 5))
    with pytest.raises(NotApplicable):
        check_hyperelliptic_resolution(c2, 0, 2)  # resolved curve not certified
    assert check_hyperelliptic_resolution(c2, 0, 2, assume_hyperelliptic=True) in (
        True,
        False,
    )


def test_numerator_degree_bound():
    assert numerator_degree_bound(curve((3, 4, 5)), 1) == 1
    assert numerator_degree_bound(curve((3, 4, 5), (2, 5)), 2) == 10
    assert numerator_degree_bound(RationalCurveModel(()), 2) == -4


def test_curve_json_roundtrip(tmp_path):
    c = curve((3, 4, 5), (2, 5))
    data = c.to_json()
    assert data["branches"][1]["center"] == "1"
    assert RationalCurveModel.from_json(data) == c
    path = tmp_path / "curve.json"
    path.write_text('{"branches": [{"center": "1/2", "generators": [3, 4, 5]}]}')
    loaded = RationalCurveModel.from_file(str(path))
    assert loaded.branches[0].center == Fraction(1, 2)
    assert max_noether_holds(loaded, 2).holds  # center independence


def test_curve_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"branches": [\n  {"center" "0"}]}')
    with pytest.raises(CurveSpecError) as err:
        RationalCurveModel.from_file(str(path))
    assert "line 2" in str(err.value)
    path.write_text('{"branches": [{"center": "0", "generators": [2, 4]}]}')
    with pytest.raises(CurveSpecError):
        RationalCurveModel.from_file(str(path))


def test_noncentral_model_matches_origin_model():
    # moving the singular center must not change any dimension
    shifted = RationalCurveModel.from_json(
        {"branches": [{"center": "7/3", "generators": [2, 7]}]}
    )
    chk = max_noether_holds(shifted, 2)
    assert not chk.holds and chk.dimension_gap == 1


def test_smooth_point_valuations_reflect_gonality():
    # genus >= 1 forces value 0 at a smooth point; a multiplicity >= 3 branch
    # certifies nonhyperellipticity and forces value 1 as well
    for gen_lists, nonhyper in (
        (((3, 4, 5),), True),
        (((3, 5, 7),), True),
        (((2, 5), (3, 4, 5)), True),
        (((2, 7),), False),
    ):
        c = curve(*gen_lists)
        vals = section_valuations(c, Fraction(7, 2))
        assert 0 in vals
        if nonhyper:
            assert 1 in vals


def test_epsilon_case_of_one_singularity_models():
    from maxnoether.local import epsilon_case

    for gens in ((3, 4, 5), (2, 7), (5, 6, 7, 9)):
        c = curve(gens)
        attained = section_valuations(c, 0)
        assert max(attained) <= -2
        assert epsilon_case(attained).tag == "i"


def test_products_always_land_in_sections():
    # products of regular differentials must satisfy every local support
    # constraint; this pins the support model for the power stalks
    for gen_lists in (
        ((3, 4, 5),),
        ((2, 7),),
        ((5, 6, 7, 9),),
        ((3, 4, 5), (2, 5)),
        ((3, 5, 7), (2, 7)),
        ((3, 4, 5), (2, 5), (2, 5)),
    ):
        c = curve(*gen_lists)
        for n in (2, 3):
            assert global_sections(c, n).contains(products_span(c, n))
