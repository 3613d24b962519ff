"""Curve models: exact section spaces, products, and the surjectivity oracle."""

import json
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from maxnoether import curves as curves_mod
from maxnoether.curves import (
    MAX_AMBIENT,
    MAX_CENTER_DIGITS,
    MAX_WEIGHT,
    Branch,
    RationalCurveModel,
    check_hyperelliptic_resolution,
    check_resolution_quotient,
    degree_margin,
    excluded_orders,
    global_sections,
    is_certified_hyperelliptic,
    max_noether_holds,
    numerator_ambient,
    numerator_degree_bound,
    power_defect,
    products_span,
    resolve,
    section_valuations,
    _affine_frame,
    _branch_frames,
    _constraint_rows,
    _embedded_resolved_sections,
    _in_sections,
    _jets,
    _poly_mul,
    _read,
    _resolved_in_sections,
    _row_jet,
    _subspace_orders,
    _terms,
)
from maxnoether.errors import (
    AmbientTooLarge,
    BranchIndexError,
    CurveSpecError,
    MaxNoetherError,
    NotApplicable,
    WeightTooLarge,
)
from maxnoether.linalg import Subspace
from maxnoether.local import LocalContext, build_certificates, verify_local_surjectivity
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.suites import (
    _MULTI_MENU,
    _RESOLUTION_PAIRS,
    SuiteParams,
    _curve_corpus,
    _value_route_dim,
    run_suite,
)
from maxnoether.valueset import ValueSet, canonical_ideal, dualizing_values, n_fold
from test_linalg import _fraction_gauss_jordan, basis, dense, dense_nullspace, within


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


def curve(*gen_lists):
    return RationalCurveModel.from_semigroups([sg(*g) for g in gen_lists])


def clear_curve_caches():
    for fn in vars(curves_mod).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def test_model_validation():
    with pytest.raises(CurveSpecError):
        RationalCurveModel.from_semigroups([sg(1)])
    with pytest.raises(CurveSpecError):
        RationalCurveModel(
            (
                *curve((3, 4, 5)).branches,
                *curve((2, 5)).branches,
            )
        )  # both at center 0


def test_excluded_orders_examples():
    assert excluded_orders(sg(3, 4, 5), 1) == [2]
    assert excluded_orders(sg(2, 7), 2) == [1, 3, 5]
    for gens in ((3, 4, 5), (2, 7), (5, 6, 7, 9)):
        s = sg(*gens)
        # at weight 1 these are the gaps of K = {d : alpha - 1 - d not in S}
        a = s.conductor
        assert excluded_orders(s, 1) == [d for d in range(a) if a - 1 - d in s.values]


def test_excluded_orders_hands_out_a_list_of_its_own():
    # the orders are read once per (semigroup, weight); changing one answer changes no other
    s = sg(2, 7)
    first = excluded_orders(s, 2)
    first.append(99)
    first[0] = -1
    assert excluded_orders(s, 2) == [1, 3, 5]
    assert excluded_orders(s, 2) is not excluded_orders(s, 2)


def test_excluded_orders_window_oracle():
    # brute-force pairwise sums of the weight-1 orders on a window
    s = sg(2, 7)
    a = s.conductor
    k1 = {d for d in range(40) if a - 1 - d not in s.values}
    pairwise = {x + y for x in k1 for y in k1}
    excluded = excluded_orders(s, 2)
    for k in range(40):
        assert (k in excluded) == (k not in pairwise)


def test_excluded_orders_match_the_dualizing_exponents():
    # the former definition, in Laurent exponents: those in [-n alpha,
    # threshold) outside the n-fold sumset of the dualizing values
    for s in enumerate_semigroups(8):
        for n in range(1, 5):
            support = n_fold(dualizing_values(s), n)
            pole = n * s.conductor
            reference = [e for e in range(-pole, support.threshold) if e not in support]
            assert excluded_orders(s, n) == [e + pole for e in reference], (s.gaps, n)


def test_excluded_orders_do_not_depend_on_call_order():
    # each semigroup's chain of powers is cached: asked from the top weight
    # down and then up again, every answer is that of a fresh n-fold sumset
    curves_mod._canonical_powers.cache_clear()
    curves_mod._excluded.cache_clear()
    for s in enumerate_semigroups(6):
        for n in (*range(6, 0, -1), *range(1, 7)):
            power = n_fold(canonical_ideal(s), n)
            gaps = [k for k in range(power.threshold) if k not in power]
            assert excluded_orders(s, n) == gaps, (s.gaps, n)


def test_sections_single_345():
    c = curve((3, 4, 5))
    sec = global_sections(c, 1)
    assert sec.dim == 2 == c.genus
    # basis numerators 1 and t over t^3, i.e. values -3 and -2
    assert basis(sec) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
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
    assert section_valuations(c, Fraction(0)) == (-3, -2)


@pytest.mark.parametrize("point, name", [(0.1, "float"), (True, "bool"), ("0", "str")])
def test_section_valuations_refuse_a_point_that_is_not_rational(point, name):
    # 0.1 would be read as its binary fraction, True as the branch center 1
    with pytest.raises(TypeError, match=f"^a point must be an int or a Fraction, not {name}$"):
        section_valuations(curve((3, 4, 5)), point)


@pytest.mark.parametrize(
    "n, name", [(True, "bool"), (2.0, "float"), (Fraction(2), "Fraction"), ("2", "str")]
)
def test_every_check_refuses_a_weight_that_is_not_an_int(n, name):
    # True would run weight 1, and 2.0 or Fraction(2) failed deep inside the
    # oracle; each is refused before any cache is read, the excluded orders'
    # too, where True found the weight-1 entry
    c = curve((3, 4, 5), (3, 5, 7))
    s = sg(3, 5, 7)
    ctx = LocalContext(sg(4, 5, 11))
    caches = [curves_mod._affine_frame, curves_mod.global_sections, curves_mod._excluded]
    before = [cache.cache_info() for cache in caches]
    message = f"^a weight must be an int, not {name}$"
    for check, args in (
        (max_noether_holds, (c, n)),
        (check_resolution_quotient, (c, 0, n)),
        (build_certificates, (ctx, n)),
        (verify_local_surjectivity, (ctx, n, 1)),
        (section_valuations, (c, 0, n)),
        (excluded_orders, (s, n)),
        (power_defect, (s, n)),
        (degree_margin, (c, n)),
    ):
        with pytest.raises(TypeError, match=message):
            check(*args)
    assert [cache.cache_info() for cache in caches] == before


@pytest.mark.parametrize(
    "entry, branches, n",
    [
        (global_sections, ((3, 4, 5), (3, 5, 7)), 1),
        (products_span, ((3, 4, 5), (3, 5, 7)), 2),
        (max_noether_holds, ((3, 5, 7), (3, 5, 7)), 5),
    ],
    ids=["sections", "products", "pencil"],
)
def test_a_weight_that_is_not_an_int_is_refused_whether_or_not_the_int_is_cached(
    entry, branches, n
):
    # each caches by (curve, weight), and True == 1 == 1.0 == Fraction(1)
    c = curve(*branches)
    clear_curve_caches()
    answers = []
    for _ in ("cold", "warm"):
        for bad in (True, float(n), Fraction(n)):
            with pytest.raises(TypeError, match="^a weight must be an int, not "):
                entry(c, bad)
        answers.append(entry(c, n))
    assert answers[0] is not None and answers[1] == answers[0]
    clear_curve_caches()


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


def test_a_failing_lone_branch_check_names_a_missing_value():
    # P < S, both in canonical echelon form, leaves S a pivot that P lacks:
    # so a failing check never writes [] where a passing one writes null
    failed = 0
    for s in enumerate_semigroups(4):
        if not s.gaps:
            continue
        for n in (2, 3):
            chk = max_noether_holds(RationalCurveModel.from_semigroups([s]), n)
            if chk.holds:
                assert chk.to_json()["missing_values"] is None
            else:
                failed += 1
                assert chk.missing_values and chk.to_json()["missing_values"] == list(
                    chk.missing_values
                )
    assert failed


def test_max_noether_357():
    chk = max_noether_holds(curve((3, 5, 7)), 2)
    assert chk.holds and chk.sections_dim == 6


@pytest.mark.parametrize("k, gap", [(3, 1), (4, 2), (5, 3)])
def test_hyperelliptic_family_gap(k, gap):
    chk = max_noether_holds(curve((2, 2 * k + 1)), 2)
    assert not chk.holds
    assert chk.dimension_gap == gap == k - 2


@pytest.mark.parametrize("k", [3, 4, 5])
def test_hyperelliptic_products_are_polynomials_in_the_double_cover(k):
    # <2,2k+1> is hyperelliptic of genus g = k: the weight-1 sections are
    # f(x) w with deg f <= g - 1 in the degree-2 function x, so their n-fold
    # products are the n(g-1) + 1 polynomials of degree <= n(g-1), inside the
    # (2n-1)(g-1) sections of a curve whose one branch is Gorenstein
    c = curve((2, 2 * k + 1))
    g = c.genus
    for n in (2, 3, 4):
        chk = max_noether_holds(c, n)
        assert (chk.products_dim, chk.sections_dim) == (n * (g - 1) + 1, (2 * n - 1) * (g - 1))


def test_single_branch_value_sets_match_sumsets():
    # linear algebra must reproduce the pure sumset predictions, below the
    # case-(i) bound, on every one-singularity model that noether-single
    # checks up to genus 6, and on <2,7>, where Noether fails
    semigroups = [sg(*gens) for gens in ((3, 4, 5), (2, 7), (3, 5, 7), (3, 7, 8))]
    semigroups += [
        s
        for s in enumerate_semigroups(6, min_multiplicity=3)
        if s.genus >= 2 and s not in semigroups
    ]
    assert len(semigroups) == 1 + 43
    for s in semigroups:
        c = RationalCurveModel.from_semigroups([s])
        k = canonical_ideal(s)
        w = ValueSet.finite(k.elements_below(s.conductor))
        for n in (2, 3, 4):
            top = n * (s.conductor - 2)
            sections = sorted(_subspace_orders(global_sections, c, n, Fraction(0)))
            prods = sorted(_subspace_orders(products_span, c, n, Fraction(0)))
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


def fraction_in_span(rows, row, ambient):
    """Does a term row reduce to zero against the Fraction echelon form of term rows?"""
    v = [Fraction(x) for x in dense(row, ambient)]
    for ref in _fraction_gauss_jordan([dense(r, ambient) for r in rows], ambient):
        col = next(j for j, x in enumerate(ref) if x)
        q = v[col]
        if q:
            v = [a - q * b for a, b in zip(v, ref)]
    return not any(v)


@pytest.mark.parametrize("gens", [(2, 5), (2, 7)])
def test_hyperelliptic_resolution_decides_a_proper_product_span(monkeypatch, gens):
    # On every applicable curve tried, P = S and the shortcut decides.  Here P
    # is replaced by proper subspaces of S, so the span branch decides: S less
    # one basis row, for each row (the embedded rows E do not all lie in any),
    # and the span of E with one basis row (E lies in it).
    c = curve(gens, (3, 4, 5))
    full = products_span(c, 2)
    embedded = _embedded_resolved_sections(c, 1, 2)
    proper = [Subspace(full.ambient, full.rows[:k] + full.rows[k + 1 :]) for k in range(full.dim)]
    proper.append(Subspace.span(embedded + full.rows[:1], full.ambient))
    outcomes = set()
    for short in proper:
        assert short.dim < full.dim
        monkeypatch.setattr(curves_mod, "products_span", lambda curve, n: short)
        expected = all(fraction_in_span(short.rows, row, full.ambient) for row in embedded)
        assert check_hyperelliptic_resolution(c, 1, 2) == expected
        outcomes.add(expected)
    assert outcomes == {False, True}


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


def test_equal_curves_hash_equal_and_share_cache_entries():
    # the hash is taken once, at construction; equality still reads the branches
    built = RationalCurveModel((Branch(Fraction(1, 2), sg(3, 4, 5)), Branch(Fraction(-2), sg(2, 5))))
    loaded = RationalCurveModel.from_json(
        {
            "branches": [
                {"center": "2/4", "generators": [5, 4, 3]},
                {"center": -2, "generators": [2, 5]},
            ]
        }
    )
    assert loaded == built and hash(loaded) == hash(built)
    assert loaded != RationalCurveModel(built.branches[:1])
    global_sections.cache_clear()
    first = global_sections(built, 2)
    assert global_sections.cache_info().hits == 0
    assert global_sections(loaded, 2) is first
    assert global_sections.cache_info().hits == 1


def test_curve_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"branches": [\n  {"center" "0"}]}')
    with pytest.raises(CurveSpecError) as err:
        RationalCurveModel.from_file(str(path))
    assert "line 2" in str(err.value)
    for spec, message in (
        ('{"branches": [{"center": "0", "generators": [2, 4]}]}', "branch 0"),
        ('{"branches": 5}', '"branches" list'),
        ('{"branches": "ab"}', '"branches" list'),
        ('{"branches": []}', "no branches"),
        # a center is a string or an integer: any other JSON number is a rounded float
        (
            '{"branches": [{"center": 0.33333333333333333333, "generators": [3, 4, 5]}]}',
            "branch 0: center",
        ),
        (
            '{"branches": [{"center": "0", "generators": [3, 4, 5]},'
            ' {"center": 1e-400, "generators": [3, 5, 7]}]}',
            "branch 1: center",
        ),
        ('{"branches": [{"center": true, "generators": [3, 4, 5]}]}', "branch 0: center"),
        # a key the reader does not read, a key written twice, and a branch
        # that is not an object are refused, not passed over
        (
            '{"branches": [{"center": "0", "generators": [3, 4, 5]}], "nodes": [[1, 2]]}',
            "unknown key 'nodes'",
        ),
        (
            '{"branches": [{"center": "0", "generators": [3, 4, 5], "semigroup": [3, 5]}]}',
            "branch 0: unknown key 'semigroup'",
        ),
        (
            '{"branches": [{"center": "0", "center": "1/2", "generators": [3, 4, 5]}]}',
            "key 'center' is repeated",
        ),
        ('{"branches": [["0", [3, 4, 5]]]}', "branch 0: a branch must be an object, not list"),
        # a center past the digit cap, as a string, a fraction or a JSON integer
        *(
            ('{"branches": [{"center": %s, "generators": [3, 5]}]}' % c, "MAX_CENTER_DIGITS")
            for c in ('"1e-40000"', '"1/%d"' % 10**MAX_CENTER_DIGITS, 10**MAX_CENTER_DIGITS)
        ),
    ):
        path.write_text(spec)
        with pytest.raises(CurveSpecError, match=message):
            RationalCurveModel.from_file(str(path))
    # what to_json writes reads back as the same curve
    written = RationalCurveModel.from_semigroups([sg(3, 4, 5), sg(3, 5, 7)])
    path.write_text(json.dumps(written.to_json()))
    assert RationalCurveModel.from_file(str(path)) == written
    # an exact string and a JSON integer are both accepted
    path.write_text(
        '{"branches": [{"center": "1e-400", "generators": [3, 4, 5]},'
        ' {"center": 2, "generators": [2, 5]}]}'
    )
    centers = [b.center for b in RationalCurveModel.from_file(str(path)).branches]
    assert centers == [Fraction(1, 10**400), 2]
    # the largest numerator and denominator under the cap
    edge = 10**MAX_CENTER_DIGITS - 1
    path.write_text('{"branches": [{"center": "-%d/%d", "generators": [3, 5]}]}' % (edge, edge - 2))
    assert RationalCurveModel.from_file(str(path)).branches[0].center == Fraction(-edge, edge - 2)


def test_noncentral_model_matches_origin_model():
    # moving the singular center must not change any dimension
    shifted = RationalCurveModel.from_json(
        {"branches": [{"center": "7/3", "generators": [2, 7]}]}
    )
    chk = max_noether_holds(shifted, 2)
    assert not chk.holds and chk.dimension_gap == 1


def test_moving_the_center_keeps_valuations_and_dimensions():
    # the dimensions pin the constraint rows built at 7/3 and -1/2 against
    # those built at 0; the orders at the moved center are read on the curve
    # translated back to 0, so they pin the translation
    agreements = 0
    for s in enumerate_semigroups(5, min_multiplicity=3):
        origin = RationalCurveModel((Branch(Fraction(0), s),))
        for center in (Fraction(7, 3), Fraction(-1, 2)):
            moved = RationalCurveModel((Branch(center, s),))
            for n in (1, 2, 3):
                assert section_valuations(moved, center, n) == section_valuations(origin, 0, n)
                assert _subspace_orders(products_span, moved, n, center) == _subspace_orders(
                    products_span, origin, n, Fraction(0)
                )
                assert global_sections(moved, n).dim == global_sections(origin, n).dim
                assert products_span(moved, n).dim == products_span(origin, n).dim
                agreements += 1
    assert agreements == 126


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
    from maxnoether.local import LocalContext
    from maxnoether.valueset import ValueSet

    for gens in ((3, 4, 5), (2, 7), (5, 6, 7, 9)):
        c = curve(gens)
        attained = section_valuations(c, 0)
        assert max(attained) <= -2
        s = c.branches[0].semigroup
        ctx = LocalContext(s, ValueSet.finite(v + s.conductor for v in attained))
        assert ctx.case == "i"


def dense_convolution(a, b):
    """Every coefficient of the product, over all index pairs, zeros included."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def raw_products(c, n):
    """Every n-fold product of the weight-1 basis, as a padded numerator row."""
    ambient = numerator_ambient(c, n)
    rows = []
    for factors in combinations_with_replacement(basis(global_sections(c, 1)), n):
        prod = [1]
        for f in factors:
            prod = dense_convolution(prod, f)
        rows.append(prod + [0] * (ambient - len(prod)))
    return rows


def test_products_always_land_in_sections():
    # products of regular differentials must satisfy every local support
    # constraint; this pins the support model for the power stalks.  Each raw
    # product is eliminated against the section basis, independently of the
    # constraint-row test that certifies products_span.
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
            sections = global_sections(c, n)
            rows = raw_products(c, n)
            assert rows
            assert all(within(sections, _terms(row)) for row in rows)


# -- integer rows at rational centers ---------------------------------------

SMALL_MENU = ((2, 3), (2, 5), (3, 4), (3, 4, 5), (3, 5, 7))


def random_curves(seed, count, branches=(2, 3)):
    """Seeded curves whose branches sit at distinct random centers p/q, |p|, q <= 9."""
    rng = random.Random(seed)
    curves = []
    for _ in range(count):
        k = rng.choice(branches)
        centers = set()
        while len(centers) < k:
            centers.add(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        curves.append(
            RationalCurveModel(
                tuple(Branch(c, sg(*rng.choice(SMALL_MENU))) for c in sorted(centers))
            )
        )
    return curves


def laurent_at(vec, curve, n, index, order):
    """Laurent coefficients of a section at branch ``index``, offset by its pole order.

    Entry k is the coefficient of u^(k - n alpha_i), u = t - c_i, in
    N(t) / prod_j (t - c_j)^(n alpha_j), for k = 0..order.  Textbook Fraction
    steps: Horner division for the Taylor shift, a geometric series for each
    other branch's factor.
    """
    center = curve.branches[index].center
    taylor, rest = [], [Fraction(x) for x in vec]
    while rest:
        # divide by (t - center); the remainder is the next Taylor coefficient
        quotient, acc = [], Fraction(0)
        for x in reversed(rest):
            acc = acc * center + x
            quotient.append(acc)
        taylor.append(quotient.pop())
        rest = quotient[::-1]
    out = (taylor + [Fraction(0)] * (order + 1))[: order + 1]
    for j, other in enumerate(curve.branches):
        if j == index:
            continue
        delta = center - other.center
        # 1 / (u + delta) = sum_k (-1)^k u^k / delta^(k+1)
        geometric = [Fraction((-1) ** k) / delta ** (k + 1) for k in range(order + 1)]
        for _ in range(n * other.semigroup.conductor):
            out = [
                sum(out[i] * geometric[k - i] for i in range(k + 1)) for k in range(order + 1)
            ]
    return out


def test_sections_vanish_on_every_excluded_exponent():
    for c in random_curves(8, 8):
        for n in (2, 3):
            space = global_sections(c, n)
            assert space.dim == _value_route_dim(c, n)
            for index, br in enumerate(c.branches):
                excluded = excluded_orders(br.semigroup, n)
                order = max(excluded, default=0)
                for vec in basis(space):
                    series = laurent_at(vec, c, n, index, order)
                    assert all(series[k] == 0 for k in excluded)


def test_a_non_unit_condition_reads_the_exact_expansion():
    # a random integer functional on the jet window w^0..w^order, read through
    # _row_jet and _read, against the Fraction Laurent expansion: with
    # u = t - c = scale w, jet_k is q^(A-1) prod_o delta_o^(n alpha_o) scale^k
    # times the coefficient of u^k, as C reads it
    rng = random.Random(45)
    readings = 0
    for center in (Fraction(0), Fraction(7, 3)):
        c = RationalCurveModel(
            (
                Branch(center, sg(3, 5, 7)),
                Branch(Fraction(-5, 2), sg(4, 5, 6, 7)),
                Branch(Fraction(1, 9), sg(3, 4)),
            )
        )
        for n in (1, 2, 3):
            ambient = numerator_ambient(c, n)
            rows = list(global_sections(c, n).rows)
            rows += [_terms([rng.randint(-9, 9) for _ in range(ambient)]) for _ in range(4)]
            for br, excluded, scale, unit in _branch_frames(c, n):
                index = c.branches.index(br)
                order = excluded[-1]
                condition = _terms([rng.randint(-9, 9) for _ in range(order + 1)])
                jets = list(_jets(br.center, scale, unit, ambient))
                factor = br.center.denominator ** (ambient - 1) * prod(
                    (br.center - o.center) ** (n * o.semigroup.conductor)
                    for o in c.branches
                    if o is not br
                )
                for row in rows:
                    series = laurent_at(dense(row, ambient), c, n, index, order)
                    expected = sum(x * factor * scale**j * series[j] for j, x in condition)
                    assert _read(condition, _row_jet(row, jets)) == expected, (str(c), n, row)
                    readings += 1
    assert readings == 346


def moved(curve, a, b, rng):
    """The curve under t -> a t + b with its branches in a shuffled order."""
    branches = [Branch(a * br.center + b, br.semigroup) for br in curve.branches]
    rng.shuffle(branches)
    return RationalCurveModel(tuple(branches))


def test_affine_reparametrisation_and_branch_order_change_nothing():
    rng = random.Random(88)
    for c in random_curves(88, 6):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        m = moved(c, a, b, rng)
        for n in (1, 2, 3):
            check = max_noether_holds(m, n)
            assert check.holds == max_noether_holds(c, n).holds
            # m and c share one frame: pin its dims to both callers' frames
            assert check.sections_dim == global_sections(m, n).dim == global_sections(c, n).dim
            assert check.products_dim == products_span(m, n).dim == products_span(c, n).dim
            for br in c.branches:
                assert section_valuations(m, a * br.center + b, n) == section_valuations(
                    c, br.center, n
                )


def test_an_affine_map_keeps_the_multi_branch_corpora():
    # one seeded map t -> lam t + mu on the noether-multi and resolution
    # curves, branch order kept so a branch index names the same branch
    rng = random.Random(4)
    lam = Fraction(rng.choice((-1, 1)) * rng.randint(2, 7), rng.randint(1, 5))
    mu = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    assert lam != 1 and mu.denominator > 1
    resolution = [curve(*pair) for pair in _RESOLUTION_PAIRS]
    for c in _curve_corpus(_MULTI_MENU, 6) + resolution:
        m = RationalCurveModel(tuple(Branch(lam * br.center + mu, br.semigroup) for br in c.branches))
        for n in (1, 2, 3):
            check = max_noether_holds(m, n)
            assert check == max_noether_holds(c, n)
            # m and c share one frame, so pin its dims to the caller's frame
            assert check.sections_dim == global_sections(m, n).dim
            assert check.products_dim == products_span(m, n).dim
            for br in c.branches:
                assert section_valuations(m, lam * br.center + mu, n) == section_valuations(
                    c, br.center, n
                )
            if len(c.branches) > 1:
                for index in range(len(c.branches)):
                    res = check_resolution_quotient(m, index, n)
                    assert res == check_resolution_quotient(c, index, n)
                    embedded = _embedded_resolved_sections(m, index, n)
                    rows = products_span(m, n).rows + embedded
                    assert res.combined_dim == Subspace.span(rows, numerator_ambient(m, n)).dim


def test_the_affine_frame_is_one_map_sending_the_most_constrained_branches_to_0_and_1():
    def weight(br):
        return len(excluded_orders(br.semigroup, 1))

    for c in random_curves(40, 30, branches=(1, 2, 3)):
        f = _affine_frame(c)
        assert [br.semigroup for br in f.branches] == [br.semigroup for br in c.branches]
        # the first branch of the most weight-1 excluded orders goes to 0, the next to 1
        ranked = sorted(range(len(c.branches)), key=lambda i: -weight(c.branches[i]))
        a = ranked[0]
        b = ranked[1] if len(ranked) > 1 else None
        assert f.branches[a].center == 0
        if b is not None:
            assert f.branches[b].center == 1
        # every center moves by the one map t -> lam t + mu those two fix
        lam = 1 / (c.branches[b].center - c.branches[a].center) if b is not None else 1
        mu = -lam * c.branches[a].center
        assert [br.center for br in f.branches] == [lam * br.center + mu for br in c.branches]
    # <3,5,7> excludes more orders at weight 1 than <3,4,5>, whatever their order
    c = RationalCurveModel((Branch(Fraction(-2, 5), sg(3, 4, 5)), Branch(Fraction(0), sg(3, 5, 7))))
    assert str(_affine_frame(c)) == "<3,4,5>@1 <3,5,7>@0"
    # ties go by index, and a third branch moves with the other two
    c = RationalCurveModel(tuple(Branch(Fraction(x), sg(3, 4, 5)) for x in (5, 2, -1)))
    assert str(_affine_frame(c)) == "<3,4,5>@0 <3,4,5>@1 <3,4,5>@2"
    assert str(_affine_frame(RationalCurveModel((Branch(Fraction(7, 3), sg(7, 8)),)))) == "<7,8>@0"
    # a curve already in its frame, or with no branches, is returned as it is;
    # the cache would hand back an equal curve seen before, so it starts empty
    _affine_frame.cache_clear()
    for c in (curve((7, 8)), curve((3, 5, 7), (3, 4, 5), (2, 3)), RationalCurveModel(())):
        assert _affine_frame(c) is c


def jet_orders(space, center):
    """Orders at ``center`` read off the Taylor jets of the basis, eliminated once more.

    With center p/q and A the ambient, the jet of N is the integer polynomial
    q^(A-1) N(p/q + w) = sum over d of N_d q^(A-1-d) (p + q w)^d in w, taken
    by Horner's rule; the constant q^(A-1) keeps the pivots.
    """
    p, q = center.numerator, center.denominator
    jets = []
    for v in basis(space):
        jet = []
        for d in reversed(range(space.ambient)):
            # jet <- jet * (p + q w) + N_d q^(A-1-d)
            jet = [p * x + q * y for x, y in zip(jet + [0], [0] + jet)]
            jet[0] += v[d] * q ** (space.ambient - 1 - d)
        jets.append(jet)
    return Subspace.span(map(_terms, jets), space.ambient).pivots


def test_orders_of_the_translated_curve_equal_the_jet_orders():
    # 11/10 is never a center here (denominators stay below 10): a smooth point
    for c in random_curves(13, 6, branches=(1, 2, 3)):
        for point in [br.center for br in c.branches] + [Fraction(11, 10)]:
            for n in (1, 2, 3):
                for space in (global_sections, products_span):
                    assert _subspace_orders(space, c, n, point) == jet_orders(space(c, n), point)


def test_constraint_rows_are_integer_at_rational_centers():
    for c in random_curves(7, 10, branches=(1, 2, 3)):
        for n in (1, 2, 3):
            columns, nrows = _constraint_rows(c, n)
            assert nrows and type(columns) is tuple and len(columns) == numerator_ambient(c, n)
            for indices, entries in filter(None, columns):
                assert type(indices) is tuple and type(entries) is tuple
                assert list(indices) == sorted(set(indices)) and set(indices) <= set(range(nrows))
                assert len(entries) == len(indices) > 0
                assert all(type(x) is int and x for x in entries)


def reference_columns(c, n):
    """The constraint columns of weight n, composed row by row from closed forms.

    At a branch p/q, with t = p/q + scale * w and A the ambient, the row of an
    excluded order k holds, at column d, the coefficient of w^k in q^(A-1) t^d
    times the unit series: sum over s of unit[s] comb(d, k - s) p^(d-k+s)
    q^(A-1-d+k-s) scale^(k-s).  The unit series multiplies, for each other
    branch, the series inverse of (1 + beta w)^m, beta = scale / delta.
    """
    ambient = numerator_ambient(c, n)
    rows = []
    for br in c.branches:
        excluded = excluded_orders(br.semigroup, n)
        order = max(excluded, default=0)
        others = [
            (br.center - o.center, n * o.semigroup.conductor) for o in c.branches if o is not br
        ]
        scale = lcm(*(abs(delta.numerator) for delta, _ in others))
        unit = [1] + [0] * order
        for delta, m in others:
            beta = scale / delta
            assert beta.denominator == 1
            power = [comb(m, j) * beta.numerator**j for j in range(order + 1)]
            inverse = [1]
            for k in range(1, order + 1):
                inverse.append(-sum(power[j] * inverse[k - j] for j in range(1, k + 1)))
            unit = [sum(unit[s] * inverse[k - s] for s in range(k + 1)) for k in range(order + 1)]
        terms = [(s, u) for s, u in enumerate(unit) if u]
        p, q = br.center.numerator, br.center.denominator
        for k in excluded:
            rows.append(
                [
                    sum(
                        u * comb(d, k - s) * p ** (d - k + s) * q ** (ambient - 1 - d + k - s)
                        * scale ** (k - s)
                        for s, u in terms
                        if 0 <= k - s <= d
                    )
                    for d in range(ambient)
                ]
            )
    columns = []
    for d in range(ambient):
        column = [(i, row[d]) for i, row in enumerate(rows) if row[d]]
        columns.append(tuple(map(tuple, zip(*column))) if column else None)
    return tuple(columns), len(rows)


def test_constraint_columns_match_the_composed_reference():
    # every semigroup of genus <= 6 alone at four centers, then seeded curves
    # of two and three branches, two of them with a branch at 0
    cases = [
        (RationalCurveModel((Branch(center, s),)), n)
        for s in enumerate_semigroups(6)
        if s.genus
        for center in (Fraction(0), Fraction(1), Fraction(7, 3), Fraction(-5, 2))
        for n in range(1, 5)
    ]
    at_zero = [
        RationalCurveModel((Branch(Fraction(0), sg(3, 4, 5)), Branch(Fraction(7, 3), sg(3, 5, 7)))),
        RationalCurveModel(
            (
                Branch(Fraction(-5, 2), sg(2, 5)),
                Branch(Fraction(0), sg(3, 4)),
                Branch(Fraction(1, 9), sg(2, 3)),
            )
        ),
    ]
    cases += [(c, n) for c in random_curves(33, 12) + at_zero for n in (1, 2, 3)]
    assert len(cases) == 49 * 4 * 4 + 14 * 3
    for c, n in cases:
        assert _constraint_rows(c, n) == reference_columns(c, n), (str(c), n)


# -- the certified product span ----------------------------------------------


def certificate_cases():
    """Random multi-branch curves at rational centers, then the failing <2,2k+1> family."""
    for c in random_curves(10, 8):
        yield c, (2, 3, 4)
    for k in (3, 4, 5):
        for center in (Fraction(0), Fraction(7, 3)):
            yield RationalCurveModel((Branch(center, sg(2, 2 * k + 1)),)), (2, 3, 4)


def test_certified_products_equal_the_exact_span():
    # products_span returns the section space itself when the modular rank
    # and the containment test certify it; the span of the raw rows decides
    certified = failures = 0
    for c, ns in certificate_cases():
        for n in ns:
            exact = Subspace.span(map(_terms, raw_products(c, n)), numerator_ambient(c, n))
            assert products_span(c, n) == exact
            certified += products_span(c, n) is global_sections(c, n)
            failures += exact != global_sections(c, n)
    # the hyperelliptic family takes the exact fallback
    assert certified >= 8 and failures >= 6


def test_the_exact_fallback_matches_the_fraction_reference():
    # <2,2k+1> is hyperelliptic, so its products miss the sections and are
    # eliminated exactly; Fraction steps on the dense raw products share no
    # code with that elimination
    fallbacks = 0
    for k in (3, 4, 5, 6):
        for center in (Fraction(0), Fraction(7, 3), Fraction(-5, 7)):
            c = RationalCurveModel((Branch(center, sg(2, 2 * k + 1)),))
            for n in (2, 3):
                got = products_span(c, n)
                fallbacks += got != global_sections(c, n)
                reference = _fraction_gauss_jordan(raw_products(c, n), numerator_ambient(c, n))
                assert len(got.rows) == len(reference)
                for row, values, ref in zip(got.rows, basis(got), reference):
                    _, p = row[0]
                    assert p > 0 and gcd(*values) == 1
                    assert [Fraction(x, p) for x in values] == ref
    assert fallbacks == 24


def test_resolution_quotient_matches_the_exact_sum():
    for c in random_curves(11, 6):
        for index in range(len(c.branches)):
            for n in (2, 3):
                res = check_resolution_quotient(c, index, n)
                ambient = numerator_ambient(c, n)
                exact = Subspace.span(map(_terms, raw_products(c, n)), ambient)
                # the embedding is injective: its images need no elimination
                embedded = _embedded_resolved_sections(c, index, n)
                assert Subspace.span(embedded, ambient).dim == len(embedded) == res.resolved_dim
                combined = Subspace.span(exact.rows + embedded, ambient)
                assert res.combined_dim == combined.dim
                assert res.ok == (combined == global_sections(c, n))


def embedded_by_convolution(c, index, n, row):
    """A resolved numerator times (q t - p)^m, m = n alpha, at branch ``index``, as terms."""
    br = c.branches[index]
    factor = [1]
    for _ in range(n * br.semigroup.conductor):
        factor = dense_convolution(factor, [-br.center.numerator, br.center.denominator])
    return _terms(dense_convolution(dense(row, numerator_ambient(resolve(c, index), n)), factor))


def test_the_jet_certificate_matches_the_exact_embedded_test():
    # the jets of N times the jet of f decide f N in S exactly as C (f N) = 0
    # does; resolved rows plus a random unit vector are refused now and then.
    # The checks run in _affine_frame, where f is a monomial at 0 and a dense
    # binomial at 1, so the framed noether-multi curves are tested too
    rng = random.Random(36)
    at_zero = RationalCurveModel(
        (Branch(Fraction(0), sg(3, 4, 5)), Branch(Fraction(7, 3), sg(3, 5, 7)))
    )
    framed = [
        _affine_frame(c) for c in noether_multi_at_rational_centers(36) if len(c.branches) > 1
    ]
    verdicts = {True: 0, False: 0}  # of the perturbed rows
    framed_verdicts = {True: 0, False: 0}
    for c in random_curves(36, 12) + [at_zero] + framed:
        for index in range(len(c.branches)):
            for n in (2, 3, 4):
                resolved = global_sections(resolve(c, index), n)
                exact = _embedded_resolved_sections(c, index, n)
                assert exact == tuple(
                    embedded_by_convolution(c, index, n, row) for row in resolved.rows
                )
                assert _in_sections(c, n, exact)
                for row in resolved.rows:
                    bumped = dense(row, resolved.ambient)
                    bumped[rng.randrange(resolved.ambient)] += 1
                    bumped = _terms(bumped)
                    # f N lies in S by the embedding; f (N + e_j) need not
                    assert _resolved_in_sections(c, index, n, [row])
                    verdict = _resolved_in_sections(c, index, n, [bumped])
                    expected = _in_sections(c, n, [embedded_by_convolution(c, index, n, bumped)])
                    assert verdict == expected, (str(c), index, n, bumped)
                    verdicts[verdict] += 1
                    framed_verdicts[verdict] += c in framed
    assert verdicts[True] >= 50 and verdicts[False] >= 1000
    assert framed_verdicts[True] >= 100 and framed_verdicts[False] >= 10, framed_verdicts


def test_equal_products_and_sections_decide_the_quotient_from_jets(monkeypatch):
    # where P = S the jets decide, so no embedded row is formed; the
    # resolution suite's curves and the noether-multi curves at rational centers
    def formed(*args):
        raise AssertionError(f"embedded rows formed for {args}")

    monkeypatch.setattr(curves_mod, "_embedded_resolved_sections", formed)
    cases = [(curve(*pair), (2, 3)) for pair in _RESOLUTION_PAIRS]
    multi = [c for c in noether_multi_at_rational_centers(36) if len(c.branches) > 1]
    cases += [(c, range(2, 7)) for c in multi]
    checks = 0
    for c, ns in cases:
        for index in range(len(c.branches)):
            for n in ns:
                assert products_span(c, n) == global_sections(c, n)
                res = check_resolution_quotient(c, index, n)
                assert res.ok and res.resolved_dim == global_sections(resolve(c, index), n).dim
                checks += 1
    hyper = curve((2, 5), (3, 4, 5))
    for n in (2, 3):
        assert products_span(hyper, n) == global_sections(hyper, n)
        assert check_hyperelliptic_resolution(hyper, 1, n)
        checks += 1
    assert checks == 2 * 2 * 2 + 11 * 5 + 2


# every entry point that takes a branch index, called at weight 2 where it has one
BRANCH_INDEX_ENTRY_POINTS = pytest.mark.parametrize(
    "check",
    [
        lambda c, index: resolve(c, index),
        lambda c, index: check_resolution_quotient(c, index, 2),
        lambda c, index: check_hyperelliptic_resolution(c, index, 2),
    ],
    ids=["resolve", "quotient", "hyperelliptic"],
)


def refused_index(check, index):
    """The error a two-branch curve raises for ``index``, whose message names both counts."""
    c = curve((3, 4, 5), (3, 5, 7))
    message = f"^branch index {index!r} names no branch: the curve has 2 branches, indexed from 0$"
    with pytest.raises(BranchIndexError, match=message) as info:
        check(c, index)
    return info.value


@BRANCH_INDEX_ENTRY_POINTS
def test_a_negative_branch_index_is_refused(check):
    # a list index of -1 would resolve the last branch
    refused_index(check, -1)


@BRANCH_INDEX_ENTRY_POINTS
def test_a_bool_branch_index_is_refused(check):
    # bool is an int subclass, and True would index branch 1
    refused_index(check, True)


@BRANCH_INDEX_ENTRY_POINTS
def test_a_branch_index_past_the_last_is_refused(check):
    # a library error, not a bare IndexError from the branch tuple
    error = refused_index(check, 2)
    assert isinstance(error, MaxNoetherError) and not isinstance(error, IndexError)


@BRANCH_INDEX_ENTRY_POINTS
def test_a_bool_branch_index_is_refused_when_branch_1_is_cached(check):
    # resolve's cache is keyed by value, where True == 1: the index is refused first
    resolve(curve((3, 4, 5), (3, 5, 7)), 1)
    refused_index(check, True)


def test_resolve_keeps_one_model_per_curve_and_index():
    c = RationalCurveModel(
        tuple(Branch(Fraction(x), sg(*g)) for x, g in ((0, (3, 4, 5)), (-2, (3, 5, 7)), (1, (2, 5))))
    )
    for i in range(3):
        assert resolve(c, i) is resolve(c, i)
        assert resolve(c, i) == RationalCurveModel(c.branches[:i] + c.branches[i + 1 :])
    # an equal curve finds the same model
    assert resolve(RationalCurveModel(c.branches), 2) is resolve(c, 2)


def test_the_resolution_suite_builds_each_curve_once_at_every_weight(monkeypatch):
    # its 3 curves, 1 of them moved into its affine frame, and 5 resolved
    # (curve, index) pairs: one model each, however many weights are checked
    made = []
    init = RationalCurveModel.__init__

    def counting(self, branches):
        made.append(branches)
        init(self, branches)

    monkeypatch.setattr(RationalCurveModel, "__init__", counting)
    for max_n in (3, 4):
        clear_curve_caches()
        made.clear()
        reports = run_suite("resolution", SuiteParams(None, max_n))
        assert len(reports) == 6 * (max_n - 1) and all(r.passed for r in reports)
        assert len(made) == 9, max_n
    clear_curve_caches()


def test_in_sections_rejects_vectors_outside():
    # the term-row membership test against exact elimination by the section basis
    perturbed = 0
    for c in random_curves(12, 4):
        for n in (2, 3):
            sections = global_sections(c, n)
            ambient = numerator_ambient(c, n)
            assert _in_sections(c, n, sections.rows)
            for j in range(ambient):
                unit = ((j, 1),)
                assert _in_sections(c, n, [unit]) == within(sections, unit)
            rows = [
                _poly_mul(b, f, ambient)
                for b in global_sections(c, 1).rows
                for f in products_span(c, n - 1).rows
            ]
            assert _in_sections(c, n, rows)
            # (q t - p)^k has order exactly k at the center p/q: added to a
            # section, it puts a nonzero coefficient on the gap k of K^n there
            for index, br in enumerate(c.branches):
                p, q = br.center.numerator, br.center.denominator
                for k in excluded_orders(br.semigroup, n):
                    if k >= ambient:
                        continue
                    power = [1]
                    for _ in range(k):
                        power = dense_convolution(power, [-p, q])
                    row = dense(rows[(index + k) % len(rows)], ambient)
                    bad = _terms([x + y for x, y in zip(row, power + [0] * (ambient - k - 1))])
                    assert not _in_sections(c, n, [bad])
                    assert not within(sections, bad)
                    perturbed += 1
    assert perturbed >= 30


def test_in_sections_accepts_every_row_where_no_order_is_excluded():
    # K^2 has no gaps at any of these branches, so C has no rows: every
    # numerator in the ambient is a section, and every in-range row passes
    c = RationalCurveModel(
        (
            Branch(Fraction(0), sg(3, 4, 5)),
            Branch(Fraction(7, 3), sg(4, 5, 6, 7)),
            Branch(Fraction(-5, 2), sg(3, 7, 8)),
        )
    )
    n = 2
    ambient = numerator_ambient(c, n)
    assert all(not excluded_orders(br.semigroup, n) for br in c.branches)
    assert _constraint_rows(c, n)[1] == 0
    assert global_sections(c, n).dim == ambient
    rng = random.Random(11)
    rows = [((d, 1),) for d in range(ambient)]
    for _ in range(20):
        dense_row = [rng.choice((0, rng.randint(-(10**30), 10**30))) for _ in range(ambient)]
        rows.append(_terms(dense_row))
    assert _in_sections(c, n, rows)
    assert all(_in_sections(c, n, [row]) for row in rows)
    assert all(within(global_sections(c, n), row) for row in rows[ambient:])


def test_in_sections_reads_monomials_at_a_lone_center_zero():
    # at center 0 the constraints of a lone branch are coordinates: t^k is a
    # section iff k is no excluded order, and one refused monomial after
    # accepted ones still fails the batch
    refused = 0
    for s in enumerate_semigroups(4):
        if not s.genus:
            continue
        c = RationalCurveModel((Branch(Fraction(0), s),))
        for n in (1, 2, 3):
            sections = global_sections(c, n)
            excluded = set(excluded_orders(s, n))
            ambient = numerator_ambient(c, n)
            accepted = [((k, 1),) for k in range(ambient) if k not in excluded]
            assert _in_sections(c, n, accepted)
            for k in range(ambient):
                unit = ((k, 1),)
                assert _in_sections(c, n, [unit]) == (k not in excluded) == within(sections, unit)
                if k in excluded:
                    assert not _in_sections(c, n, accepted + [((k, -(10**20)),)])
                    refused += 1
    assert refused == 67


def test_lone_branch_columns_are_the_excluded_orders():
    # at center 0 a lone branch's constraint matrix is one unit entry per
    # excluded order below the ambient; at 7/3 the same branch takes the
    # generic jet recurrence, and translation is a change of basis, so the
    # dimensions and verdicts agree
    cases = 0
    for s in enumerate_semigroups(6):
        if not s.genus:
            continue
        origin = RationalCurveModel((Branch(Fraction(0), s),))
        moved = RationalCurveModel((Branch(Fraction(7, 3), s),))
        for n in range(1, 5):
            excluded = excluded_orders(s, n)
            columns, nrows = _constraint_rows(origin, n)
            assert nrows == len(excluded) and len(columns) == numerator_ambient(origin, n)
            for d, column in enumerate(columns):
                assert column == (((excluded.index(d),), (1,)) if d in excluded else None)
            assert global_sections(origin, n).dim == global_sections(moved, n).dim
            assert max_noether_holds(origin, n).holds == max_noether_holds(moved, n).holds
            cases += 1
    assert cases == 49 * 4


def dense_constraints(c, n):
    """The constraint matrix of weight n, read off its columns into dense rows."""
    ambient = numerator_ambient(c, n)
    columns, nrows = _constraint_rows(c, n)
    rows = [[0] * ambient for _ in range(nrows)]
    for d, column in enumerate(columns):
        for i, x in zip(*column) if column else ():
            rows[i][d] = x
    return rows


def test_sections_match_the_dense_nullspace_of_the_constraints():
    # every semigroup of genus <= 6 at center 0, and curves at rational centers
    cases = [
        RationalCurveModel.from_semigroups([s]) for s in enumerate_semigroups(6) if s.genus
    ] + random_curves(12, 4)
    assert len(cases) == 49 + 4
    for c in cases:
        for n in range(1, 5):
            expected = dense_nullspace(dense_constraints(c, n), numerator_ambient(c, n))
            assert basis(global_sections(c, n)) == expected, (str(c), n)


def test_a_third_oracle_agrees_on_ranks():
    # sympy's DomainMatrix over QQ shares no code with linalg
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    def rank(rows, ncols):
        if not rows:
            return 0
        return DomainMatrix([[QQ(x) for x in row] for row in rows], (len(rows), ncols), QQ).rank()

    for c in random_curves(13, 6):
        for n in (1, 2, 3):
            ambient = numerator_ambient(c, n)
            assert global_sections(c, n).dim == ambient - rank(dense_constraints(c, n), ambient)
            if n > 1:
                assert products_span(c, n).dim == rank(raw_products(c, n), ambient)


def test_products_span_weight_cap():
    # weight n recurses through every lower weight; a cold call at the cap
    # must stay inside the stack, and the cap must be enforced
    c = curve((2, 3))
    products_span.cache_clear()
    try:
        assert products_span(c, MAX_WEIGHT) is global_sections(c, MAX_WEIGHT)
        for space in (products_span, global_sections):
            with pytest.raises(WeightTooLarge, match=f"MAX_WEIGHT = {MAX_WEIGHT}"):
                space(c, MAX_WEIGHT + 1)
    finally:
        products_span.cache_clear()


def test_a_short_modular_rank_falls_back_to_the_exact_span(monkeypatch):
    # an unlucky prime costs the exact elimination, never the verdict
    import maxnoether.curves as curves_mod

    monkeypatch.setattr(curves_mod, "modular_rank", lambda rows, limit: limit - 1)
    products_span.cache_clear()
    try:
        for c in random_curves(14, 3):
            for n in (2, 3):
                got = products_span(c, n)
                assert got is not global_sections(c, n)
                exact = Subspace.span(map(_terms, raw_products(c, n)), numerator_ambient(c, n))
                assert got == exact
    finally:
        products_span.cache_clear()


def products_formed(monkeypatch, c, top):
    """Per weight 2..top: the ``_poly_mul`` calls ``products_span`` makes, and the weight.

    The section spaces are built first and the product spans start cold, so
    only the products are counted.
    """
    for n in range(1, top + 1):
        global_sections(c, n)
    calls = []

    def counted(*args):
        calls.append(n)
        return _poly_mul(*args)

    monkeypatch.setattr(curves_mod, "_poly_mul", counted)
    products_span.cache_clear()
    try:
        for n in range(1, top + 1):
            products_span(c, n)
    finally:
        products_span.cache_clear()
    return [(calls.count(n), n) for n in range(2, top + 1)]


def test_the_certificate_forms_few_rows_past_each_dimension(monkeypatch):
    # each weight below closes after dim S_n rows plus at most SLACK: the
    # order of _ordered_products puts independent rows first, and the second
    # batch taken from the first lower row up would form thousands more
    SLACK = 2
    three = RationalCurveModel(
        (
            Branch(Fraction(0), sg(3, 4, 5)),
            Branch(Fraction(7, 3), sg(3, 5, 7)),
            Branch(Fraction(-5, 2), sg(4, 5, 6, 7)),
        )
    )
    for c, top in ((curve((3, 4, 5), (3, 4, 5)), 40), (three, 10)):
        for formed, n in products_formed(monkeypatch, c, top):
            assert products_span(c, n) is global_sections(c, n)
            dim = global_sections(c, n).dim
            assert dim <= formed <= dim + SLACK, (str(c), n, formed)


def test_a_miss_forms_each_product_once(monkeypatch):
    # on the hyperelliptic family the rank never closes: the rows modular_rank
    # read and the rest are formed once each, and all go to the exact span
    spans = []
    span = Subspace.span

    def recorded(rows, ambient):
        spans.append(list(rows))
        return span(spans[-1], ambient)

    monkeypatch.setattr(Subspace, "span", staticmethod(recorded))
    for k in (3, 4):
        for center in (Fraction(0), Fraction(7, 3)):
            c = RationalCurveModel((Branch(center, sg(2, 2 * k + 1)),))
            spans.clear()
            counts = products_formed(monkeypatch, c, 3)
            misses = list(spans)
            assert len(misses) == len(counts) == 2
            for (formed, n), rows in zip(counts, misses):
                ambient = numerator_ambient(c, n)
                pairs = [
                    (b, p) for b in global_sections(c, 1).rows for p in products_span(c, n - 1).rows
                ]
                assert formed == len(pairs)
                distinct = {_poly_mul(b, p, ambient) for b, p in pairs}
                assert len(rows) == len(distinct) and set(rows) == distinct


# -- the product routine -----------------------------------------------------


coefficients = st.lists(
    st.one_of(st.integers(-50, 50), st.integers(-(10**30), 10**30), st.just(0)), max_size=12
)
single_entry = st.tuples(st.integers(0, 10), st.integers(-9, 9)).map(
    lambda t: [0] * t[0] + [t[1]]
)
operands = st.one_of(coefficients, single_entry, st.integers(0, 8).map(lambda k: [0] * k))
# a(t) and a(-t): their product is even, so every odd coefficient cancels
cancelling = coefficients.map(lambda a: (a, [x if i % 2 == 0 else -x for i, x in enumerate(a)]))


@settings(max_examples=300)
@given(st.one_of(st.tuples(operands, operands), cancelling), st.integers(0, 30))
# two monomials, 3 t^2 * -5 t^4: widths 7, 6 and below put their product below, at and past the width
@example(([0, 0, 3], [0, 0, 0, 0, -5]), 7)
def test_product_over_terms_matches_the_dense_convolution(pair, cut):
    a, b = pair
    full = len(a) + len(b) - 1
    assert _terms(a) == tuple((i, x) for i, x in enumerate(a) if x)
    assert dense(_terms(a), len(a)) == a
    if a and b:
        assert _poly_mul(_terms(a), _terms(b), full) == _terms(dense_convolution(a, b))
        # a shorter width keeps the leading coefficients, as the series products do
        for width in range(min(cut, full) + 1):
            expected = _terms(dense_convolution(a, b)[:width])
            assert _poly_mul(_terms(a), _terms(b), width) == expected
    # an empty list of terms is the zero polynomial, at any width
    assert _poly_mul((), _terms(b), cut) == ()
    assert _poly_mul(_terms(a), (), cut) == ()


def test_products_span_with_empty_bases():
    # the smooth model has no sections of any weight: every basis, the lower
    # one included, is empty, and no row is formed
    smooth = RationalCurveModel(())
    for n in (1, 2, 3, 4):
        assert products_span(smooth, n) is global_sections(smooth, n)
        assert products_span(smooth, n).dim == 0 == numerator_ambient(smooth, n)


def noether_multi_at_rational_centers(seed):
    """The noether-multi curves with their branches moved to distinct centers p/q."""
    rng = random.Random(seed)
    heights = sorted({Fraction(p, q) for p in range(-9, 10) for q in range(1, 10)})
    for c in _curve_corpus(_MULTI_MENU, 6):
        centers = rng.sample(heights, len(c.branches))
        yield RationalCurveModel(
            tuple(Branch(x, b.semigroup) for x, b in zip(centers, c.branches))
        )


def test_products_span_is_the_span_of_the_dense_products():
    cases = 0
    for c in noether_multi_at_rational_centers(15):
        for n in (2, 3, 4):
            ambient = numerator_ambient(c, n)
            exact = Subspace.span(map(_terms, raw_products(c, n)), ambient)
            got = products_span(c, n)
            assert basis(got) == basis(exact) and got.ambient == exact.ambient
            cases += 1
    assert cases == 24


def test_a_large_center_exponent_is_rejected_before_it_is_expanded(monkeypatch):
    # Fraction("1e-1_000_000_000") would build a billion-digit power of ten
    import maxnoether.curves as curves_mod

    def expand(*args):
        raise AssertionError(f"the center {args} reached Fraction")

    monkeypatch.setattr(curves_mod, "Fraction", expand)
    for center in ("1e-40000", "1e-1_000_000_000", " 2.5E+0_0_1_0000 "):
        spec = {"branches": [{"center": center, "generators": [3, 4, 5]}]}
        with pytest.raises(CurveSpecError, match=f"MAX_CENTER_DIGITS = {MAX_CENTER_DIGITS}"):
            RationalCurveModel.from_json(spec)


def test_ambient_cap_is_checked_before_any_row(monkeypatch):
    c = curve((3, 4, 5))  # ambient 2 * 3 - 4 + 1 = 3 at n = 2
    assert numerator_ambient(c, 2) == 3
    global_sections.cache_clear()
    products_span.cache_clear()
    try:
        monkeypatch.setattr(curves_mod, "MAX_AMBIENT", 3)
        assert products_span(c, 2) == global_sections(c, 2)
        global_sections.cache_clear()
        products_span.cache_clear()
        monkeypatch.setattr(curves_mod, "MAX_AMBIENT", 2)
        monkeypatch.setattr(curves_mod, "_constraint_rows", None)  # building a row would fail
        message = "^numerator ambient 3 at weight 2 is above MAX_AMBIENT = 2$"
        for space in (global_sections, products_span):
            with pytest.raises(AmbientTooLarge, match=message):
                space(c, 2)
    finally:
        global_sections.cache_clear()
        products_span.cache_clear()

