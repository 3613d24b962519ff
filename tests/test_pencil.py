"""The pencil path: weights past N0 decided by a certified base-point-free pencil."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from maxnoether import curves as curves_mod
from maxnoether.curves import (
    Branch,
    RationalCurveModel,
    check_resolution_quotient,
    find_pencil,
    global_sections,
    max_noether_holds,
    numerator_ambient,
    numerator_degree_bound,
    pencil_refusal,
    pencil_weight,
    products_span,
    resolve,
    _VALUE_ZERO,
    _affine_frame,
    _branch_frames,
    _combination,
    _constraint_term_rows,
    _coprime,
    _embedded_resolved_sections,
    _jets,
    _pencil_jets,
    _poly_mul,
    _ratio_kernel,
    _ratio_rows,
    _read,
    _row_jet,
    _terms,
)
from maxnoether.linalg import Subspace, modular_rank, nullspace
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.suites import run_suite
from test_suites import PINNED, _pin


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


def at(*branches):
    return RationalCurveModel(tuple(Branch(Fraction(c), sg(*g)) for c, g in branches))


def clear_caches():
    for fn in vars(curves_mod).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def exhaustive_noether(c, n):
    """(holds, products_dim, sections_dim) from the exact spaces of the framed curve."""
    f = _affine_frame(c)
    sections, prods = global_sections(f, n), products_span(f, n)
    return prods == sections, prods.dim, sections.dim


def exhaustive_resolution(c, index, n):
    """The resolution check's fields, from an exact span of the products and embedded rows."""
    f = _affine_frame(c)
    sections, prods = global_sections(f, n), products_span(f, n)
    resolved = global_sections(resolve(f, index), n)
    rows = prods.rows + _embedded_resolved_sections(f, index, n)
    combined = Subspace.span(rows, sections.ambient)
    return (
        combined == sections, n, sections.dim, prods.dim, resolved.dim, combined.dim
    )


def census_pairs():
    """Every pair of semigroups of multiplicity >= 3 and genus <= 4, at 0 and 1: 55 curves."""
    menu = [s for s in enumerate_semigroups(4) if s.gaps and s.multiplicity >= 3]
    return [
        RationalCurveModel((Branch(Fraction(0), a), Branch(Fraction(1), b)))
        for a, b in combinations_with_replacement(menu, 2)
    ]


def random_three_branch(count, seed):
    """Three branches of multiplicity >= 3 and genus <= 3 at distinct centers of height <= 5."""
    rng = random.Random(seed)
    menu = [s for s in enumerate_semigroups(3) if s.gaps and s.multiplicity >= 3]
    heights = sorted({Fraction(p, q) for q in range(1, 6) for p in range(-5, 6)})
    return [
        RationalCurveModel(
            tuple(Branch(c, rng.choice(menu)) for c in rng.sample(heights, 3))
        )
        for _ in range(count)
    ]


def differential(curve_list):
    """Check every weight 2..N0+2 and every resolution quotient against the exhaustive oracle.

    Returns the number of curves on which the pencil was certified.
    """
    certified = 0
    for c in curve_list:
        clear_caches()
        n0 = pencil_weight(c)
        assert n0 is not None, str(c)
        certified += not isinstance(find_pencil(c), str)
        for n in range(2, n0 + 3):
            got = max_noether_holds(c, n)
            assert (got.holds, got.products_dim, got.sections_dim) == exhaustive_noether(c, n), (
                str(c),
                n,
            )
            assert got.missing_values is None
            for index in range(len(c.branches)):
                res = check_resolution_quotient(c, index, n)
                assert tuple(res.to_json().values()) == exhaustive_resolution(c, index, n), (
                    str(c),
                    index,
                    n,
                )
    return certified


def test_the_pencil_verdicts_match_the_exhaustive_oracle_on_the_two_branch_census():
    pairs = census_pairs()
    assert len(pairs) == 55
    assert differential(pairs) == 55


def test_the_pencil_verdicts_match_the_exhaustive_oracle_on_random_three_branch_curves():
    assert differential(random_three_branch(12, "three-branch pencils")) == 12


def all_gap_kernel(c, rows):
    """W from one condition per gap of S at each branch with K != S, jets through F."""
    conditions = []
    ambient = numerator_ambient(c, 1)
    for br, _, scale, unit in _branch_frames(c, 1):
        s = br.semigroup
        if not s.is_symmetric():
            jets = list(_jets(br.center, scale, unit, ambient))
            den, *nums = [_row_jet(row, jets) for row in (rows[0], *rows)]
            if not den[0]:
                return None
            conditions.extend([_read(r, num) for num in nums] for r in _ratio_rows(den, s.gaps))
    return nullspace(map(_terms, conditions), len(rows))


def test_the_value_conditions_give_the_all_gap_kernel_on_the_census():
    # one condition per value of K - S cuts the same W as one per gap of S;
    # on one pair h1 has a positive value at the branch with K != S
    kernels = 0
    for c in census_pairs():
        f = _affine_frame(c)
        basis = global_sections(f, 1).rows
        fewer = _ratio_kernel(_pencil_jets(f), basis)
        assert fewer == all_gap_kernel(f, basis), str(c)
        kernels += fewer is not None
    assert kernels == 54


def test_the_constant_term_of_a_weight_one_jet_reads_value_zero_at_every_center():
    # the value-0 test reads the constant term of a row's weight-1 jet; it is
    # zero iff the numerator vanishes at the center, exactly, symmetric
    # centers included, on the census at G <= 5 at two pairs of centers
    menu = [s for s in enumerate_semigroups(5) if s.gaps and s.multiplicity >= 3]
    seen = {(symmetric, vanishes): 0 for symmetric in (True, False) for vanishes in (True, False)}
    for centers in ((0, 1), ("7/3", "-5/2")):
        for a, b in combinations_with_replacement(menu, 2):
            c = at((centers[0], a.generators), (centers[1], b.generators))
            rows = global_sections(c, 1).rows
            branches = _pencil_jets(c)
            assert len(branches) == len(c.branches)  # each has a weight-1 frame
            for br, (_, jets) in zip(c.branches, branches):
                for row in rows:
                    jet = _row_jet(row, jets)
                    vanishes = not sum(x * br.center**d for d, x in row)
                    assert (_read(_VALUE_ZERO, jet) == 0) == vanishes, (str(c), row)
                    seen[br.semigroup.is_symmetric(), vanishes] += 1
    assert all(seen.values()) and sum(seen.values()) == 7920, seen


def test_every_certified_pencil_passes_the_full_condition_check():
    for c in census_pairs() + random_three_branch(12, "three-branch pencils"):
        pencil = find_pencil(c)
        if not isinstance(pencil, str):
            assert pencil_refusal(_affine_frame(c), *pencil) is None, str(c)


def test_a_search_forms_each_branch_weight_one_jets_once(monkeypatch):
    # the kernel and every candidate's certificate read one list of column
    # jets per branch; the sections of weight 1 are formed before counting
    c = at(("2/5", (3, 4, 5)), (0, (3, 5, 7)))
    clear_caches()
    global_sections(_affine_frame(c), 1)
    formed = []

    def counted(*args):
        formed.append(args)
        return _jets(*args)

    monkeypatch.setattr(curves_mod, "_jets", counted)
    assert not isinstance(find_pencil(c), str)
    assert len(formed) == len(c.branches) == 2
    clear_caches()


def sections_where(c, *functionals):
    """Weight-1 numerators on which every functional vanishes, as two fixed combinations."""
    basis = global_sections(c, 1).rows
    conditions = [_terms([f(row) for row in basis]) for f in functionals]
    kernel = [_combination(k, basis) for k in nullspace(conditions, len(basis)).rows]
    assert len(kernel) >= 2
    h1 = _combination(tuple((i, i + 1) for i in range(len(kernel))), kernel)
    h2 = _combination(tuple((i, (i + 2) ** 2) for i in range(len(kernel))), kernel)
    return h1, h2


def value_at(point):
    return lambda row: sum(x * point**d for d, x in row)


def coefficient(d):
    return lambda row: dict(row).get(d, 0)


def test_hand_built_pairs_are_refused_for_their_one_reason():
    # two symmetric branches impose no ratio condition, so any pair of
    # sections on the linear conditions below fails only where it is built to
    gorenstein = at((0, (3, 4)), (1, (3, 4)))
    top = numerator_degree_bound(gorenstein, 1)
    cases = {
        "common-root": sections_where(gorenstein, value_at(2)),
        "base-point-at-infinity": sections_where(gorenstein, coefficient(top)),
        "no-value-zero-factor": sections_where(gorenstein, value_at(0)),
    }
    for reason, (h1, h2) in cases.items():
        assert pencil_refusal(gorenstein, h1, h2) == reason
    # at <3,4,5> the ratio of a generic section to h1 has a term on 1, in K - S
    cusps = at((0, (3, 4, 5)), (1, (3, 4, 5)))
    basis = global_sections(cusps, 1).rows
    h1 = basis[0]
    h2 = _combination(tuple((i, i + 1) for i in range(len(basis))), basis)
    assert _coprime(h1, h2)
    assert pencil_refusal(cusps, h1, h2) == "ratio-outside-local-ring"
    # and the certified pair of the same curve passes
    assert pencil_refusal(cusps, *find_pencil(cusps)) is None


def test_failed_searches_name_their_condition():
    # genus 2 has no invertible pencil: W holds only h1
    assert find_pencil(at((0, (3, 4, 5)))) == "ratio-outside-local-ring"
    # genus 1: one section
    assert find_pencil(at((0, (2, 3)))) == "dependent"
    assert pencil_weight(at((0, (2, 3)))) is None


def test_a_search_whose_candidates_share_a_root_with_h1_finds_none(monkeypatch):
    c = at((0, (3, 4, 5)), (1, (3, 5, 7)))
    assert not isinstance(find_pencil(c), str)
    monkeypatch.setattr(curves_mod, "_coprime", lambda a, b: False)
    assert find_pencil(c) == "common-root"


def widths_formed(monkeypatch):
    widths = []

    def counted(a, b, width):
        widths.append(width)
        return _poly_mul(a, b, width)

    monkeypatch.setattr(curves_mod, "_poly_mul", counted)
    return widths


def test_no_product_row_of_a_weight_past_n0_is_formed(monkeypatch):
    clear_caches()
    widths = widths_formed(monkeypatch)
    for c in (
        at((0, (3, 4, 5)), (1, (3, 5, 7))),
        at((0, (3, 7, 8)), ("7/3", (3, 4, 5)), ("-5/2", (3, 5, 7))),
    ):
        n0 = pencil_weight(c)
        f = _affine_frame(c)
        for n in range(2, n0 + 4):
            widths.clear()
            check = max_noether_holds(c, n)
            for index in range(len(c.branches)):
                assert check_resolution_quotient(c, index, n).ok
            assert check.holds
            formed = numerator_ambient(f, n) in widths
            assert formed == (n <= n0), (str(c), n)
    clear_caches()


def test_a_short_constraint_rank_mod_p_takes_the_exact_path(monkeypatch):
    # dim S_n is read off C_n only when its rank mod p is its row count
    c = at((0, (3, 4, 5)), (1, (3, 5, 7)))
    f = _affine_frame(c)
    n = pencil_weight(c) + 1
    live = [row for row in _constraint_term_rows(f, n, numerator_ambient(f, n)) if row]
    shortened = []

    def short_on_c_n(rows, limit):
        # products_span reads the same name: only the rank of C_n falls short
        if rows == live:
            shortened.append(limit)
            return limit - 1
        return modular_rank(rows, limit)

    clear_caches()
    widths = widths_formed(monkeypatch)
    monkeypatch.setattr(curves_mod, "modular_rank", short_on_c_n)
    got = max_noether_holds(c, n)
    assert shortened == [len(live)]
    assert numerator_ambient(f, n) in widths
    monkeypatch.undo()
    assert (got.holds, got.products_dim, got.sections_dim) == exhaustive_noether(c, n)
    clear_caches()


def test_a_refused_jet_test_past_n0_goes_straight_to_the_span(monkeypatch):
    # P_n = S_n is decided once: where the jet test refuses on the pencil
    # path, S_n and the embedded rows are spanned, with no product span of
    # weight n formed and no second jet test
    c = at((0, (3, 4, 5)), (1, (3, 5, 7)))
    n = pencil_weight(c) + 1
    expected = [exhaustive_resolution(c, index, n) for index in range(2)]
    tests = []
    products = curves_mod.products_span

    def refused(*args):
        tests.append(args)
        return False

    def below_n(curve, k):
        assert k < n, "a product span of weight n formed"
        return products(curve, k)

    clear_caches()
    monkeypatch.setattr(curves_mod, "_resolved_in_sections", refused)
    monkeypatch.setattr(curves_mod, "products_span", below_n)
    for index in range(2):
        got = check_resolution_quotient(c, index, n)
        assert tuple(got.to_json().values()) == expected[index]
    assert len(tests) == 2
    clear_caches()


def test_lone_branches_never_run_the_search(monkeypatch):
    def refused(*args):
        raise AssertionError("the pencil search ran")

    monkeypatch.setattr(curves_mod, "find_pencil", refused)
    monkeypatch.setattr(curves_mod, "pencil_weight", refused)
    clear_caches()
    for k in (3, 4, 5):
        for center in (0, "7/3"):
            c = at((center, (2, 2 * k + 1)))
            for n in range(2, 7):
                assert max_noether_holds(c, n).holds is False
    for gens in ((3, 4, 5), (3, 5, 7), (4, 5, 6, 7)):
        for n in range(2, 7):
            assert max_noether_holds(at((0, gens)), n).holds
    assert _pin(run_suite("hyperelliptic-negative")) == PINNED["hyperelliptic-negative"]
    clear_caches()


def test_a_failed_base_case_runs_no_search(monkeypatch):
    # two <2,3> branches make genus 2: P_2 = S_2, but P_3 != S_3 at N0 = 3,
    # so the weights past N0 keep the exact path and fail there too
    c = at((0, (2, 3)), (1, (2, 3)))
    assert pencil_weight(c) == 3
    assert not isinstance(find_pencil(c), str)  # a pencil exists; the base case decides

    def refused(*args):
        raise AssertionError("the pencil search ran")

    monkeypatch.setattr(curves_mod, "find_pencil", refused)
    clear_caches()
    verdicts = [max_noether_holds(c, n).holds for n in range(2, 6)]
    assert verdicts == [True, False, False, False]
    clear_caches()


def test_a_weight_or_ambient_past_its_cap_is_refused_on_the_pencil_path():
    # refused before the powers of K up to the weight are built
    c = at((0, (3, 4, 5)), (1, (3, 5, 7)))
    for n in (curves_mod.MAX_WEIGHT + 1, 10**9):
        with pytest.raises(curves_mod.WeightTooLarge):
            max_noether_holds(c, n)
    # each branch alone is under MAX_AMBIENT at weight 1; together they pass it
    wide = at((0, (35, 36)), ("1/2", (35, 36)))
    n = pencil_weight(wide) + 1
    with pytest.raises(curves_mod.AmbientTooLarge, match=f"at weight {n} "):
        max_noether_holds(wide, n)
