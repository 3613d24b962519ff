"""Local covering certificates and the value-level surjectivity verdicts."""

from collections import Counter
from fractions import Fraction

import pytest

from maxnoether import valueset as valueset_mod
from maxnoether.errors import HypothesisGap, NotApplicable
from maxnoether.local import (
    BasisCertificate,
    CertEntry,
    Columns,
    GridRow,
    LocalContext,
    build_certificates,
    case_epsilon,
    SurjectivityCheck,
    verify_local_surjectivity,
)
from maxnoether.semigroup import NumericalSemigroup, enumerate_semigroups
from maxnoether.valueset import ValueSet, canonical_ideal, n_fold, quotient_dim


def ctx_for(gens):
    return LocalContext(NumericalSemigroup.from_generators(gens))


# section values from alpha on, counted from alpha, with the case each gives:
# the cases ii and iii, and values past alpha without alpha, which stay case i
CASES = (("ii", (0,)), ("iii", (0, 1)), ("iii", (0, 2)))
ABOVE = (("i", (1,)), ("i", (2,)), ("i", (1, 2)))


def epsilon_case(attained):
    """The case of the values attained at the point, counted from alpha."""
    values = set(attained)
    if 0 not in values:
        return "i"
    return "iii" if 1 in values or 2 in values else "ii"


def synthetic(s, offsets):
    """The context of ``s`` with section values K below alpha and alpha + each offset.

    Its case must be the rule :func:`epsilon_case` applied to W - alpha.
    """
    a = s.conductor
    below = canonical_ideal(s).elements_below(a)
    ctx = LocalContext(s, ValueSet.finite(below + [a + o for o in offsets]))
    assert ctx.case == epsilon_case(v - a for v in ctx.section_values.exceptional)
    return ctx


def brute_cover(w_values, k_values, n, bound):
    """Oracle: exhaustive n-fold sums of section values on a window."""
    sums = {0}
    for _ in range(n):
        sums = {a + b for a in sums for b in w_values}
    return [v for v in k_values if v < bound and v not in sums]


def test_epsilon_case_tags():
    # the case is read from the section values, counted from alpha = 8
    s = NumericalSemigroup.from_generators([4, 5, 11])
    for offsets, case in (
        ((), "i"),
        ((0, 1), "iii"),
        ((0,), "ii"),
        ((0, 2), "iii"),
        ((0, 3), "ii"),
        ((1,), "i"),
        ((1, 2), "i"),
        ((0, 1, 2), "iii"),
    ):
        assert synthetic(s, offsets).case == case
    assert ctx_for([4, 5, 11]).case == "i"


def test_epsilon_values():
    s = NumericalSemigroup.from_generators([4, 5, 11])
    assert case_epsilon(synthetic(s, ()).case, 3) == 5
    assert case_epsilon(synthetic(s, (0,)).case, 3) == 1
    assert case_epsilon(synthetic(s, (0, 1)).case, 3) == 0


def test_context_default_section_values():
    ctx = ctx_for([3, 4, 5])
    assert ctx.section_values == ValueSet.finite([0, 1])
    assert (ctx.d1, ctx.d2, ctx.r, ctx.p) == (1, 1, 0, 0)


def test_context_symmetric_has_no_gap_pair():
    ctx = ctx_for([2, 7])
    assert ctx.d1 is None and ctx.d2 is None
    assert ctx.section_values == ValueSet.finite([0, 2, 4])


def test_context_rejects_bad_section_values():
    s = NumericalSemigroup.from_generators([3, 4, 5])
    with pytest.raises(HypothesisGap):
        LocalContext(s, section_values=ValueSet.finite([0]))
    with pytest.raises(HypothesisGap):
        LocalContext(s, section_values=ValueSet.finite([0, 1, 2]))


def test_q_decomposition_378():
    ctx = ctx_for([3, 7, 8])
    assert (ctx.alpha, ctx.beta, ctx.d1, ctx.d2, ctx.r) == (6, 3, 1, 4, 1)
    assert ctx.q_pairs == ((1, 0),)
    assert ctx.q_sums == (4, 4)


def test_q_decomposition_not_applicable():
    for gens in ([3, 4, 5], [2, 7]):  # r = 0, and symmetric
        ctx = ctx_for(gens)
        assert ctx.q_pairs is None and ctx.q_sums == ()


def test_q_decomposition_4511():
    ctx = ctx_for([4, 5, 11])
    assert (ctx.d1, ctx.d2, ctx.r) == (1, 6, 1)
    assert ctx.q_pairs == ((1, 0),)
    assert ctx.q_sums == (5, 6)


def test_q_decomposition_when_d1_exceeds_beta():
    # q_r2 = d1 // beta = 1, so q_r1 = r - 1; one more would put 3*3 + 4 = 13 past alpha
    ctx = ctx_for([3, 7, 11])
    assert (ctx.alpha, ctx.beta, ctx.d1, ctx.d2, ctx.r) == (9, 3, 4, 4, 2)
    assert ctx.q_pairs == ((1, 0), (1, 1))
    assert ctx.q_sums == (7, 4, 7, 7)


def test_conductor_certificate_378():
    ctx = ctx_for([3, 7, 8])
    certs = build_certificates(ctx, 2)
    conductor = certs[0]
    assert sorted(conductor.values()) == [6, 7, 8]
    assert len(conductor.entries) == ctx.alpha - ctx.beta
    assert conductor.check(ctx.section_values) == []


def test_square_certificate_sizes():
    # multiplicity 3: empty square step; multiplicity 4: exactly one product
    ctx3 = ctx_for([3, 7, 8])
    square3 = build_certificates(ctx3, 2)[1]
    assert square3.entries == ()
    ctx4 = ctx_for([4, 5, 11])
    square4 = build_certificates(ctx4, 2)[1]
    assert [e.value for e in square4.entries] == [2 * ctx4.alpha - 4]
    assert square4.check(ctx4.section_values) == []


def test_power_certificate_windows_are_contiguous():
    ctx = ctx_for([4, 5, 11])
    certs = build_certificates(ctx, 4)
    power = certs[2]
    a = ctx.alpha
    values = sorted(power.values())
    assert values == list(range(2 * a - 3, 4 * a - 8 + 1))
    assert power.check(ctx.section_values) == []


def test_case_ii_and_iii_certificates():
    s = NumericalSemigroup.from_generators([4, 5, 11])
    a = s.conductor
    ctx2 = synthetic(s, (0,))
    assert ctx2.case == "ii"
    certs = build_certificates(ctx2, 2)
    square = certs[1]
    assert sorted(square.values()) == list(range(2 * a - ctx2.beta, 2 * a - 1))
    assert square.check(ctx2.section_values) == []

    ctx3 = synthetic(s, (0, 1))
    assert ctx3.case == "iii"
    certs = build_certificates(ctx3, 2)
    square = certs[1]
    assert sorted(square.values()) == list(range(2 * a - ctx3.beta, 2 * a))
    assert square.check(ctx3.section_values) == []


def test_certificate_check_names_each_defect():
    sections = ValueSet.finite([1, 3, 4])
    cert = BasisCertificate(
        "window-5-7",
        5,
        7,
        (CertEntry("a", 4, (1, 3)), CertEntry("b", 7, (3, 4)), CertEntry("c", 6, (2, 3))),
    )
    assert cert.check(sections) == [
        "size 3 != quotient dimension 2",
        "a: value 4 outside the quotient window",
        "b: value 7 outside the quotient window",
        "c: factor values do not sum to 6",
        "c: factor value 2 is not a section value",
    ]
    twice = BasisCertificate("window-0-2", 0, 2, (CertEntry("x", 1, (1,)), CertEntry("y", 1, (1,))))
    assert twice.check(sections) == ["duplicate values"]


def test_a_repeated_bad_factor_is_named_at_every_use():
    # each distinct factor value is tested once, but every entry and every
    # position that uses a bad one still gets its own defect, in entry order
    sections = ValueSet.finite([1, 3])
    cert = BasisCertificate(
        "window-4-8",
        4,
        8,
        (
            CertEntry("a", 4, (2, 2)),
            CertEntry("b", 5, (3, 2)),
            CertEntry("c", 6, (3, 3)),
            CertEntry("d", 7, (2, 5)),
        ),
    )
    assert cert.check(sections) == [
        "a: factor value 2 is not a section value",
        "a: factor value 2 is not a section value",
        "b: factor value 2 is not a section value",
        "d: factor value 2 is not a section value",
        "d: factor value 5 is not a section value",
    ]


_SECTIONS = ValueSet.finite([0, 1, 3, 4, 5])


@pytest.mark.parametrize(
    "lo, hi, entries, defects",
    [
        (
            0,
            2,
            (CertEntry("x", 1, (1, 0)), CertEntry("y", 1, (0, 1))),
            ["duplicate values"],
        ),
        (
            0,
            3,
            (CertEntry("x", 0, (0,)), CertEntry("y", 1, (1,))),
            ["size 2 != quotient dimension 3"],
        ),
        (
            5,
            7,
            (CertEntry("a", 4, (1, 3)), CertEntry("b", 6, (1, 5))),
            ["a: value 4 outside the quotient window"],
        ),
        (
            5,
            7,
            (CertEntry("a", 5, (1, 4)), CertEntry("b", 7, (3, 4))),
            ["b: value 7 outside the quotient window"],
        ),
        (
            5,
            7,
            (CertEntry("a", 5, (1, 4)), CertEntry("c", 6, (1, 4))),
            ["c: factor values do not sum to 6"],
        ),
        (
            5,
            7,
            (CertEntry("a", 5, (1, 4)), CertEntry("c", 6, (2, 4))),
            ["c: factor value 2 is not a section value"],
        ),
    ],
    ids=["duplicate", "size", "below-lo", "at-hi", "factor-sum", "unavailable-factor"],
)
def test_certificate_check_names_a_single_defect(lo, hi, entries, defects):
    # each certificate breaks exactly one rule, so the one-pass test rejects
    # it and the defect walk names only that rule, in today's words
    assert BasisCertificate("w", lo, hi, entries).check(_SECTIONS) == defects
    # mended, the same certificate holds
    fixed = BasisCertificate(
        "w",
        lo,
        hi,
        tuple(CertEntry(f"e{v}", v, (v,) if v in _SECTIONS else (1, v - 1)) for v in range(lo, hi)),
    )
    assert fixed.check(_SECTIONS) == []


def test_certificate_check_orders_two_defects():
    # certificate-wide defects come first, then each entry's in entry order
    cert = BasisCertificate(
        "w", 5, 7, (CertEntry("a", 6, (1, 5)), CertEntry("b", 6, (2, 3)))
    )
    assert cert.check(_SECTIONS) == [
        "duplicate values",
        "b: factor values do not sum to 6",
        "b: factor value 2 is not a section value",
    ]
    late = BasisCertificate(
        "w", 5, 7, (CertEntry("a", 7, (3, 3)), CertEntry("b", 6, (1, 5)))
    )
    assert late.check(_SECTIONS) == [
        "a: value 7 outside the quotient window",
        "a: factor values do not sum to 7",
    ]


def test_certificate_entries_are_plain_tuples():
    # check() transposes the base table with zip, so each must be a plain 3-tuple
    entry = CertEntry("m1*b2", 9, (4, 5))
    assert entry == ("m1*b2", 9, (4, 5))
    label, value, factors = entry
    assert (label, value, factors) == (entry.label, entry.value, entry.factors)


def test_q_split_summands_lie_below_alpha_through_genus_14():
    # the q-split bound: every summand is strictly below alpha, so in
    # K below alpha, where the section values agree with K
    nonsymmetric = split = 0
    for s in enumerate_semigroups(14):
        if not s.genus:
            continue
        ctx = LocalContext(s)
        if ctx.d1 is None:
            continue
        nonsymmetric += 1
        if ctx.q_pairs is None:
            continue
        split += 1
        assert [q1 + q2 for q1, q2 in ctx.q_pairs] == list(range(1, ctx.r + 1))
        summands = [(q1 * ctx.beta + ctx.d1, q2 * ctx.beta + ctx.d2) for q1, q2 in ctx.q_pairs]
        assert ctx.q_sums == tuple(v for pair in summands for v in pair)
        assert all(v < ctx.alpha and v in ctx.section_values for v in ctx.q_sums)
    assert (nonsymmetric, split) == (3897, 2912)


def test_a_gap_pair_factor_outside_w_is_a_check_defect():
    # the certificates do not test d1 while they are built, and every
    # context's d1 lies in W; a certificate given a gap pair factor outside W
    # gets a defect naming it from the check instead
    ctx = ctx_for([4, 5, 11])
    assert (ctx.d1, ctx.d2) == (1, 6) and 2 not in ctx.section_values
    certs = build_certificates(ctx, 3)
    assert all(not cert.check(ctx.section_values) for cert in certs)
    power = next(cert for cert in certs if cert.name == "power-step")
    # at n = 3 the power step holds f0 = d1 * d2 times m = b3 once
    assert power.base[-1] == CertEntry("f0", 7, (1, 6))
    bad = _with_base(power, power.base[:-1] + (CertEntry("f0", 8, (2, 6)),))
    assert "b3^1*f0: factor value 2 is not a section value" in bad.check(ctx.section_values)


def test_a_replace_dropping_a_value_below_alpha_is_refused():
    # the covering reads K^n as (K below alpha)^n u [alpha, oo), so a context
    # must keep W = K below alpha
    ctx = ctx_for([4, 5, 11])
    below = ctx.section_values.exceptional
    premise = r"^section values plus the conductor ray must equal the canonical ideal$"
    for dropped in below:
        sections = ValueSet.finite(v for v in below if v != dropped)
        with pytest.raises(HypothesisGap, match=premise):
            LocalContext(ctx.semigroup, section_values=sections)
    for added in (-1, ctx.alpha - 1):
        with pytest.raises(HypothesisGap, match=premise):
            LocalContext(ctx.semigroup, section_values=ValueSet.finite([*below, added]))
    with pytest.raises(HypothesisGap, match=premise):
        LocalContext(ctx.semigroup, ValueSet.finite(below[1:]))
    # values from alpha on may be added, as in cases ii and iii
    a = ctx.alpha
    wider = LocalContext(ctx.semigroup, ValueSet.finite([*below, a, a + 2]))
    assert wider.case == "iii"
    assert verify_local_surjectivity(wider, 3, 0).ok


def test_derived_data_through_genus_14():
    # everything a context holds besides S and W is read from them; this pins
    # the facts the reading relies on, for every semigroup with 1 <= g <= 14
    nonsymmetric = 0
    for s in enumerate_semigroups(14):
        if not s.gaps:
            continue
        k = canonical_ideal(s)
        a, b = s.conductor, s.multiplicity
        assert k.min == 0 and k.threshold is not None and k.threshold <= a
        if s.is_symmetric():
            continue
        nonsymmetric += 1
        ctx = LocalContext(s)
        off_ring = [v for v in k.elements_below(a) if v not in s]
        assert ctx.d1 == min(off_ring)
        assert ctx.d2 == a - 1 - ctx.d1 and ctx.d2 in k and ctx.d2 not in s
        assert ctx.d1 <= ctx.d2
        assert (ctx.alpha, ctx.beta) == (a, b)
        assert ctx.r == a // b - 1 and ctx.p == a - (ctx.r + 1) * b
        assert ctx.case == "i"
    assert nonsymmetric == 3897


def test_certificates_not_applicable_for_symmetric():
    with pytest.raises(NotApplicable):
        build_certificates(ctx_for([2, 7]), 2)


@pytest.mark.parametrize(
    "gens, n, eps, ok",
    [([3, 4, 5], 2, 3, True), ([5, 6, 7, 9], 2, 3, True)],
)
def test_surjectivity_frozen_positive(gens, n, eps, ok):
    ctx = ctx_for(gens)
    res = verify_local_surjectivity(ctx, n, eps)
    assert res.ok is ok
    assert res.uncovered == ()


def test_surjectivity_345_window():
    # weight 2 with eps = 3 tests K + K below 2 * 3 - 3, that is 0, 1, 2
    ctx = ctx_for([3, 4, 5])
    assert n_fold(canonical_ideal(ctx.semigroup), 2).elements_below(3) == [0, 1, 2]
    assert verify_local_surjectivity(ctx, 2, 3).uncovered == ()


def test_surjectivity_synthetic_hyperelliptic_failure():
    # symmetric <2,7>: even section values only; the covering misses 7
    ctx = ctx_for([2, 7])
    res = verify_local_surjectivity(ctx, 2, 3)
    assert not res.ok
    assert res.uncovered == (7,)
    res0 = verify_local_surjectivity(ctx, 2, 0)
    assert not res0.ok
    assert 7 in res0.uncovered
    assert res0.uncovered == (7, 9, 10, 11)


def test_surjectivity_matches_bruteforce_oracle():
    for gens in ([3, 4, 5], [3, 7, 8], [5, 6, 7, 9], [4, 5, 11]):
        ctx = ctx_for(gens)
        for n in (1, 2, 3):
            eps = 2 * n - 1
            res = verify_local_surjectivity(ctx, n, eps)
            k_window = n_fold(canonical_ideal(ctx.semigroup), n).elements_below(n * ctx.alpha - eps)
            brute = brute_cover(
                set(ctx.section_values.exceptional), k_window, n, n * ctx.alpha - eps
            )
            assert list(res.uncovered) == brute


def test_minimal_epsilon_reporting():
    ctx = ctx_for([2, 7])
    # least shift that removes the uncovered odd values 7, 9, 10, 11
    assert verify_local_surjectivity(ctx, 2, 3).minimal_epsilon == 2 * 6 - 7
    # with the model's finite section values the case-(i) shift is sharp:
    # the value n*alpha - 2n + 1 always exceeds the largest n-fold sum
    for gens in ([3, 4, 5], [3, 7, 8], [4, 5, 11]):
        for n in (2, 3):
            eps = case_epsilon("i", n)
            assert verify_local_surjectivity(ctx_for(gens), n, eps).minimal_epsilon == 2 * n - 1


def census_contexts(max_genus):
    for s in enumerate_semigroups(max_genus):
        if not s.is_symmetric():
            yield LocalContext(s)


def test_census_q_decomposition_strict():
    for ctx in census_contexts(9):
        if ctx.r >= 1:
            assert len(ctx.q_sums) == 2 * len(ctx.q_pairs) == 2 * ctx.r
            assert all(v < ctx.alpha for v in ctx.q_sums)


def test_census_conductor_values_exact_run():
    for ctx in census_contexts(9):
        conductor = build_certificates(ctx, 2)[0]
        assert sorted(conductor.values()) == list(
            range(ctx.alpha, 2 * ctx.alpha - ctx.beta)
        )
        assert conductor.check(ctx.section_values) == []


def test_census_chain_counts_compose():
    n = 4
    for ctx in census_contexts(8):
        certs = build_certificates(ctx, n)
        values = [v for c in certs for v in c.values()]
        assert len(set(values)) == len(values)
        want = quotient_dim(
            ValueSet.above(ctx.alpha), ValueSet.above(n * ctx.alpha - (2 * n - 1))
        )
        assert len(values) == want
        # below-conductor part is covered without certificates
        kn = n_fold(canonical_ideal(ctx.semigroup), n)
        wn = n_fold(ctx.section_values, n)
        for v in kn.elements_below(ctx.alpha):
            assert v in wn


def test_census_case_i_covering():
    for ctx in census_contexts(8):
        for n in (1, 2, 3, 4):
            assert verify_local_surjectivity(ctx, n, 2 * n - 1).ok


def test_case_ii_iii_full_chain_counts():
    # case iii is taken once with h1 = alpha + 1 and once with h1 = alpha + 2;
    # values past alpha without alpha itself leave the point in case i
    checked = 0
    for s in enumerate_semigroups(8):
        if s.is_symmetric():
            continue
        a = s.conductor
        for tag, offsets in CASES + ABOVE:
            ctx = synthetic(s, offsets)
            assert ctx.case == tag
            for n in (2, 3, 4):
                certs = build_certificates(ctx, n)
                top = n * a - case_epsilon(tag, n)
                assert certs[0].lo == a
                assert [c.hi for c in certs[:-1]] == [c.lo for c in certs[1:]]
                assert certs[-1].hi == top
                values = [v for c in certs for v in c.values()]
                assert len(set(values)) == len(values)
                assert len(values) == quotient_dim(ValueSet.above(a), ValueSet.above(top))
                for c in certs:
                    assert c.check(ctx.section_values) == []
                if tag == "i":
                    assert verify_local_surjectivity(ctx, n, case_epsilon("i", n)).ok
                checked += 1
    assert checked == 2232


def test_unknown_case_tag_is_rejected():
    # tags still come in from outside the context, as the suites' "i"
    with pytest.raises(ValueError, match="unknown case tag"):
        case_epsilon("iv", 2)


def test_reused_power_chains_change_no_result():
    # each context builds its powers of W once and reads K^n as the window
    # [alpha, n alpha) less W^n; asked for the weights out of order, with the
    # default section values and with those of cases ii and iii, it must give
    # what fresh n-fold sumsets of K and of W give
    checked = 0
    for s in enumerate_semigroups(10):
        if s.is_symmetric():
            continue
        a = s.conductor
        k = canonical_ideal(s)
        for offsets in ((), (0,), (0, 1), (0, 2)):
            ctx = synthetic(s, offsets)
            for n in (4, 1, 6, 3, 5, 2):
                top = n * a
                wn = n_fold(ctx.section_values, n)
                missing = [v for v in n_fold(k, n).elements_below(top) if v not in wn]
                least = top - missing[0] if missing else 0
                for eps in (2 * n - 1, 1, 0):
                    uncovered = tuple(v for v in missing if v < top - eps)
                    assert verify_local_surjectivity(ctx, n, eps) == SurjectivityCheck(
                        not uncovered, n, eps, uncovered, least
                    )
                    checked += 1
    assert checked == 411 * 4 * 6 * 3


def test_a_covering_builds_no_power_of_k(monkeypatch):
    # weights 1..4 on a fresh context: W^2, W^3 and W^4, one sumset each, each
    # step adding W; asking again builds nothing
    calls = []
    real = valueset_mod.sumset

    def counted(a, b):
        calls.append(b)
        return real(a, b)

    monkeypatch.setattr(valueset_mod, "sumset", counted)
    for gens in ([3, 4, 5], [4, 5, 11], [5, 6, 7, 9], [6, 7, 8, 9, 10]):
        ctx = ctx_for(gens)
        calls.clear()
        for _ in range(2):
            for n in (1, 2, 3, 4):
                verify_local_surjectivity(ctx, n, case_epsilon("i", n))
        assert len(calls) == 3
        assert all(b is ctx.section_values for b in calls)


def test_power_weight_must_be_positive():
    ctx = ctx_for([3, 4, 5])
    with pytest.raises(ValueError):
        verify_local_surjectivity(ctx, 0, 0)


def test_negative_epsilon_is_rejected():
    # the one pass reads values below n*alpha only, so a larger bound is refused
    ctx = ctx_for([3, 4, 5])
    for n in (1, 2, 3):
        with pytest.raises(ValueError, match="epsilon"):
            verify_local_surjectivity(ctx, n, -1)


@pytest.mark.parametrize(
    "epsilon, name", [(True, "bool"), (1.5, "float"), (Fraction(1), "Fraction"), ("1", "str")]
)
def test_an_epsilon_that_is_not_an_int_is_refused(epsilon, name):
    # True ran as 1 and came back as true in the JSON; 1.5 failed deep inside
    ctx = ctx_for([4, 5, 11])
    with pytest.raises(TypeError, match=f"^epsilon must be an int, not {name}$"):
        verify_local_surjectivity(ctx, 2, epsilon)


# -- structured power steps against flat tables ---------------------------------


def _flat(cert):
    """The same certificate with its entries listed one by one."""
    return BasisCertificate(cert.name, cert.lo, cert.hi, cert.entries)


def _with_base(cert, base):
    """``cert`` made again by its constructor with another base table."""
    return BasisCertificate(cert.name, cert.lo, cert.hi, base, cert.mul_label, cert.mul, cert.exponents)


def _without(section_values, value):
    return ValueSet.finite(v for v in section_values.exceptional if v != value)


def _mutations(cert, section_values):
    """Power steps that each break one rule in the base table, with their section values.

    The base's first item with entries is moved or repeated; a grid row is
    moved by its row value, so that its first product is the moved value.
    """
    base = cert.base
    k, first = next((k, e) for k, e in enumerate(base) if type(e) is not GridRow or e.cols.count)
    # the first power puts this value just below the window
    low = cert.lo - cert.mul - 1
    moved = first._replace(value=low - first.cols.least if type(first) is GridRow else low)
    off = base[-1]._replace(factors=base[-1].factors[:-1] + (base[-1].factors[-1] + 1,))
    return [
        (_with_base(cert, base[:k] + (moved,) + base[k + 1:]), section_values),
        (_with_base(cert, base + (first,)), section_values),
        (cert, _without(section_values, cert.mul)),
        (_with_base(cert, base[:-1] + (off,)), section_values),
    ]


def _structured_cases():
    """A context for every non-symmetric g <= 9 in case i, and in ii and iii
    through section values, as in test_case_ii_and_iii_certificates."""
    for s in enumerate_semigroups(9):
        if s.is_symmetric():
            continue
        yield LocalContext(s)
        for _, offsets in CASES:
            yield synthetic(s, offsets)


def test_structured_power_step_matches_its_flat_table():
    checked = mutated = 0
    for ctx in _structured_cases():
        for n in range(3, 7):
            power = build_certificates(ctx, n)[-1]
            assert power.exponents == range(1, n - 1)
            flat = _flat(power)
            assert power.values() == flat.values()
            assert power.labelled_values() == [(e.label, e.value) for e in flat.entries]
            assert power.size == flat.size == len(flat.entries)
            assert power.value_bits == flat.value_bits
            assert power.check(ctx.section_values) == flat.check(ctx.section_values) == []
            checked += 1
            if n not in (3, 6):
                continue  # the shortest and the longest power step get the mutants
            for bad, sections in _mutations(power, ctx.section_values):
                defects = bad.check(sections)
                assert defects and defects == _flat(bad).check(sections)
                mutated += 1
    assert (checked, mutated) == (3632, 7264)


def _step_mutations(cert, section_values):
    """(kind, certificate, section values) of conductor or square steps that each break one rule.

    Each factor a step is built from goes missing in turn: the row value and
    the first column of every non-empty grid row (an m_i, h0 or b_(beta-1),
    and a b_j), and the first factor of every flat entry (a q-split summand,
    or h1), each distinct value once.  The first non-empty row is repeated, and moved
    so that its first product lies just below the window.
    """
    removed = {}
    for item in cert.base:
        if type(item) is GridRow:
            if item.cols.count:
                removed.setdefault(item.value, "row value")
                removed.setdefault(item.cols.least, "column")
        else:
            removed.setdefault(item.factors[0], "flat factor")
    out = [(kind, cert, _without(section_values, v)) for v, kind in removed.items()]
    rows = [k for k, item in enumerate(cert.base) if type(item) is GridRow and item.cols.count]
    if rows:
        k = rows[0]
        row = cert.base[k]
        moved = row._replace(value=cert.lo - 1 - row.cols.least)
        out.append(("repeated row", _with_base(cert, cert.base + (row,)), section_values))
        out.append(
            ("row below", _with_base(cert, cert.base[:k] + (moved,) + cert.base[k + 1:]), section_values)
        )
    return out


def test_structured_conductor_and_square_steps_match_their_flat_tables():
    checked = 0
    mutated = Counter()
    for ctx in _structured_cases():
        for cert in build_certificates(ctx, 2):
            flat = _flat(cert)
            assert cert.values() == flat.values()
            assert cert.labelled_values() == [(e.label, e.value) for e in flat.entries]
            assert cert.size == flat.size == len(flat.entries)
            assert cert.value_bits == flat.value_bits
            assert cert.sorted_values() == sorted(flat.values())
            assert cert.check(ctx.section_values) == flat.check(ctx.section_values) == []
            checked += 1
            for kind, bad, sections in _step_mutations(cert, ctx.section_values):
                defects = bad.check(sections)
                assert defects and defects == _flat(bad).check(sections)
                mutated[cert.name, kind] += 1
    assert checked == 1816
    assert mutated == {
        ("conductor-step", "row value"): 1284,  # m_i
        ("conductor-step", "column"): 692,  # b_1, where it is no m_i
        ("conductor-step", "flat factor"): 548,  # a q-split summand
        ("conductor-step", "repeated row"): 876,
        ("conductor-step", "row below"): 876,
        ("square-step", "row value"): 893,  # b_(beta-1) in case i, h0 in ii and iii
        ("square-step", "column"): 863,
        ("square-step", "flat factor"): 454,  # h1
        ("square-step", "repeated row"): 893,
        ("square-step", "row below"): 893,
    }


def _column_table(a, b):
    """The column table b_j = j + alpha - beta - 1 as a tuple of (f"b{j}", value) pairs."""
    return tuple((f"b{j}", j + a - b - 1) for j in range(1, b))


def _assert_run_is_table(cols, pairs):
    """A column run reads as the (label, value) table: bits, count, iteration."""
    values = [v for _, v in pairs]
    least = min(values, default=None)
    mask = 0
    for v in values:
        mask |= 1 << (v - least)
    assert type(cols) is Columns
    assert cols.bits == (least, mask)
    assert cols.count == len(pairs)
    assert tuple(cols) == pairs


def test_column_runs_read_as_their_tables_through_genus_14():
    # the grids depend on the semigroup only through alpha and beta
    shapes = set()
    for s in enumerate_semigroups(14):
        if s.is_symmetric() or (s.conductor, s.multiplicity) in shapes:
            continue
        shapes.add((s.conductor, s.multiplicity))
        a, b = s.conductor, s.multiplicity
        table = _column_table(a, b)
        for tag, offsets in (("i", ()),) + CASES:
            ctx = synthetic(s, offsets)
            assert ctx.case == tag
            conductor, square = build_certificates(ctx, 2)
            rows = [item for item in conductor.base if type(item) is GridRow]
            # m_1 .. m_r take every column, the top row m_(r+1) takes b_1 .. b_p
            runs = [table] * ctx.r + ([table[:ctx.p]] if ctx.p else [])
            assert [row.value for row in rows] == [i * b for i in range(1, len(runs) + 1)]
            for row, pairs in zip(rows, runs, strict=True):
                _assert_run_is_table(row.cols, pairs)
            # b_(beta-1) times b_3 .. in case i, h0 times b_1 .. in cases ii and iii
            row = square.base[0]
            if tag == "i":
                assert (row.label, row.value) == table[-1]
                _assert_run_is_table(row.cols, table[2:])
            else:
                assert (row.label, row.value) == ("h0", a)
                _assert_run_is_table(row.cols, table)
            if tag == "iii":
                h1 = a + offsets[-1]
                label, bj = table[a + b - h1 - 1]
                assert square.base[1:] == (CertEntry(f"h1*{label}", h1 + bj, (h1, bj)),)
            else:
                assert len(square.base) == 1
    assert len(shapes) == 195


def test_hand_made_grids_name_their_defects_like_flat_tables():
    cols = Columns(1, 2, 3)  # b1 = 3, b2 = 4
    sections = ValueSet.finite([1, 2, 3, 4])

    def grid(*rows):
        return BasisCertificate("w", 4, 8, tuple(GridRow(f"x{v}", v, cols) for v in rows))

    assert grid(1, 3).values() == (4, 5, 6, 7)
    assert grid(1, 3).check(sections) == []
    # rows 1 and 2 share the value 5
    repeated = grid(1, 2)
    assert repeated.value_bits == _flat(repeated).value_bits == (4, 0b111)
    assert repeated.check(sections) == _flat(repeated).check(sections) == ["duplicate values"]
    # row 4 reaches 8, past the window
    above = grid(1, 4)
    assert above.check(sections) == _flat(above).check(sections) == [
        "x4*b2: value 8 outside the quotient window"
    ]
    # row 0 starts at 3, below it; the bits are then read from the values
    below = grid(0, 3)
    assert below.value_bits == _flat(below).value_bits == (3, 0b11011)
    assert below.check(sections) == _flat(below).check(sections) == [
        "x0*b1: value 3 outside the quotient window",
        "x0*b1: factor value 0 is not a section value",
        "x0*b2: factor value 0 is not a section value",
    ]
    # a grid row's value is its factor sum, so the row value is a factor
    assert grid(1, 3).check(ValueSet.finite([2, 3, 4])) == [
        "x1*b1: factor value 1 is not a section value",
        "x1*b2: factor value 1 is not a section value",
    ]


def test_negative_factors_are_decided_by_the_flat_rules():
    # the factor mask starts at 0, so a negative factor takes the flat walk
    cols = Columns(1, 2, 3)
    cert = BasisCertificate("w", 2, 4, (GridRow("x", -1, cols),))
    assert cert.check(ValueSet.finite([-1, 3, 4])) == []
    assert cert.check(ValueSet.finite([3, 4])) == _flat(cert).check(ValueSet.finite([3, 4])) == [
        "x*b1: factor value -1 is not a section value",
        "x*b2: factor value -1 is not a section value",
    ]
    flat = BasisCertificate("w", 2, 3, (CertEntry("a", 2, (-1, 3)),))
    assert flat.check(ValueSet.finite([-1, 3])) == []


def test_columns_carry_their_value_mask():
    assert Columns(1, 0, 5).bits == (None, 0)
    assert Columns(3, 3, 7).bits == (7, 0b111)
    run = Columns(3, 2, 7)
    assert (run.count, list(run)) == (2, [("b3", 7), ("b4", 8)])
    assert list(Columns(1, 0, 5)) == []
    assert run == Columns(3, 2, 7) and hash(run) == hash(Columns(3, 2, 7))
    assert run != Columns(4, 2, 7) and run != (("b3", 7), ("b4", 8))


def test_unavailable_multiplier_is_named_where_the_base_does_not_use_it():
    # every base factor is a section value and m = 2 is not
    base = (CertEntry("a", 2, (1, 1)), CertEntry("b", 3, (1, 1, 1)))
    cert = BasisCertificate("w", 2, 6, base, "m", 2, range(2))
    sections = ValueSet.finite([1])
    assert cert.values() == (2, 3, 4, 5)
    assert cert.check(sections) == _flat(cert).check(sections) == [
        "m^1*a: factor value 2 is not a section value",
        "m^1*b: factor value 2 is not a section value",
    ]
    assert cert.check(ValueSet.finite([1, 2])) == []


def test_power_step_entries_keep_their_order_and_labels():
    conductor, square, power = build_certificates(ctx_for([4, 5, 11]), 4)
    # the power step multiplies the rows and entries of the two steps, then f0
    f0 = CertEntry("f0", 7, (1, 6))
    assert power.base == conductor.base + square.base + (f0,)
    assert (power.mul_label, power.mul, power.exponents) == ("b3", 6, range(1, 3))
    assert [e.label for e in power.entries[:7]] == [
        "b3^1*m1*b1", "b3^1*m1*b2", "b3^1*m1*b3", "b3^1*f1", "b3^1*b3*b3", "b3^1*f0",
        "b3^2*m1*b1",
    ]
    assert power.entries[6] == CertEntry("b3^2*m1*b1", 20, (4, 4, 6, 6))
    assert power.entries[:6] == tuple(
        CertEntry("b3^1*" + label, value + 6, factors + (6,))
        for label, value, factors in conductor.entries + square.entries + (f0,)
    )


# -- mask coverings against the list definition --------------------------------


def _listed_covering(ctx, n, epsilon):
    """(ok, uncovered, minimal epsilon) from listed values, as the verdict was once read."""
    top = n * ctx.alpha
    kn, wn = n_fold(canonical_ideal(ctx.semigroup), n), n_fold(ctx.section_values, n)
    missing = [v for v in kn.elements_below(top) if v not in wn]
    uncovered = tuple(v for v in missing if v < top - epsilon)
    return not uncovered, uncovered, top - missing[0] if missing else 0


def test_mask_coverings_match_the_list_definition():
    # symmetric semigroups included: <2, 2k+1> and epsilon = 0 fail to cover
    failing = 0
    for s in enumerate_semigroups(10):
        if not s.gaps:
            continue
        ctx = LocalContext(s)
        for n in range(1, 7):
            for eps in sorted({0, 1, 2 * n - 1}):
                res = verify_local_surjectivity(ctx, n, eps)
                assert (res.n, res.epsilon) == (n, eps)
                assert (res.ok, res.uncovered, res.minimal_epsilon) == _listed_covering(ctx, n, eps)
                failing += not res.ok
    assert failing > 0
