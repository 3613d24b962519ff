"""Verification suites: corpus generation, dual-route checks, report streams.

Every suite pits a combinatorial prediction against an independent route
(exhaustive enumeration, residue pairing, or exact linear algebra).  A suite
is a generator that yields one check per claim, in a canonical order, as the
tuple ``(check, input, predicted, oracle, passed, witness)``;
:func:`iter_suite` alone turns them into timed reports, so corpus output is
reproducible byte for byte, and :func:`run_suite` lists them.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable, Iterable, Iterator

from . import blowup as blowup_mod
from .curves import (
    MAX_WEIGHT,
    RationalCurveModel,
    check_hyperelliptic_resolution,
    check_resolution_quotient,
    excluded_orders,
    global_sections,
    max_noether_holds,
    numerator_degree_bound,
)
from .errors import GenusTooLarge, WeightTooLarge
from .local import (
    LocalContext,
    build_certificates,
    case_epsilon,
    verify_local_surjectivity,
)
from .reports import VerificationReport
from .semigroup import NumericalSemigroup, enumerate_semigroups
from .valueset import ValueSet, canonical_ideal, dualizing_values, n_fold, quotient_dim


# Largest --max-genus of each suite that reads one.  At its cap a suite runs
# in under a minute on a 2-core Xeon VM (`verify corpus --out`, streamed:
# local-lemma 23.4-26.8 s peaking at 58 MB, blowup 29.4-31.4 s peaking at
# 136 MB, in three runs each; noether-single 4.3-5.4 s; eq4-oracle 0.45 s, its
# census 0.03 s of that); one genus more takes ~1.7x as long, ~2x for the
# eq4-oracle census.
GENUS_CAPS = {"eq4-oracle": 14, "local-lemma": 20, "blowup": 22, "noether-single": 15}

# The suites that read a weight bound (--n); the others check fixed weights.
# The suites that read a genus bound are exactly those in GENUS_CAPS.
READS_N = frozenset({"local-lemma", "noether-single", "noether-multi", "resolution", "dims"})


@dataclass(frozen=True)
class SuiteParams:
    """Bounds shared by the suites; unset fields fall back to suite defaults."""

    max_genus: int | None = None
    max_n: int | None = None

    def __post_init__(self) -> None:
        # fail before any work, not at the first check that reaches the cap
        if self.max_n is not None and self.max_n > MAX_WEIGHT:
            raise WeightTooLarge(f"weight {self.max_n} is above MAX_WEIGHT = {MAX_WEIGHT}")

    def genus(self, default: int) -> int:
        return self.max_genus if self.max_genus is not None else default

    def n(self, default: int) -> int:
        return self.max_n if self.max_n is not None else default


# -- independent oracles -----------------------------------------------------


def bruteforce_gap_census(max_genus: int) -> list[tuple[int, ...]]:
    """All gap sets of numerical semigroups with genus <= max_genus, by exhaustive search.

    Every semigroup of genus g has all its gaps in [1, 2g - 1].  For each g
    the search decides v = 1, 2, ..., 2g - 1 in turn, member or gap; v may be
    a gap only if no two members x, y >= 1 already chosen below v sum to it.
    A branch ends when too few values remain to reach g gaps, and once it has
    g gaps every later value is a member.  The search is exhaustive because
    the closure test at each gap is exact.  A closure violation, a gap equal
    to a sum of two members below it, survives every extension of the prefix,
    so no gap set is lost by cutting there.  A member chosen later is larger
    than every earlier gap, so it never makes an earlier gap a sum; every
    violation is therefore seen when its gap is chosen.  Trying gap before
    member lists each genus in lexicographic order.

    Independent of the generator-tree walk and of the semigroup and value-set
    classes: the state is the gaps so far, the mask of members ``members``
    (bit x set iff x >= 1 is a member) and the mask ``sums`` of their
    pairwise sums, which gains ``members << v``, v included, when v becomes
    a member.
    """
    found: list[tuple[int, ...]] = []
    for g in range(max_genus + 1):
        end = 2 * g  # the values decided are 1, ..., end - 1
        stack: list[tuple[int, tuple[int, ...], int, int]] = [(1, (), 0, 0)]
        while stack:
            v, gaps, members, sums = stack.pop()
            if len(gaps) == g:
                found.append(gaps)
                continue
            if g - len(gaps) > end - v:
                continue
            grown = members | 1 << v
            stack.append((v + 1, gaps, grown, sums | grown << v))
            if not sums >> v & 1:  # popped first: the gap branch comes first
                stack.append((v + 1, gaps + (v,), members, sums))
    return found


def residue_window_values(s: NumericalSemigroup) -> list[int]:
    """Dualizing values on [-2a-2, 2a] from the residue pairing alone.

    An exponent survives iff pairing against every monomial of the local ring
    in the window leaves no residue, i.e. no member s gives s + e = -1: the
    pairing partner -1 - e is no member.
    """
    a = s.conductor
    members = set(s.elements_below(2 * a + 2))
    return [e for e in range(-2 * a - 2, 2 * a + 1) if -1 - e not in members]


# -- corpora -----------------------------------------------------------------

_DIM_MENU = ((3, 4, 5), (2, 5), (3, 5, 7), (2, 7), (3, 7, 8))
_MULTI_MENU = ((3, 4, 5), (3, 5, 7), (3, 7, 8))


def _curve_corpus(menu: tuple[tuple[int, ...], ...], max_delta: int) -> list[RationalCurveModel]:
    sgs = [NumericalSemigroup.from_generators(g) for g in menu]
    sgs.sort(key=lambda s: (s.genus, s.gaps))
    curves = []
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(sgs, size):
            if sum(s.genus for s in combo) <= max_delta:
                curves.append(RationalCurveModel.from_semigroups(combo))
    curves.sort(key=lambda c: (len(c.branches), c.genus, tuple(b.semigroup.gaps for b in c.branches)))
    return curves


def _nonsymmetric(max_genus: int) -> Iterable[NumericalSemigroup]:
    for s in enumerate_semigroups(max_genus):
        if not s.is_symmetric():
            yield s


# -- suites ------------------------------------------------------------------


def _expect(check: str, input_, ok: bool, witness=None) -> tuple:
    """A check predicted to hold; its witness is kept only when it fails."""
    return check, input_, True, ok, ok, None if ok else witness


def suite_eq4_oracle(params: SuiteParams) -> Iterator[tuple]:
    """Dualizing-value formula against the residue pairing, over a full census."""
    max_genus = params.genus(8)
    tree = list(enumerate_semigroups(max_genus))
    tree_gaps = sorted(s.gaps for s in tree)
    brute = sorted(bruteforce_gap_census(max_genus))
    yield (
        "semigroup-census",
        {"max_genus": max_genus},
        len(tree_gaps),
        len(brute),
        tree_gaps == brute,
        None if tree_gaps == brute else "gap lists differ",
    )
    for s in tree:
        predicted = dualizing_values(s).elements_below(2 * s.conductor + 1)
        oracle = residue_window_values(s)
        passed = predicted == oracle
        yield (
            "dualizing-window",
            s.to_json(),
            predicted,
            oracle,
            passed,
            None if passed else sorted(set(predicted) ^ set(oracle)),
        )


def suite_local_lemma(params: SuiteParams) -> Iterator[tuple]:
    """Value-level covering machinery over every non-symmetric semigroup."""
    max_genus = params.genus(10)
    max_n = params.n(4)
    for s in _nonsymmetric(max_genus):
        ctx = LocalContext.for_semigroup(s)
        a, b = ctx.alpha, ctx.beta
        info = s.to_json()
        if ctx.r >= 1:
            qd = ctx.q_split
            ineqs = qd.inequalities(a)
            passed = qd.all_strict(a)
            yield (
                "q-decomposition",
                info,
                [list(p) for p in qd.pairs],
                [[lhs, rhs] for lhs, rhs in ineqs],
                passed,
                None if passed else [lhs for lhs, rhs in ineqs if lhs >= rhs],
            )
        certs = build_certificates(ctx, max(max_n, 2), "i")
        conductor = certs[0]
        expected_values = list(range(a, 2 * a - b))
        got_values = conductor.sorted_values()
        defects = [d for c in certs for d in c.check(ctx.section_values)]
        passed = got_values == expected_values and not defects
        yield (
            "conductor-chain-certificates",
            info,
            expected_values,
            got_values,
            passed,
            defects or None,
        )
        eps = case_epsilon("i", max(max_n, 2))
        chain_dim = quotient_dim(ValueSet.above(a), ValueSet.above(max(max_n, 2) * a - eps))
        # the values are distinct iff the union of the value masks keeps one bit per entry
        size = sum(c.size for c in certs)
        bits = [c.value_bits for c in certs if c.size]
        origin = min((least for least, _ in bits), default=0)
        union = 0
        for least, mask in bits:
            union |= mask << (least - origin)
        passed = union.bit_count() == size == chain_dim
        yield (
            "chain-composition",
            info,
            chain_dim,
            size,
            passed,
            None if passed else {
                "duplicates": sorted(
                    v
                    for v, count in Counter(v for c in certs for v in c.values()).items()
                    if count > 1
                )
            },
        )
        for n in range(1, max_n + 1):
            res = verify_local_surjectivity(ctx, n, case_epsilon("i", n))
            yield (
                f"case-i-covering-n{n}",
                info,
                True,
                res.ok,
                res.ok,
                {"uncovered": list(res.uncovered)} if not res.ok else
                {"minimal_epsilon": res.minimal_epsilon},
            )


def suite_blowup(params: SuiteParams) -> Iterator[tuple]:
    """Blowup stabilization and the almost Gorenstein equivalences."""
    max_genus = params.genus(10)
    for s in _nonsymmetric(max_genus):
        info = s.to_json()
        ana = blowup_mod.analyze(s)
        checks = ana.almost_gorenstein_checks()
        yield (
            "gap-one-iff-almost-gorenstein",
            info,
            checks.almost_gorenstein,
            checks.gap_one,
            checks.consistent,
            checks.to_json() if not checks.consistent else None,
        )
        bound = quotient_dim(ana.blowup_values, ana.canonical) + 1
        passed = ana.stabilization_index <= bound
        yield (
            "stabilization-bound",
            info,
            f"<= {bound}",
            ana.stabilization_index,
            passed,
            None if passed else {"index": ana.stabilization_index, "bound": bound},
        )
        drop = ana.genus_drop()
        yield (
            "genus-drop",
            info,
            ">= 2",
            drop,
            drop >= 2,
            None if drop >= 2 else {"drop": drop},
        )
        eta_ok = ana.eta < s.genus
        yield (
            "eta-below-genus",
            info,
            f"< {s.genus}",
            ana.eta,
            eta_ok,
            None if eta_ok else {"eta": ana.eta, "genus": s.genus},
        )


def suite_noether_single(params: SuiteParams) -> Iterator[tuple]:
    """Surjectivity on one-singularity models, decided by two routes that must both hold.

    The value route predicts it when the n-th sumset power of the section
    values covers K^n below the case-(i) bound; the oracle is the exact
    product span against H^0(omega^n).  A failure's witness is the oracle's
    ``describe()``, which on one branch names the values the products miss.
    """
    max_genus = params.genus(8)
    max_n = params.n(4)
    for s in enumerate_semigroups(max_genus, min_multiplicity=3):
        # No section of the one-singularity model attains local value 0, so
        # the covering bound is always the case-(i) one; below the numerator
        # degree cap it is exactly the surjectivity question.
        ctx = LocalContext.for_semigroup(s)
        curve = RationalCurveModel.from_semigroups([s])
        info = s.to_json()
        for n in range(2, max_n + 1):
            predicted = verify_local_surjectivity(ctx, n, case_epsilon("i", n)).ok
            check = max_noether_holds(curve, n)
            passed = predicted and check.holds
            yield (
                f"max-noether-n{n}",
                info,
                predicted,
                check.holds,
                passed,
                None if passed else {"defect": check.describe()},
            )


def suite_noether_multi(params: SuiteParams) -> Iterator[tuple]:
    """Surjectivity on every multi-branch model whose branches all have multiplicity >= 3."""
    max_n = params.n(4)
    for curve in _curve_corpus(_MULTI_MENU, 6):
        info = curve.to_json()
        for n in range(2, max_n + 1):
            check = max_noether_holds(curve, n)
            yield _expect(f"max-noether-n{n}", info, check.holds, check.describe())


def suite_resolution(params: SuiteParams) -> Iterator[tuple]:
    """Resolution quotients and the hyperelliptic resolved-curve case."""
    max_n = params.n(3)
    pairs = [
        ((3, 4, 5), (3, 4, 5)),
        ((3, 4, 5), (3, 5, 7)),
    ]
    for gens0, gens1 in pairs:
        curve = RationalCurveModel.from_semigroups(
            [NumericalSemigroup.from_generators(gens0), NumericalSemigroup.from_generators(gens1)]
        )
        info = curve.to_json()
        for index in (0, 1):
            for n in range(2, max_n + 1):
                res = check_resolution_quotient(curve, index, n)
                yield _expect(
                    f"resolution-quotient-branch{index}-n{n}", info, res.ok, res.to_json()
                )
    hyper = RationalCurveModel.from_semigroups(
        [NumericalSemigroup.from_generators((2, 5)), NumericalSemigroup.from_generators((3, 4, 5))]
    )
    info = hyper.to_json()
    for n in range(2, max_n + 1):
        ok = check_hyperelliptic_resolution(hyper, 1, n)
        yield _expect(f"hyperelliptic-resolution-n{n}", info, ok)
        check = max_noether_holds(hyper, n)
        yield _expect(
            f"max-noether-with-gorenstein-cusp-n{n}", info, check.holds, check.describe()
        )


def suite_hyperelliptic_negative(params: SuiteParams) -> Iterator[tuple]:
    """Negative control: the multiplicity-2 family must fail by exactly genus - 2.

    Pass semantics are inverted per line: a report passes when the expected
    failure, with the expected defect, is observed.
    """
    for k in (3, 4, 5):
        s = NumericalSemigroup.from_generators((2, 2 * k + 1))
        curve = RationalCurveModel.from_semigroups([s])
        info = curve.to_json()
        check = max_noether_holds(curve, 2)
        expected_gap = s.genus - 2
        passed = (not check.holds) and check.dimension_gap == expected_gap
        if k == 3:
            passed = passed and check.missing_values == (7,)
        yield (
            f"expected-noether-failure-k{k}",
            info,
            {"holds": False, "dimension_gap": expected_gap},
            {"holds": check.holds, "dimension_gap": check.dimension_gap},
            passed,
            {"missing_values": list(check.missing_values or ())},
        )


def _value_route_dim(curve: RationalCurveModel, n: int) -> int:
    """Section-space dimension predicted from per-branch value windows alone.

    For n >= 2 and genus >= 2 the first cohomology vanishes, so the dimension
    is the numerator ambient minus the number of effective local exclusions
    (for a single branch an exclusion beyond the degree cap is vacuous).
    """
    cap = numerator_degree_bound(curve, n)
    total = cap + 1
    single = len(curve.branches) == 1
    for br in curve.branches:
        for k in excluded_orders(br.semigroup, n):
            if not (single and k > cap):
                total -= 1
    return total


def _power_defect(s: NumericalSemigroup, n: int) -> int:
    """Degree lost by the n-th dualizing power at one branch: n|K - S| - |K^n - S|.

    Writing omega = lambda * K locally, the n-th power inside the
    n-differentials is lambda^n * K^n, so deg omega^n is n deg omega less
    this defect.  Zero on a symmetric (Gorenstein) branch, where K = S.
    Value-level only: no section space or matrix is built.
    """
    k = canonical_ideal(s)
    ring = s.values
    return n * quotient_dim(k, ring) - quotient_dim(n_fold(k, n), ring)


def suite_dims(params: SuiteParams) -> Iterator[tuple]:
    """Dimension formulas for the dualizing powers over the mixed curve corpus.

    Two predictions are pitted against the exact oracle for n >= 2.  The
    degree count (2n-1)(g-1) - sum of the branch power defects is Riemann-Roch
    for omega^n, whose degree is n(2g-2) less one defect per branch (h^1
    vanishes for n, g >= 2); it is literally (2n-1)(g-1) when every branch is
    Gorenstein, and smaller otherwise (a single <3,4,5> cusp gives n + 1).
    The value-route count comes from the local support windows instead.
    """
    max_n = params.n(3)
    for curve in _curve_corpus(_DIM_MENU, 6):
        info = curve.to_json()
        g = curve.genus
        dim1 = global_sections(curve, 1).dim
        yield (
            "sections-dim-n1",
            info,
            g,
            dim1,
            dim1 == g,
            None if dim1 == g else {"dimension_gap": g - dim1},
        )
        if g >= 2:
            for n in range(2, max_n + 1):
                defects = sum(_power_defect(br.semigroup, n) for br in curve.branches)
                expected = n * (2 * g - 2) - defects - (g - 1)
                dim = global_sections(curve, n).dim
                yield (
                    f"sections-dim-n{n}",
                    info,
                    expected,
                    dim,
                    dim == expected,
                    None if dim == expected else {"dimension_gap": expected - dim},
                )
                predicted = _value_route_dim(curve, n)
                yield (
                    f"sections-dim-value-route-n{n}",
                    info,
                    predicted,
                    dim,
                    dim == predicted,
                    None if dim == predicted else {"dimension_gap": predicted - dim},
                )


SUITES: dict[str, Callable[[SuiteParams], Iterator[tuple]]] = {
    "eq4-oracle": suite_eq4_oracle,
    "local-lemma": suite_local_lemma,
    "blowup": suite_blowup,
    "noether-single": suite_noether_single,
    "noether-multi": suite_noether_multi,
    "resolution": suite_resolution,
    "hyperelliptic-negative": suite_hyperelliptic_negative,
    "dims": suite_dims,
}


def check_genus_cap(name: str, params: SuiteParams) -> None:
    """Refuse a genus bound above the suite's cap, before any of its work."""
    cap = GENUS_CAPS.get(name)
    if cap is not None and params.max_genus is not None and params.max_genus > cap:
        raise GenusTooLarge(
            f"max genus {params.max_genus} is above the {name} cap "
            f"GENUS_CAPS[{name!r}] = {cap}"
        )


def iter_suite(name: str, params: SuiteParams | None = None) -> Iterator[VerificationReport]:
    """Run one named suite, yielding its reports in canonical order as they are made.

    The suite name and the genus cap are checked at the call, before the
    first report is asked for.  Each report's ``elapsed`` is the time since
    the previous report was made, or since the first was asked for, so the
    times add up to the run's time.  ``VerificationReport`` is read from this
    module at the call, because the benchmark workloads rebind it to mark
    where each check ends.
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    params = params or SuiteParams()
    check_genus_cap(name, params)
    return _reports(name, SUITES[name], params, VerificationReport)


def _reports(name: str, suite, params: SuiteParams, make) -> Iterator[VerificationReport]:
    clock = time.perf_counter
    last = clock()
    for check, input_, predicted, oracle, passed, witness in suite(params):
        now = clock()
        yield make(name, check, input_, predicted, oracle, passed, witness, now - last)
        last = now


def run_suite(name: str, params: SuiteParams | None = None) -> list[VerificationReport]:
    """Run one named suite and return its report stream in canonical order (see :func:`iter_suite`)."""
    return list(iter_suite(name, params))
