"""Verification suites: corpus generation, dual-route checks, report streams.

Every suite pits a combinatorial prediction against an independent route
(brute-force enumeration, residue pairing, or exact linear algebra) and emits
one report per check in a canonical order, so corpus output is reproducible
byte for byte.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable, Iterable

from . import blowup as blowup_mod
from .curves import (
    RationalCurveModel,
    check_hyperelliptic_resolution,
    check_resolution_quotient,
    excluded_exponents,
    global_sections,
    max_noether_holds,
    numerator_degree_bound,
    products_span,
    _subspace_orders,
)
from .local import (
    LocalContext,
    build_certificates,
    minimal_epsilon,
    q_decomposition,
    verify_local_surjectivity,
)
from .reports import VerificationReport
from .semigroup import NumericalSemigroup, enumerate_semigroups
from .valueset import ValueSet, canonical_ideal, dualizing_values, n_fold, quotient_dim


@dataclass(frozen=True)
class SuiteParams:
    """Bounds shared by the suites; unset fields fall back to suite defaults."""

    max_genus: int | None = None
    max_n: int | None = None

    def genus(self, default: int) -> int:
        return self.max_genus if self.max_genus is not None else default

    def n(self, default: int) -> int:
        return self.max_n if self.max_n is not None else default


# -- independent oracles -----------------------------------------------------


def bruteforce_gap_census(max_genus: int) -> list[tuple[int, ...]]:
    """All gap sets of numerical semigroups with genus <= max_genus, by raw search.

    Every semigroup of genus g has all gaps in [1, 2g - 1], so trying each
    g-subset and testing additive closure of the complement is exhaustive.
    Independent of the generator-tree walk.
    """
    found: list[tuple[int, ...]] = []
    for g in range(max_genus + 1):
        if g == 0:
            found.append(())
            continue
        for gaps in combinations(range(1, 2 * g), g):
            gapset = set(gaps)
            top = gaps[-1]
            members = [m for m in range(1, top) if m not in gapset]
            ok = True
            for i, x in enumerate(members):
                for y in members[i:]:
                    if x + y > top:
                        break
                    if x + y in gapset:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(gaps)
    return found


def residue_window_values(s: NumericalSemigroup) -> list[int]:
    """Dualizing values on [-2a-2, 2a] from the residue pairing alone.

    An exponent survives iff pairing against every monomial of the local ring
    in the window leaves no residue, i.e. no member s gives s + e = -1.
    """
    a = s.conductor
    members = s.elements_below(2 * a + 2)
    return [
        e for e in range(-2 * a - 2, 2 * a + 1) if all(m + e != -1 for m in members)
    ]


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


class _Run:
    """The report stream of one suite run, in emission order.

    Each report's ``elapsed`` is the time since the previous report of the
    run, or since the run started, so the times add up to the run's time.
    ``VerificationReport`` is looked up in this module at call time, because
    the benchmark workloads rebind it to mark where each check ends.
    """

    def __init__(self, suite: str):
        self.suite = suite
        self.reports: list[VerificationReport] = []
        self._last = time.perf_counter()

    def add(self, check, input_, predicted, oracle, passed, witness=None) -> None:
        now = time.perf_counter()
        self.reports.append(
            VerificationReport(
                self.suite, check, input_, predicted, oracle, passed, witness, now - self._last
            )
        )
        self._last = now

    def expect(self, check, input_, ok: bool, witness=None) -> None:
        """A check predicted to hold; its witness is kept only when it fails."""
        self.add(check, input_, True, ok, ok, None if ok else witness)


def suite_eq4_oracle(params: SuiteParams) -> list[VerificationReport]:
    """Dualizing-value formula against the residue pairing, over a full census."""
    max_genus = params.genus(8)
    run = _Run("eq4-oracle")
    tree = list(enumerate_semigroups(max_genus))
    tree_gaps = sorted(s.gaps for s in tree)
    brute = sorted(bruteforce_gap_census(max_genus))
    run.add(
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
        run.add(
            "dualizing-window",
            s.to_json(),
            predicted,
            oracle,
            passed,
            None if passed else sorted(set(predicted) ^ set(oracle)),
        )
    return run.reports


def suite_local_lemma(params: SuiteParams) -> list[VerificationReport]:
    """Value-level covering machinery over every non-symmetric semigroup."""
    max_genus = params.genus(10)
    max_n = params.n(4)
    run = _Run("local-lemma")
    for s in _nonsymmetric(max_genus):
        ctx = LocalContext.for_semigroup(s)
        a, b = ctx.alpha, ctx.beta
        info = s.to_json()
        if ctx.r >= 1:
            qd = q_decomposition(ctx)
            ineqs = qd.inequalities(a, b)
            passed = qd.all_strict(a, b)
            run.add(
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
        got_values = sorted(conductor.values())
        defects = [d for c in certs for d in c.check(ctx.section_values)]
        passed = got_values == expected_values and not defects
        run.add(
            "conductor-chain-certificates",
            info,
            expected_values,
            got_values,
            passed,
            defects or None,
        )
        chain_values = [v for c in certs for v in c.values()]
        eps = 2 * max(max_n, 2) - 1
        chain_dim = quotient_dim(ValueSet.above(a), ValueSet.above(max(max_n, 2) * a - eps))
        passed = len(set(chain_values)) == len(chain_values) == chain_dim
        duplicates = sorted(
            {v for v in chain_values if chain_values.count(v) > 1}
        )
        run.add(
            "chain-composition",
            info,
            chain_dim,
            len(chain_values),
            passed,
            None if passed else {"duplicates": duplicates},
        )
        for n in range(1, max_n + 1):
            res = verify_local_surjectivity(ctx, n, 2 * n - 1)
            run.add(
                f"case-i-covering-n{n}",
                info,
                True,
                res.ok,
                res.ok,
                {"uncovered": list(res.uncovered)} if not res.ok else
                {"minimal_epsilon": minimal_epsilon(ctx, n)},
            )
    return run.reports


def suite_blowup(params: SuiteParams) -> list[VerificationReport]:
    """Blowup stabilization and the almost Gorenstein equivalences."""
    max_genus = params.genus(10)
    run = _Run("blowup")
    for s in _nonsymmetric(max_genus):
        info = s.to_json()
        ana = blowup_mod.analyze(s)
        checks = blowup_mod.nearly_gorenstein_local_checks(s)
        run.add(
            "gap-one-iff-almost-gorenstein",
            info,
            checks.almost_gorenstein,
            checks.gap_one,
            checks.consistent,
            checks.to_json() if not checks.consistent else None,
        )
        bound = quotient_dim(ana.blowup_values, ana.canonical) + 1
        passed = ana.stabilization_index <= bound
        run.add(
            "stabilization-bound",
            info,
            f"<= {bound}",
            ana.stabilization_index,
            passed,
            None if passed else {"index": ana.stabilization_index, "bound": bound},
        )
        drop = blowup_mod.genus_drop(s)
        run.add(
            "genus-drop",
            info,
            ">= 2",
            drop,
            drop >= 2,
            None if drop >= 2 else {"drop": drop},
        )
        eta_ok = ana.eta < s.genus
        run.add(
            "eta-below-genus",
            info,
            f"< {s.genus}",
            ana.eta,
            eta_ok,
            None if eta_ok else {"eta": ana.eta, "genus": s.genus},
        )
    return run.reports


def _single_branch_value_sets_agree(s: NumericalSemigroup, n: int) -> tuple[bool, dict]:
    """Linear-algebra value sets versus pure sumset predictions, single branch."""
    curve = RationalCurveModel.from_semigroups([s])
    k = canonical_ideal(s)
    a = s.conductor
    w = ValueSet.finite(k.elements_below(a))
    top = n * (a - 2)
    predicted_sections = n_fold(k, n).elements_below(top + 1)
    predicted_products = n_fold(w, n).elements_below(top + 1)
    center = curve.branches[0].center
    oracle_sections = sorted(_subspace_orders(global_sections(curve, n), center))
    oracle_products = sorted(_subspace_orders(products_span(curve, n), center))
    ok = predicted_sections == oracle_sections and predicted_products == oracle_products
    detail = {
        "sections_predicted": predicted_sections,
        "sections_oracle": oracle_sections,
        "products_predicted": predicted_products,
        "products_oracle": oracle_products,
    }
    return ok, detail


def suite_noether_single(params: SuiteParams) -> list[VerificationReport]:
    """Surjectivity on one-singularity models: sumsets and linear algebra must agree."""
    max_genus = params.genus(8)
    max_n = params.n(4)
    run = _Run("noether-single")
    for s in enumerate_semigroups(max_genus, min_multiplicity=3):
        if s.genus < 2:
            continue
        # No section of the one-singularity model attains local value 0, so
        # the covering bound is always the case-(i) one; below the numerator
        # degree cap it is exactly the surjectivity question.
        ctx = LocalContext.for_semigroup(s)
        curve = RationalCurveModel.from_semigroups([s])
        info = s.to_json()
        for n in range(2, max_n + 1):
            predicted = verify_local_surjectivity(ctx, n, 2 * n - 1).ok
            check = max_noether_holds(curve, n)
            agree, detail = _single_branch_value_sets_agree(s, n)
            passed = predicted and check.holds and agree
            run.add(
                f"max-noether-n{n}",
                info,
                predicted,
                check.holds,
                passed,
                None if passed else {"defect": check.describe(), **detail},
            )
    return run.reports


def suite_noether_multi(params: SuiteParams) -> list[VerificationReport]:
    """Surjectivity on every multi-branch model whose branches all have multiplicity >= 3."""
    max_n = params.n(4)
    run = _Run("noether-multi")
    for curve in _curve_corpus(_MULTI_MENU, 6):
        info = curve.to_json()
        for n in range(2, max_n + 1):
            check = max_noether_holds(curve, n)
            run.expect(f"max-noether-n{n}", info, check.holds, check.describe())
    return run.reports


def suite_resolution(params: SuiteParams) -> list[VerificationReport]:
    """Resolution quotients and the hyperelliptic resolved-curve case."""
    max_n = params.n(3)
    run = _Run("resolution")
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
                run.expect(f"resolution-quotient-branch{index}-n{n}", info, res.ok, res.to_json())
    hyper = RationalCurveModel.from_semigroups(
        [NumericalSemigroup.from_generators((2, 5)), NumericalSemigroup.from_generators((3, 4, 5))]
    )
    info = hyper.to_json()
    for n in range(2, max_n + 1):
        ok = check_hyperelliptic_resolution(hyper, 1, n)
        run.expect(f"hyperelliptic-resolution-n{n}", info, ok)
        check = max_noether_holds(hyper, n)
        run.expect(
            f"max-noether-with-gorenstein-cusp-n{n}", info, check.holds, check.describe()
        )
    return run.reports


def suite_hyperelliptic_negative(params: SuiteParams) -> list[VerificationReport]:
    """Negative control: the multiplicity-2 family must fail by exactly genus - 2.

    Pass semantics are inverted per line: a report passes when the expected
    failure, with the expected defect, is observed.
    """
    run = _Run("hyperelliptic-negative")
    for k in (3, 4, 5):
        s = NumericalSemigroup.from_generators((2, 2 * k + 1))
        curve = RationalCurveModel.from_semigroups([s])
        info = curve.to_json()
        check = max_noether_holds(curve, 2)
        expected_gap = s.genus - 2
        passed = (not check.holds) and check.dimension_gap == expected_gap
        if k == 3:
            passed = passed and check.missing_values == (7,)
        run.add(
            f"expected-noether-failure-k{k}",
            info,
            {"holds": False, "dimension_gap": expected_gap},
            {"holds": check.holds, "dimension_gap": check.dimension_gap},
            passed,
            {"missing_values": list(check.missing_values or ())},
        )
    return run.reports


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
        pole = n * br.semigroup.conductor
        for e in excluded_exponents(br.semigroup, n):
            if not (single and e + pole > cap):
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
    ring = ValueSet.from_semigroup(s)
    return n * quotient_dim(k, ring) - quotient_dim(n_fold(k, n), ring)


def suite_dims(params: SuiteParams) -> list[VerificationReport]:
    """Dimension formulas for the dualizing powers over the mixed curve corpus.

    Two predictions are pitted against the exact oracle for n >= 2.  The
    degree count (2n-1)(g-1) - sum of the branch power defects is Riemann-Roch
    for omega^n, whose degree is n(2g-2) less one defect per branch (h^1
    vanishes for n, g >= 2); it is literally (2n-1)(g-1) when every branch is
    Gorenstein, and smaller otherwise (a single <3,4,5> cusp gives n + 1).
    The value-route count comes from the local support windows instead.
    """
    max_n = params.n(3)
    run = _Run("dims")
    for curve in _curve_corpus(_DIM_MENU, 6):
        info = curve.to_json()
        g = curve.genus
        dim1 = global_sections(curve, 1).dim
        run.add(
            "sections-dim-n1",
            info,
            g,
            dim1,
            dim1 == g,
            None if dim1 == g else {"dimension_gap": g - dim1},
        )
        if g >= 2:
            for n in range(2, max_n + 1):
                expected = (2 * n - 1) * (g - 1) - sum(
                    _power_defect(br.semigroup, n) for br in curve.branches
                )
                dim = global_sections(curve, n).dim
                run.add(
                    f"sections-dim-n{n}",
                    info,
                    expected,
                    dim,
                    dim == expected,
                    None if dim == expected else {"dimension_gap": expected - dim},
                )
                predicted = _value_route_dim(curve, n)
                run.add(
                    f"sections-dim-value-route-n{n}",
                    info,
                    predicted,
                    dim,
                    dim == predicted,
                    None if dim == predicted else {"dimension_gap": predicted - dim},
                )
    return run.reports


SUITES: dict[str, Callable[[SuiteParams], list[VerificationReport]]] = {
    "eq4-oracle": suite_eq4_oracle,
    "local-lemma": suite_local_lemma,
    "blowup": suite_blowup,
    "noether-single": suite_noether_single,
    "noether-multi": suite_noether_multi,
    "resolution": suite_resolution,
    "hyperelliptic-negative": suite_hyperelliptic_negative,
    "dims": suite_dims,
}


def run_suite(name: str, params: SuiteParams | None = None) -> list[VerificationReport]:
    """Run one named suite and return its report stream in canonical order."""
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r} (known: {known})")
    return SUITES[name](params or SuiteParams())
