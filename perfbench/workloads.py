"""Seeded inputs and closed-loop runners for the benchmark workloads.

Each workload has a fixed corpus per scale.  The seed only decides the
inputs the program receives: the order in which the semigroups are handed
to a suite, or the orientation of the multi-branch curves.  The program never
sees the seed.

A runner returns the report stream in run order and appends one
``time.perf_counter()`` mark per completed check to ``marks``, so check i
took ``marks[i] - marks[i - 1]`` (the first check is timed from the loop
start).  ``canonical_order`` maps a run-order stream back to the order the
program's own suites emit, which is what the recorded digests refer to.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from maxnoether import curves, reports, semigroup, suites

SCALES = {
    "single-branch": {
        "full": {"max_genus": 8, "max_n": 4},
        "smoke": {"max_genus": 4, "max_n": 3},
    },
    "multi-branch": {
        "full": {"max_delta": 6, "max_n": 6},
        "smoke": {"max_delta": 4, "max_n": 3},
    },
    "value-level": {
        "full": {"local_genus": 14, "blowup_genus": 14, "eq4_genus": 10, "max_n": 4},
        "smoke": {"local_genus": 4, "blowup_genus": 4, "eq4_genus": 4, "max_n": 3},
    },
}

# Workloads whose semigroups are shuffled within each genus only, so the heap
# and the caches grow genus by genus, as in the program's own enumeration.
# On single-branch the ~34 full collections of a growing heap (up to 0.1 s
# each) then land on checks of like size whatever the seed; shuffled across
# genera, where they landed moved the median check by ~8% between seeds.
# value-level stays shuffled across genera: ordered, its slowest checks all
# run in its last seconds, and its tail then follows the host in those seconds.
GENUS_ORDERED = ("single-branch",)

# The multi-branch curves are built from these branch types, as in the
# noether-multi suite; every branch has multiplicity 3.
MULTI_MENU = ((3, 4, 5), (3, 5, 7), (3, 7, 8))
CENTER_HEIGHT = 9


def suite_plan(workload: str, size: dict) -> list[tuple[str, suites.SuiteParams]]:
    """The program suites a suite-driven workload runs, in canonical order."""
    if workload == "single-branch":
        return [("noether-single", suites.SuiteParams(size["max_genus"], size["max_n"]))]
    if workload == "value-level":
        return [
            ("local-lemma", suites.SuiteParams(size["local_genus"], size["max_n"])),
            ("blowup", suites.SuiteParams(size["blowup_genus"])),
            ("eq4-oracle", suites.SuiteParams(size["eq4_genus"])),
        ]
    raise ValueError(f"{workload} is not driven through the program's suites")


def prepare(workload: str, scale: str, seed: int, marks: list[float]):
    """Generate the workload's inputs and return a zero-argument runner."""
    size = SCALES[workload][scale]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "multi-branch":
        corpus = multi_branch_curves(size["max_delta"], rng)
        return lambda: run_multi_branch(corpus, size["max_n"], marks)
    plan = suite_plan(workload, size)
    top = max(params.max_genus for _, params in plan)
    pool = list(semigroup.enumerate_semigroups(top))
    rng.shuffle(pool)
    if workload in GENUS_ORDERED:
        pool.sort(key=lambda s: s.genus)
    _feed_suites(pool, marks)
    return lambda: [r for name, params in plan for r in suites.run_suite(name, params)]


def _feed_suites(pool: list, marks: list[float]) -> None:
    """Hand the suites the seeded corpus and mark each report as it is made.

    The suites enumerate their corpus through their own ``enumerate_semigroups``
    binding and build every report through their ``VerificationReport``
    binding; both are replaced here, nothing else in the program is.
    """
    make_report = reports.VerificationReport
    clock = time.perf_counter

    def seeded_semigroups(max_genus, min_multiplicity=1):
        return (s for s in pool if s.genus <= max_genus and s.multiplicity >= min_multiplicity)

    def marked_report(*args, **kwargs):
        report = make_report(*args, **kwargs)
        marks.append(clock())
        return report

    suites.enumerate_semigroups = seeded_semigroups
    suites.VerificationReport = marked_report


def multi_branch_curves(max_delta: int, rng: random.Random) -> list:
    """The noether-multi corpus at rational centers, oriented by the seed.

    The centers are drawn once, from a fixed stream, among the distinct p/q
    with |p|, q <= 9.  The seed flips each curve by t -> -t, which changes no
    size of any number the program meets, so every seed does the same
    arithmetic.  The curve order is fixed: shuffling it moved peak memory by
    ~8% between seeds, with the same caches filled in another order.
    Drawing the centers per seed instead made the work itself differ by ~16%
    (quartile spread over ten seeds), which would leave little of the bound
    for the machine's noise.
    """
    menu = sorted(
        (semigroup.NumericalSemigroup.from_generators(g) for g in MULTI_MENU),
        key=lambda s: (s.genus, s.gaps),
    )
    heights = sorted(
        {
            Fraction(p, q)
            for q in range(1, CENTER_HEIGHT + 1)
            for p in range(-CENTER_HEIGHT, CENTER_HEIGHT + 1)
        }
    )
    placement = random.Random("multi-branch centers")
    corpus = []
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(menu, size):
            if sum(s.genus for s in combo) <= max_delta:
                sign = rng.choice((1, -1))
                centers = [sign * c for c in placement.sample(heights, len(combo))]
                corpus.append(
                    curves.RationalCurveModel(
                        tuple(curves.Branch(c, s) for c, s in zip(centers, combo))
                    )
                )
    return corpus


def run_multi_branch(corpus: list, max_n: int, marks: list[float]) -> list:
    """Max Noether against the value-route count, then every resolution quotient."""
    out = []
    clock = time.perf_counter
    for curve in corpus:
        info = curve.to_json()
        for n in range(2, max_n + 1):
            check = curves.max_noether_holds(curve, n)
            predicted = suites._value_route_dim(curve, n)
            passed = check.holds and check.sections_dim == predicted
            out.append(
                reports.VerificationReport(
                    "noether-multi", f"max-noether-n{n}", info, predicted,
                    check.sections_dim, passed, check.to_json(),
                )
            )
            marks.append(clock())
        if len(curve.branches) < 2:
            continue
        for index in range(len(curve.branches)):
            for n in range(2, max_n + 1):
                res = curves.check_resolution_quotient(curve, index, n)
                out.append(
                    reports.VerificationReport(
                        "resolution", f"resolution-quotient-branch{index}-n{n}", info,
                        True, res.ok, res.ok, res.to_json(),
                    )
                )
                marks.append(clock())
    return out


def canonical_order(workload: str, stream: list) -> list[int]:
    """Indices of a run-order report stream, rearranged into canonical order.

    The suites emit the reports of one semigroup together, so a stable sort
    by suite and by (genus, gaps), the program's enumeration order, restores
    the stream of an unshuffled corpus.  The multi-branch stream has no
    recorded form; its run order is kept.
    """
    if workload == "multi-branch":
        return list(range(len(stream)))
    suite_rank = {}
    for report in stream:
        suite_rank.setdefault(report.suite, len(suite_rank))

    def key(i):
        report = stream[i]
        gaps = report.input.get("gaps")
        if gaps is None:  # a corpus-wide check, such as the eq4 census
            return (suite_rank[report.suite], -1, ())
        return (suite_rank[report.suite], len(gaps), tuple(gaps))

    return sorted(range(len(stream)), key=key)
