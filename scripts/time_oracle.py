#!/usr/bin/env python3
"""Time the linear-algebra Noether oracle on a few heavy curves.

Usage:
    PYTHONPATH=src python scripts/time_oracle.py

Runs ``max_noether_holds`` five times per case, each run from cold caches
(every lru cache of ``maxnoether.curves`` is cleared before it), and prints
the verdict, the dimension of H^0(omega^n), and the least and the median of
the five times in milliseconds, by wall clock (``time.perf_counter``) and,
after ``cpu``, by the process's CPU time (``time.process_time``).  The wall
clock also counts the time the process waits while other processes hold the
CPU; the CPU time does not, though it still moves with the host's speed.
The Noether cases are:

- two <10,11> branches at 0 and 1, n = 2, whose rows are dense at both centers;
- one ordinary branch <300, ..., 599> at 0, n = 2, whose rows are monomials;
- one ordinary branch <600, ..., 1199> at 0, n = 2;
- one branch <7,8> at 0, n = 40, which builds the section space of every
  weight from 1 to 40 on the way;
- the same branch <7,8> at 7/3, n = 10: the check moves a lone branch to 0
  first (``curves._affine_frame``), so its rows are monomials as at 0;
- one ordinary branch <20, ..., 39> at 0, n = 120 (ambient 2,161, near
  MAX_AMBIENT), which builds the section and product spaces of every weight
  from 1 to 120, all from monomial rows;
- one branch <2,41> at 7/3, n = 3, which is hyperelliptic, so its products
  miss the sections and are eliminated exactly, on monomial rows once the
  branch is moved to 0;
- three branches <3,4,5> at 0, <3,5,7> at 7/3 and <4,5,6,7> at -5/2, n = 40,
  where only <3,5,7> excludes orders past weight 1, and the check moves it
  to 0 (and <3,4,5> to 1, <4,5,6,7> to 29/14);
- three <3,5,7> branches at 0, 7/3 and -5/2, n = 40, each excluding an order
  at every weight: the check moves them to 0, 1 and -15/14, so the third
  branch's constraint columns are jets at a rational center, dense big
  integers that no affine frame removes;
- two <3,4,5> branches at 0 and 1, n = 160, which builds the product span of
  every weight from 1 to 160, each from dense rows at the center 1;
- two <7,8> branches at 0 and 1, n = 4: both branches are symmetric and
  N0 = 3, so the check builds the spaces of weight 3 and searches for a
  pencil on its two Gorenstein branches, where a slow search would show;
- <4,5,6> at 0 and <3,4,5> at 1, n = 4 (N0 = 2): the lowest-pivot row of
  S_1 vanishes at the non-symmetric center 1, so the search certifies the
  pencil with the highest-pivot row as h1;
- <3,4,5> at 2/5 and <3,5,7> at 0, n = 3 (N0 = 2): the first weight past
  N0, so a cold run builds the spaces of weight 2 and runs the search, whose
  cost shows here.

Past N0 a certified base-point-free pencil decides a curve of two or more
branches at a weight where some branch excludes an order
(``curves.find_pencil``, see the ``curves`` module docstring), so these
cases build no product span past N0: three <3,5,7> at n = 40 and the mixed
three-branch case at n = 40 (N0 = 2 on both, and <3,5,7> excludes an order
at every weight), two <7,8> at n = 4 (N0 = 3), <4,5,6> and <3,4,5> at
n = 4 and <3,4,5> and <3,5,7> at n = 3 (N0 = 2, and <4,5,6> and <3,5,7>
exclude an order at every weight), and the two <10,11> branches only from
n = 4 on (N0 = 3), not at n = 2.  Two <3,4,5> exclude no order past
weight 1, and the lone branches are lone: they keep the exact check at
every weight.

Then it runs ``check_resolution_quotient`` the same way, and prints the same
line with the branch resolved after the curve's name.  Past N0 it takes the
products to be the sections from the pencil and keeps its jet test:

- two <10,11> branches at 0 and 1, branch 1 resolved, n = 2: the product
  certificate of the first case, then the resolved sections of <10,11> at 0
  tested against the constraints of both centers;
- three <3,5,7> branches at 0, 7/3 and -5/2, branch 1 resolved, n = 40:
  the check moves them to 0, 1 and -15/14, and the resolved sections are
  tested against the jets of the branches at 0 and -15/14, which at -15/14
  are dense big integers.
"""

import argparse
import statistics
import time
from fractions import Fraction

from maxnoether import curves
from maxnoether.curves import (
    Branch,
    RationalCurveModel,
    check_resolution_quotient,
    max_noether_holds,
)
from maxnoether.semigroup import NumericalSemigroup

RUNS = 5


def _curve(*branches):
    return RationalCurveModel(
        tuple(Branch(Fraction(c), NumericalSemigroup.from_generators(g)) for c, g in branches)
    )


CASES = (
    ("<10,11>@0 <10,11>@1", _curve((0, (10, 11)), (1, (10, 11))), 2),
    ("<300,...,599>@0", _curve((0, range(300, 600))), 2),
    ("<600,...,1199>@0", _curve((0, range(600, 1200))), 2),
    ("<7,8>@0", _curve((0, (7, 8))), 40),
    ("<7,8>@7/3", _curve((Fraction(7, 3), (7, 8))), 10),
    ("<20,...,39>@0", _curve((0, range(20, 40))), 120),
    ("<2,41>@7/3", _curve((Fraction(7, 3), (2, 41))), 3),
    (
        "<3,4,5>@0 <3,5,7>@7/3 <4,5,6,7>@-5/2",
        _curve((0, (3, 4, 5)), (Fraction(7, 3), (3, 5, 7)), (Fraction(-5, 2), (4, 5, 6, 7))),
        40,
    ),
    (
        "<3,5,7>@0 <3,5,7>@7/3 <3,5,7>@-5/2",
        _curve((0, (3, 5, 7)), (Fraction(7, 3), (3, 5, 7)), (Fraction(-5, 2), (3, 5, 7))),
        40,
    ),
    ("<3,4,5>@0 <3,4,5>@1", _curve((0, (3, 4, 5)), (1, (3, 4, 5))), 160),
    ("<7,8>@0 <7,8>@1", _curve((0, (7, 8)), (1, (7, 8))), 4),
    ("<4,5,6>@0 <3,4,5>@1", _curve((0, (4, 5, 6)), (1, (3, 4, 5))), 4),
    ("<3,4,5>@2/5 <3,5,7>@0", _curve((Fraction(2, 5), (3, 4, 5)), (0, (3, 5, 7))), 3),
)

# (name, curve, index of the resolved branch, n)
RESOLUTION_CASES = (
    ("<10,11>@0 <10,11>@1 resolve 1", _curve((0, (10, 11)), (1, (10, 11))), 1, 2),
    (
        "<3,5,7>@0 <3,5,7>@7/3 <3,5,7>@-5/2 resolve 1",
        _curve((0, (3, 5, 7)), (Fraction(7, 3), (3, 5, 7)), (Fraction(-5, 2), (3, 5, 7))),
        1,
        40,
    ),
)


def _cold_run(check, *args):
    for fn in vars(curves).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    t0, c0 = time.perf_counter(), time.process_time()
    result = check(*args)
    return result, time.perf_counter() - t0, time.process_time() - c0


def _report(name, n, runs, holds):
    wall = [1000 * w for _, w, _ in runs]
    cpu = [1000 * c for _, _, c in runs]
    verdict = "holds" if holds else "fails"
    print(
        f"{name:38} n={n:<3} {verdict}  sections_dim {runs[0][0].sections_dim:5}"
        f"  min {min(wall):11.3f} ms  median {statistics.median(wall):11.3f} ms"
        f"  cpu min {min(cpu):11.3f} ms  median {statistics.median(cpu):11.3f} ms"
    )


def main() -> None:
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    for name, curve, n in CASES:
        runs = [_cold_run(max_noether_holds, curve, n) for _ in range(RUNS)]
        _report(name, n, runs, runs[0][0].holds)
    for name, curve, index, n in RESOLUTION_CASES:
        runs = [_cold_run(check_resolution_quotient, curve, index, n) for _ in range(RUNS)]
        _report(name, n, runs, runs[0][0].ok)


if __name__ == "__main__":
    main()
