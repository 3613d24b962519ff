#!/usr/bin/env python3
"""Time the linear-algebra Noether oracle on a few heavy curves.

Usage:
    PYTHONPATH=src python scripts/time_oracle.py

Runs ``max_noether_holds`` three times per case, each run from cold caches
(every lru cache of ``maxnoether.curves`` is cleared before it), and prints
the verdict, the dimension of H^0(omega^n), and the least and the median of
the three times in seconds:

- two <10,11> branches at 0 and 1, n = 2, whose rows are dense at both centers;
- one ordinary branch <300, ..., 599> at 0, n = 2, whose rows are monomials;
- one ordinary branch <600, ..., 1199> at 0, n = 2;
- one branch <7,8> at 0, n = 40, which builds the section space of every
  weight from 1 to 40 on the way;
- the same branch <7,8> at 7/3, n = 10, whose rows are dense: a lone branch
  away from 0 takes the generic change of basis and elimination;
- one ordinary branch <20, ..., 39> at 0, n = 120 (ambient 2,161, near
  MAX_AMBIENT), which builds the section and product spaces of every weight
  from 1 to 120, all from monomial rows;
- one branch <2,41> at 7/3, n = 3, which is hyperelliptic, so its products
  miss the sections and are eliminated exactly, at a rational center;
- three branches <3,4,5> at 0, <3,5,7> at 7/3 and <4,5,6,7> at -5/2, n = 40,
  whose constraint rows read a change of basis at two rational centers;
- two <3,4,5> branches at 0 and 1, n = 160, which builds the product span of
  every weight from 1 to 160, each from dense rows at the center 1.
"""

import statistics
import time
from fractions import Fraction

from maxnoether import curves
from maxnoether.curves import Branch, RationalCurveModel, max_noether_holds
from maxnoether.semigroup import NumericalSemigroup

RUNS = 3


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
    ("<3,4,5>@0 <3,4,5>@1", _curve((0, (3, 4, 5)), (1, (3, 4, 5))), 160),
)


def _cold_run(curve, n):
    for fn in vars(curves).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    t0 = time.perf_counter()
    check = max_noether_holds(curve, n)
    return check, time.perf_counter() - t0


def main() -> None:
    for name, curve, n in CASES:
        runs = [_cold_run(curve, n) for _ in range(RUNS)]
        check = runs[0][0]
        seconds = [s for _, s in runs]
        verdict = "holds" if check.holds else "fails"
        print(
            f"{name:38} n={n:<3} {verdict}  sections_dim {check.sections_dim:5}"
            f"  min {min(seconds):8.3f} s  median {statistics.median(seconds):8.3f} s"
        )


if __name__ == "__main__":
    main()
