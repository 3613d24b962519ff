#!/usr/bin/env python3
"""Time the linear-algebra Noether oracle on a few heavy curves at n = 2.

Usage:
    PYTHONPATH=src python scripts/time_oracle.py

Runs ``max_noether_holds`` once per curve, each from cold caches, and prints
the verdict, the dimension of H^0(omega^2) and the seconds it took:

- two <10,11> branches at 0 and 1, whose rows are dense at both centers;
- one ordinary branch <300, ..., 599> at 0, whose rows are monomials;
- one ordinary branch <600, ..., 1199> at 0.
"""

import time
from fractions import Fraction

from maxnoether.curves import Branch, RationalCurveModel, max_noether_holds
from maxnoether.semigroup import NumericalSemigroup


def _curve(*branches):
    return RationalCurveModel(
        tuple(Branch(Fraction(c), NumericalSemigroup.from_generators(g)) for c, g in branches)
    )


CASES = (
    ("<10,11>@0 <10,11>@1", _curve((0, (10, 11)), (1, (10, 11)))),
    ("<300,...,599>@0", _curve((0, range(300, 600)))),
    ("<600,...,1199>@0", _curve((0, range(600, 1200)))),
)


def main() -> None:
    for name, curve in CASES:
        t0 = time.perf_counter()
        check = max_noether_holds(curve, 2)
        seconds = time.perf_counter() - t0
        verdict = "holds" if check.holds else "fails"
        print(f"{name:22} n=2  {verdict}  sections_dim {check.sections_dim:5}  {seconds:7.2f} s")


if __name__ == "__main__":
    main()
