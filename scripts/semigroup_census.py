#!/usr/bin/env python3
"""Census experiment: classify semigroups by symmetry, almost-Gorenstein
count, blowup stabilization, and the sharpness of the covering shift.

Usage:
    python scripts/semigroup_census.py [--max-genus 10] [--max-n 4]

--max-genus must be at least 0 and at most the local-lemma suite's genus cap
(maxnoether.suites.GENUS_CAPS), and --max-n at least 2 and at most
maxnoether.curves.MAX_WEIGHT; other values exit 2 before any work starts.

Prints a per-genus table plus the distribution of minimal covering shifts
against the case-(i) bound 2n - 1 for the one-singularity model.
"""

import argparse
from collections import Counter

from maxnoether.blowup import analyze
from maxnoether.cli import _at_least
from maxnoether.errors import GenusTooLarge, WeightTooLarge
from maxnoether.local import LocalContext, case_epsilon, verify_local_surjectivity
from maxnoether.semigroup import enumerate_semigroups
from maxnoether.suites import SuiteParams, check_genus_cap


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--max-genus", type=_at_least(0), default=10)
    parser.add_argument("--max-n", type=_at_least(2), default=4)
    args = parser.parse_args()
    # per semigroup the census does the local-lemma coverings, so it shares
    # that suite's genus cap and the weight cap of SuiteParams
    try:
        check_genus_cap("local-lemma", SuiteParams(max_genus=args.max_genus, max_n=args.max_n))
    except (GenusTooLarge, WeightTooLarge) as exc:
        parser.error(str(exc))

    rows = Counter()
    stab = Counter()
    sharp = Counter()
    for s in enumerate_semigroups(args.max_genus):
        rows[(s.genus, "all")] += 1
        if s.is_symmetric():
            rows[(s.genus, "symmetric")] += 1
        else:
            rows[(s.genus, "almost_gorenstein")] += s.is_almost_gorenstein()
            stab[analyze(s).stabilization_index] += 1
            ctx = LocalContext(s)
            for n in range(2, args.max_n + 1):
                bound = case_epsilon("i", n)
                res = verify_local_surjectivity(ctx, n, bound)
                sharp[(n, res.minimal_epsilon == bound)] += 1

    print(f"{'genus':>5} {'all':>6} {'symmetric':>10} {'almost-G (non-sym)':>20}")
    for g in range(args.max_genus + 1):
        print(
            f"{g:>5} {rows[(g, 'all')]:>6} {rows[(g, 'symmetric')]:>10}"
            f" {rows[(g, 'almost_gorenstein')]:>20}"
        )
    print("\nblowup stabilization index distribution (non-symmetric):")
    for idx in sorted(stab):
        print(f"  index {idx}: {stab[idx]}")
    print("\nminimal covering shift equals the case-(i) bound 2n-1?")
    for n in range(2, args.max_n + 1):
        yes, no = sharp[(n, True)], sharp[(n, False)]
        print(f"  n={n}: sharp for {yes}, slack for {no}")


if __name__ == "__main__":
    main()
