#!/usr/bin/env python3
"""Run every verification suite at its default bounds and print a summary.

Usage:
    python scripts/run_all_suites.py [--out-dir reports/]

With --out-dir, each suite's canonical JSONL stream is written to
<out-dir>/<suite>.jsonl.  Exit status is nonzero when any check fails;
every suite passes at these bounds.
"""

import argparse
import sys
from pathlib import Path

from maxnoether.reports import write_jsonl
from maxnoether.suites import SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", help="write per-suite JSONL streams here")
    args = parser.parse_args()

    any_failed = False
    for name in sorted(SUITES):
        reports = run_suite(name)
        # each report is timed from the one before, so the times add up to the run
        elapsed = sum(r.elapsed for r in reports)
        failed = [r for r in reports if not r.passed]
        any_failed |= bool(failed)
        print(
            f"{name:24} {len(reports) - len(failed):5}/{len(reports):<5} passed"
            f"  {elapsed:7.2f}s"
        )
        for r in failed[:3]:
            print(f"    FAIL {r.check}: predicted {r.predicted}, oracle {r.oracle}")
        if args.out_dir:
            out = Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"{name}.jsonl", "w", encoding="utf-8") as fp:
                write_jsonl(reports, fp)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
