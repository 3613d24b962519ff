"""Record the expected canonical streams of the seed-independent workloads.

    PYTHONPATH=src python3 perfbench/record.py

Runs the program's own suites on their own, unshuffled corpus and writes
``perfbench/expected/<workload>-<scale>.json`` for every scale.  Re-record
only when a change to the program is meant to change report bytes.
"""

from __future__ import annotations

import io
import json

import gate
import workloads
from maxnoether import reports, suites


def main() -> int:
    gate.EXPECTED_DIR.mkdir(exist_ok=True)
    for workload in gate.RECORDED:
        for scale, size in workloads.SCALES[workload].items():
            stream = [
                report
                for name, params in workloads.suite_plan(workload, size)
                for report in suites.run_suite(name, params)
            ]
            buf = io.StringIO()
            reports.write_jsonl(stream, buf)
            summary = gate.summarize(buf.getvalue().splitlines(), [r.passed for r in stream])
            with open(gate.expected_path(workload, scale), "w", encoding="utf-8") as fp:
                json.dump(summary, fp, indent=1, sort_keys=True)
                fp.write("\n")
            print(f"{workload} {scale}: {summary['checks']} checks, sha256 {summary['sha256']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
