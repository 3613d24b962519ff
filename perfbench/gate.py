"""Correctness gate: report streams against recorded or repeated digests.

A stream is summarised by its canonical JSONL: the sha256 of the whole
stream, a short digest of each line and the indices of the reports that did
not pass.  The whole-stream sha256 decides whether the bytes are right; the
per-line digests only count how many checks are wrong.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# workloads whose corpus does not depend on the seed; their streams are recorded
RECORDED = ("single-branch", "value-level")
LINE_DIGEST_CHARS = 4


def summarize(lines: list[str], passed: list[bool]) -> dict:
    """Digest summary of a canonical JSONL stream (lines without newlines)."""
    whole = hashlib.sha256()
    digests = []
    for line in lines:
        data = line.encode("utf-8") + b"\n"
        whole.update(data)
        digests.append(hashlib.sha256(data).hexdigest()[:LINE_DIGEST_CHARS])
    return {
        "checks": len(lines),
        "sha256": whole.hexdigest(),
        "line_digests": "".join(digests),
        "failing": [i for i, ok in enumerate(passed) if not ok],
    }


def count_errors(expected: dict, observed: dict) -> int:
    """Checks whose verdict or JSONL bytes differ from the expected stream."""
    k = LINE_DIGEST_CHARS
    exp, obs = expected["line_digests"], observed["line_digests"]
    exp_fail, obs_fail = set(expected["failing"]), set(observed["failing"])
    n = max(expected["checks"], observed["checks"])
    errors = sum(
        1
        for i in range(n)
        if exp[i * k : (i + 1) * k] != obs[i * k : (i + 1) * k]
        or (i in exp_fail) != (i in obs_fail)
    )
    if errors == 0 and expected["sha256"] != observed["sha256"]:
        errors = 1
    return errors


def expected_path(workload: str, scale: str) -> Path:
    return EXPECTED_DIR / f"{workload}-{scale}.json"


def load_expected(workload: str, scale: str) -> dict:
    """The stream recorded for a workload whose corpus does not depend on the seed."""
    with open(expected_path(workload, scale), encoding="utf-8") as fp:
        return json.load(fp)
