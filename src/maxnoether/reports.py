"""Machine-readable verification reports and their canonical JSONL encoding.

Each report records one check: what was predicted, what the independent
route computed, whether they agree, and a concrete witness on failure.  The
serialized form is canonical (sorted keys, compact separators, no volatile
fields), so identical runs produce byte-identical output.  The wall-clock
``elapsed`` field is never serialized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, IO


def jsonable(value: Any) -> Any:
    """Recursively convert library values into plain JSON data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        raise TypeError("floating point values are banned from reports")
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items)
        return [jsonable(v) for v in items]
    to_json = getattr(value, "to_json", None)
    if callable(to_json):
        return jsonable(to_json())
    return str(value)


@dataclass
class VerificationReport:
    """One verified claim: inputs, prediction, oracle value, verdict, witness.

    ``elapsed`` is the time in seconds since the previous report of the same
    suite run, or since the run started, so the times of a run add up to it.
    It is never serialized.
    """

    suite: str
    check: str
    input: Any
    predicted: Any
    oracle: Any
    passed: bool
    witness: Any = None
    elapsed: float = field(default=0.0, compare=False)

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "input": jsonable(self.input),
            "predicted": jsonable(self.predicted),
            "oracle": jsonable(self.oracle),
            "pass": self.passed,
            "witness": jsonable(self.witness),
        }

    def to_line(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def write_jsonl(reports: list[VerificationReport], fp: IO[str]) -> None:
    for report in reports:
        fp.write(report.to_line())
        fp.write("\n")
