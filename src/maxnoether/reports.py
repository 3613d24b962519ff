"""Machine-readable verification reports and their canonical JSONL encoding.

Each report records one check: what was predicted, what the independent
route computed, whether they agree, and a concrete witness on failure.  The
serialized form is canonical (sorted keys, compact separators, no volatile
fields), so identical runs produce byte-identical output.  The wall-clock
``elapsed`` field is never serialized.

Report fields are plain JSON data: ``None``, ``bool``, ``int``, ``str``,
lists and dicts with ``str`` keys.  Floats are banned (the program is exact),
and a value ``json`` cannot encode, such as a ``Fraction`` or a set, raises
``TypeError`` at encoding instead of being coerced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, IO


@dataclass
class VerificationReport:
    """One verified claim: inputs, prediction, oracle value, verdict, witness.

    ``input``, ``predicted``, ``oracle`` and ``witness`` must be plain JSON
    data without floats; :meth:`to_line` raises ``TypeError`` on anything
    else.  ``elapsed`` is the time in seconds since the previous report of
    the same suite run, or since the run started, so the times of a run add
    up to it.  It is never serialized.
    """

    suite: str
    check: str
    input: Any
    predicted: Any
    oracle: Any
    passed: bool
    witness: Any = None
    elapsed: float = field(default=0.0, compare=False)

    def to_line(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "check": self.check,
                "input": self.input,
                "predicted": self.predicted,
                "oracle": self.oracle,
                "pass": self.passed,
                "witness": self.witness,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def write_jsonl(reports: list[VerificationReport], fp: IO[str]) -> None:
    for report in reports:
        fp.write(report.to_line())
        fp.write("\n")
