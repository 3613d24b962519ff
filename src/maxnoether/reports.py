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

A line is one call of a shared encoder plus the encoded ``check`` and
``input``: those two keys sort first, so they are spliced in front of the
encoding of the other five.  A suite gives the reports of one semigroup or
curve one shared ``input`` object, and :func:`write_jsonl` encodes it once,
for as long as consecutive reports carry that same object.
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
        return _line(self, _ENCODE(self.input))


# one encoder for every line; its options make the canonical form
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _line(report: VerificationReport, input_text: str) -> str:
    """The canonical line of ``report``, given its encoded ``input``.

    "check" and "input" sort before the other keys, so the line is their
    encodings followed by the encoding of the rest without its opening brace.
    """
    rest = _ENCODE(
        {
            "oracle": report.oracle,
            "pass": report.passed,
            "predicted": report.predicted,
            "suite": report.suite,
            "witness": report.witness,
        }
    )
    return '{"check":' + _ENCODE(report.check) + ',"input":' + input_text + "," + rest[1:]


def write_jsonl(reports: list[VerificationReport], fp: IO[str]) -> None:
    # only the previous input and its text are kept: a shared input is encoded
    # once per run of consecutive reports, and nothing grows with the stream
    last_input, input_text = object(), ""
    for report in reports:
        if report.input is not last_input:
            last_input, input_text = report.input, _ENCODE(report.input)
        fp.write(_line(report, input_text))
        fp.write("\n")
