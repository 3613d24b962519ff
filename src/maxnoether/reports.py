"""Machine-readable verification reports and their canonical JSONL encoding.

Each report records one check: what was predicted, what the independent
route computed, whether they agree, and a concrete witness on failure.  The
serialized form is canonical (sorted keys, compact separators, ASCII only,
no volatile fields), so identical runs produce byte-identical output.  The
wall-clock ``elapsed`` field is never serialized.

Report fields are plain JSON data: ``None``, ``bool``, ``int``, ``str``,
lists and dicts with ``str`` keys.  The program is exact and its suites make
no floats (``test_report_fields_are_plain_json`` holds them to that); the
encoder would write a float, but a value ``json`` cannot encode, such as a
``Fraction`` or a set, raises ``TypeError`` at encoding instead of being
coerced.

A line is assembled from its keys and values in sorted key order.  A
``None``, ``bool``, ``int`` or ``str`` value is written directly, as the
encoder would write it; only lists, dicts and anything else go through the
one shared encoder.  A suite gives the reports of one semigroup or curve one
shared ``input`` object, and :func:`write_jsonl` encodes it once, for as long
as consecutive reports carry that same object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Iterable


@dataclass(slots=True)
class VerificationReport:
    """One verified claim: inputs, prediction, oracle value, verdict, witness.

    ``suite``, ``check``, ``input``, ``predicted``, ``oracle``, ``passed``
    and ``witness`` are plain JSON data; the suites make no floats, and
    :meth:`to_line` raises ``TypeError`` on a value ``json`` cannot encode.
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

    def to_line(self) -> str:
        """The canonical line of this report, without its newline."""
        return _line(self, _value(self.input))[:-1]


# one encoder for every container; its options make the canonical form
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value(v: Any) -> str:
    """``v`` as the shared encoder writes it.

    The exact types are tested, so a ``bool`` is never written as an ``int``
    and a subclass (an ``IntEnum``, a ``str`` subclass) goes to the encoder.
    """
    t = type(v)
    if v is None:
        return "null"
    if t is bool:
        return "true" if v else "false"
    if t is int:
        return int.__repr__(v)
    if t is str:
        return encode_basestring_ascii(v)
    return _ENCODE(v)


def _line(report: VerificationReport, input_text: str) -> str:
    """The canonical line of ``report`` with its newline, given its encoded ``input``."""
    return (
        f'{{"check":{_value(report.check)},"input":{input_text}'
        f',"oracle":{_value(report.oracle)},"pass":{_value(report.passed)}'
        f',"predicted":{_value(report.predicted)},"suite":{_value(report.suite)}'
        f',"witness":{_value(report.witness)}}}\n'
    )


def write_jsonl(reports: Iterable[VerificationReport], fp: IO[str]) -> None:
    """Write the canonical line of each report, in order, one ``write`` per line."""
    # only the previous input and its text are kept: a shared input is encoded
    # once per run of consecutive reports
    last_input, input_text = object(), ""
    write = fp.write
    for report in reports:
        if report.input is not last_input:
            last_input, input_text = report.input, _value(report.input)
        write(_line(report, input_text))
