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

The shared encoder is ``json``'s C encoder, built once at import by
:func:`json_encoder`.  ``json.JSONEncoder.encode`` runs the same C encoder
with the same options, but builds it anew, with a float formatter and a
circular-reference ``markers`` dict, on every call; on short values such as
a witness ``{"minimal_epsilon": 0}`` that set-up is more than half of the
encode (CPython 3.11).  The shared encoder keeps no ``markers``: a failed
encode leaves the containers it had entered in that dict, which holds them,
so a reused one would keep every value that ever failed to encode alive.  A
value that contains itself therefore raises ``RecursionError``
(``json.dumps`` raises ``ValueError``), and either way its line is not
written.
"""

from __future__ import annotations

from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Any, Iterable


class VerificationReport:
    """One verified claim: inputs, prediction, oracle value, verdict, witness.

    ``suite``, ``check``, ``input``, ``predicted``, ``oracle``, ``passed``
    and ``witness`` are plain JSON data; the suites make no floats, and
    :meth:`to_line` raises ``TypeError`` on a value ``json`` cannot encode.
    ``elapsed`` is the time in seconds since the previous report of the same
    suite run, or since the run started, so the times of a run add up to it.
    It is never serialized, and equality leaves it out.  A report is
    assignable, so it has no hash.
    """

    __slots__ = ("suite", "check", "input", "predicted", "oracle", "passed", "witness", "elapsed")

    def __init__(
        self,
        suite: str,
        check: str,
        input: Any,
        predicted: Any,
        oracle: Any,
        passed: bool,
        witness: Any = None,
        elapsed: float = 0.0,
    ) -> None:
        self.suite = suite
        self.check = check
        self.input = input
        self.predicted = predicted
        self.oracle = oracle
        self.passed = passed
        self.witness = witness
        self.elapsed = elapsed

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (
                self.suite, self.check, self.input, self.predicted, self.oracle, self.passed,
                self.witness,
            ) == (
                other.suite, other.check, other.input, other.predicted, other.oracle, other.passed,
                other.witness,
            )
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(suite={self.suite!r}, check={self.check!r},"
            f" input={self.input!r}, predicted={self.predicted!r}, oracle={self.oracle!r},"
            f" passed={self.passed!r}, witness={self.witness!r}, elapsed={self.elapsed!r})"
        )

    def to_line(self) -> str:
        """The canonical line of this report, without its newline."""
        return _line(self, _value(self.input))[:-1]


def _not_json(o: Any) -> Any:
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def json_encoder(separators: tuple[str, str]) -> Any:
    """A C encoder with sorted keys and ASCII output, built once for reuse.

    ``separators`` is ``(item_separator, key_separator)``, as in
    ``json.dumps``.  ``"".join(encoder(v, 0))`` equals
    ``json.dumps(v, sort_keys=True, separators=separators)``, except that a
    value containing itself raises ``RecursionError``, not ``ValueError``.
    """
    item_separator, key_separator = separators
    return c_make_encoder(
        None, _not_json, encode_basestring_ascii, None, key_separator, item_separator,
        True, False, True,
    )


# the one encoder for every container; its options make the canonical form
_ENCODE = json_encoder((",", ":"))


def _value(v: Any) -> str:
    """``v`` as the shared encoder writes it.

    The exact types are tested, so a ``bool`` is never written as an ``int``
    and a subclass (an ``IntEnum``, a ``str`` subclass) goes to the encoder.
    Anything else is ``"".join(_ENCODE(v, 0))``: the encoder built at import,
    with no per-call set-up and no circular-reference check, so a value that
    contains itself raises ``RecursionError`` before its line is written.
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
    return "".join(_ENCODE(v, 0))


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
