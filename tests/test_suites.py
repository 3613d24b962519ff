"""Report streams of the suites at their default bounds, pinned byte for byte."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from maxnoether.reports import VerificationReport, write_jsonl
from maxnoether.errors import GenusTooLarge
from maxnoether.suites import GENUS_CAPS, READS_N, SUITES, SuiteParams, iter_suite, run_suite

# sha256 of the canonical JSONL (UTF-8) and the report count of each suite.
PINNED = {
    "blowup": (1644, "a3acc77ac5aa4085764d1bf4a8c61a7df04b585c226b1e59773b3e9362db9b0f"),
    "dims": (105, "d8865d61cfd5f8ec189fa2438134c0567f496ce5b82328cded0f86b0ca2159f7"),
    "eq4-oracle": (157, "2f703c13e5b04642dd774f165b9594f18f6643e4dc819845858ea96ad24cefec"),
    "hyperelliptic-negative": (
        3,
        "c681f737fe29f08e4ec79583ae4b790b2273728c6a2865e8a3bcb31901abd68b",
    ),
    "local-lemma": (2735, "dbbf525711ffcdaaa8a5cdf84f193be5690e4cabb5d801ced525b6d2fccaa15a"),
    "noether-multi": (24, "3a64a3216746f8c29541c1f0e98b7e149aa5994932d01725556a2337417f87b0"),
    "noether-single": (441, "33327a2bc1526caec591c5b3c452666b31a852c8c42efb427cb1af75a1363248"),
    "resolution": (12, "f0425b94fcb5e85cbecbc5e619cbafaf22e9b578056f53294aaa2b97d57146de"),
}


def _pin(reports):
    buf = io.StringIO()
    write_jsonl(reports, buf)
    return len(reports), hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_report_bytes_are_pinned(name):
    assert _pin(run_suite(name)) == PINNED[name]


def test_local_lemma_with_longer_power_steps_is_pinned():
    # n up to 6 gives power steps of up to four powers; the default stops at n = 4
    reports = run_suite("local-lemma", SuiteParams(max_genus=8, max_n=6))
    assert _pin(reports) == (
        1063,
        "b2d6fde303507701248e65db68466f6d88bee00a3caaf4e57f3db55f12303940",
    )


def test_run_all_suites_script_writes_the_pinned_streams(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_all_suites.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    written = {path.stem: path.read_bytes() for path in tmp_path.glob("*.jsonl")}
    assert sorted(written) == sorted(PINNED)
    for name, data in written.items():
        assert (data.count(b"\n"), hashlib.sha256(data).hexdigest()) == PINNED[name], name


def _lines(name, params):
    return [r.to_line() for r in run_suite(name, params)]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_read_exactly_the_bounds_listed(name):
    # the CLI refuses a bound that a suite ignores, so the lists must be exact
    reads_genus = _lines(name, SuiteParams(max_genus=3)) != _lines(name, SuiteParams(max_genus=4))
    reads_n = _lines(name, SuiteParams(max_genus=4, max_n=2)) != _lines(
        name, SuiteParams(max_genus=4, max_n=3)
    )
    assert (reads_genus, reads_n) == (name in GENUS_CAPS, name in READS_N)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_report_fields_are_plain_json(name, assert_plain_json):
    reports = run_suite(name, SuiteParams(max_genus=5, max_n=3))
    assert reports
    for r in reports:
        assert_plain_json([r.suite, r.check, r.input, r.predicted, r.oracle, r.passed, r.witness])


def test_report_with_a_non_json_value_does_not_encode():
    report = VerificationReport("s", "c", {}, 0, 0, False, witness=Fraction(1, 2))
    with pytest.raises(TypeError):
        report.to_line()


def _reference_jsonl(reports):
    # the canonical line as one json.dumps of the whole report: the reference
    # that the lines assembled field by field must equal
    return "".join(
        json.dumps(
            {
                "suite": r.suite,
                "check": r.check,
                "input": r.input,
                "predicted": r.predicted,
                "oracle": r.oracle,
                "pass": r.passed,
                "witness": r.witness,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for r in reports
    )


def _jsonl(reports):
    buf = io.StringIO()
    write_jsonl(reports, buf)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_write_jsonl_matches_one_dumps_per_report(name):
    reports = run_suite(name, SuiteParams(max_genus=5, max_n=3))
    assert _jsonl(reports) == _reference_jsonl(reports)
    assert [r.to_line() + "\n" for r in reports] == _reference_jsonl(reports).splitlines(True)


def test_write_jsonl_with_interleaved_inputs():
    # a shared input object, then another, then the first again; two equal
    # but distinct dicts; no input at all; and inputs that compare equal but
    # encode differently
    shared = {"gaps": [1, 2], "name": "\u00e9t\u00e9 \u2192 K", "shift": -3}
    other = {"b": [-1, {"z": None, "a": True}], "a": "x"}
    twin = {"b": [-1, {"z": None, "a": True}], "a": "x"}
    reports = [
        VerificationReport("s", "c1", shared, -1, -1, True),
        VerificationReport("s", "c2", shared, [1], {"k": "\u00fc"}, False, witness=[-2, "\u00df"]),
        VerificationReport("s", "c3", other, None, None, True),
        VerificationReport("t", "c4", shared, 0, 0, True, witness={"y": 1, "x": 2}),
        VerificationReport("t", "c5", twin, 0, 0, True),
        VerificationReport("t", "c6", other, 0, 0, True),
        VerificationReport("t", "c7", None, 0, 0, True),
        VerificationReport("t", "c8", None, "\u00e9", 0, False),
        VerificationReport("t", "c9", shared, 0, 0, True),
        # equal as Python values, not as JSON
        VerificationReport("u", "c10", {"n": 1}, 0, 0, True),
        VerificationReport("u", "c11", {"n": True}, 0, 0, True),
    ]
    text = _jsonl(reports)
    assert text == _reference_jsonl(reports)
    assert "\\u00e9t\\u00e9" in text and text.isascii()
    assert [json.loads(line)["input"] for line in text.splitlines()] == [r.input for r in reports]


@pytest.mark.parametrize("field", ["input", "predicted", "oracle", "passed", "witness"])
def test_write_jsonl_with_a_non_json_value_does_not_encode(field):
    # a bare value takes the scalar dispatch, a nested one the shared encoder
    for value in (Fraction(1, 2), {"a": Fraction(1, 2)}):
        good = VerificationReport("s", "c", {"a": 1}, 0, 0, True)
        bad = VerificationReport("s", "c", {"a": 1}, 0, 0, True)
        setattr(bad, field, value)
        with pytest.raises(TypeError):
            _jsonl([good, bad])
        with pytest.raises(TypeError):
            bad.to_line()


_JSON_LEAVES = (
    st.none()
    | st.sampled_from([True, 1, False, 0, -1])
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) + 2)
    # every code point: non-ASCII, control characters, lone surrogates
    | st.text(st.characters(exclude_categories=()), max_size=6)
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=3), children, max_size=3),
    max_leaves=8,
)


@st.composite
def _random_reports(draw):
    # a few suites and checks recur, so one check under two suites and True
    # next to 1 meet in one stream; some reports share the previous input
    reports = []
    for _ in range(draw(st.integers(1, 6))):
        suite = draw(st.sampled_from(["s", "t", True, 1]) | _JSON)
        check = draw(st.sampled_from(["c", "d", True, 1]) | _JSON)
        shared = reports and draw(st.booleans())
        input_ = reports[-1].input if shared else draw(_JSON)
        fields = [draw(_JSON) for _ in range(4)]
        reports.append(VerificationReport(suite, check, input_, *fields))
    return reports


@given(_random_reports())
@example([VerificationReport("s", "c", {}, 0, 0, True), VerificationReport("t", "c", {}, 0, 0, True)])
@example([VerificationReport("s", True, 1, True, 1, 1), VerificationReport("s", 1, True, 1, True, True)])
@example([VerificationReport("s", "c", "\u00e9\u2192\x00", "\x1f", ["\ud800"], False, {"\u00fc": -(2**70)})])
@settings(max_examples=100)
def test_write_jsonl_and_to_line_match_one_dumps_on_random_json(reports):
    assert _jsonl(reports) == _reference_jsonl(reports)
    assert [r.to_line() + "\n" for r in reports] == _reference_jsonl(reports).splitlines(True)


def test_to_line_with_a_set_does_not_encode():
    with pytest.raises(TypeError):
        VerificationReport("s", "c", {1, 2}, 0, 0, True).to_line()


def test_elapsed_times_add_up_to_the_run():
    # each report is timed from the previous one, the first from the run start,
    # so the times cover the whole run, including work done between checks
    # (here the per-semigroup set-up of local-lemma)
    t0 = time.perf_counter()
    reports = run_suite("local-lemma", SuiteParams(max_genus=8))
    wall = time.perf_counter() - t0
    total = sum(r.elapsed for r in reports)
    assert all(r.elapsed > 0 for r in reports)
    assert 0.95 * wall < total <= wall


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_report_is_built_through_the_module_binding(name, monkeypatch):
    # the benchmark rebinds suites.VerificationReport to mark where each check ends
    import maxnoether.suites as suites_mod

    made = []

    def counting_report(*args, **kwargs):
        made.append(VerificationReport(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(suites_mod, "VerificationReport", counting_report)
    reports = run_suite(name, SuiteParams(max_genus=4, max_n=2))
    assert reports and len(made) == len(reports)
    assert all(m is r for m, r in zip(made, reports))
    assert {r.suite for r in reports} == {name}


def test_iter_suite_checks_its_arguments_before_the_first_report(monkeypatch):
    # the errors come from the call itself: no report is asked for
    import maxnoether.suites as suites_mod

    def no_work(params):
        raise AssertionError("suite work ran although the arguments are refused")

    monkeypatch.setitem(suites_mod.SUITES, "blowup", no_work)
    cap = GENUS_CAPS["blowup"]
    with pytest.raises(GenusTooLarge, match=f"= {cap}$"):
        iter_suite("blowup", SuiteParams(max_genus=cap + 1))
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        iter_suite("nope")


@pytest.mark.parametrize("route", ["oracle", "value"])
def test_noether_single_failure_names_the_oracle_defect(route, monkeypatch):
    # no pinned stream reaches a failing check, so each route is made to fail here
    import maxnoether.suites as suites_mod
    from maxnoether.curves import NoetherCheck, max_noether_holds
    from maxnoether.local import SurjectivityCheck

    checks = []

    def oracle(curve, n):
        check = max_noether_holds(curve, n)
        if route == "oracle":
            check = NoetherCheck(n, False, check.sections_dim - 1, check.sections_dim, (7,))
        checks.append(check)
        return check

    monkeypatch.setattr(suites_mod, "max_noether_holds", oracle)
    if route == "value":
        monkeypatch.setattr(
            suites_mod,
            "verify_local_surjectivity",
            lambda ctx, n, epsilon: SurjectivityCheck(False, n, epsilon, (1,), epsilon + 1),
        )
    reports = run_suite("noether-single", SuiteParams(max_genus=3, max_n=2))
    assert reports and len(reports) == len(checks)
    for r, check in zip(reports, checks):
        assert (r.predicted, r.oracle) == ((True, False) if route == "oracle" else (False, True))
        assert r.passed is False
        assert r.witness == {"defect": check.describe()}
