"""Command-line surface: flags, exit codes, and canonical report output."""

import errno
import io
import json
import os
import stat
import subprocess
import sys
import time
from hashlib import sha256

import pytest

from maxnoether.cli import main
from maxnoether import curves
from maxnoether.curves import MAX_AMBIENT, MAX_CENTER_DIGITS, MAX_WEIGHT
from maxnoether.errors import GenusTooLarge, MaxNoetherError
from maxnoether.semigroup import enumerate_semigroups
from maxnoether.suites import GENUS_CAPS, READS_N, SUITES, SuiteParams, check_genus_cap, run_suite
from maxnoether.valueset import MAX_CONDUCTOR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sg_info_table(capsys):
    code, out, _ = run(capsys, "sg", "info", "--gens", "3,4,5")
    assert code == 0
    assert "gaps" in out and "1, 2" in out
    assert "symmetric" in out and "no" in out
    assert "almost Gorenstein" in out and "yes" in out
    assert "{0,1} u [3,oo)" in out


def test_sg_info_json(capsys):
    code, out, _ = run(capsys, "sg", "info", "--gens", "3,4,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["semigroup"]["gaps"] == [1, 2]
    assert data["almost_gorenstein"] is True
    assert data["blowup"]["stabilization_index"] == 2
    assert data["genus_drop"] == 2
    assert "omega_blowup" not in data["blowup"]


def test_sg_info_bad_gens(capsys):
    code, _, err = run(capsys, "sg", "info", "--gens", "2,4")
    assert code == 2
    assert "error" in err


def test_sg_enumerate(capsys):
    code, out, _ = run(capsys, "sg", "enumerate", "--max-genus", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    code, out, _ = run(
        capsys, "sg", "enumerate", "--max-genus", "2", "--min-multiplicity", "2"
    )
    assert len(out.strip().splitlines()) == 3


def test_sg_enumerate_json_lines_are_pinned_to_json_dumps(capsys):
    code, out, _ = run(capsys, "sg", "enumerate", "--max-genus", "6", "--json")
    assert code == 0
    assert out.splitlines() == [
        json.dumps(s.to_json(), sort_keys=True) for s in enumerate_semigroups(6)
    ]
    assert len(out.splitlines()) == 1 + 1 + 2 + 4 + 7 + 12 + 23


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--max-genus", "-1"), "must be at least"),
        (("--max-genus", "2", "--min-multiplicity", "0"), "must be at least"),
        (("--max-genus", "2", "--min-multiplicity", "-3"), "must be at least"),
        # each genus level is held whole, so the deepest tree a suite walks is the cap
        (("--max-genus", "23"), "GENUS_CAPS['blowup'] = 22"),
    ],
    ids=["genus-1", "multiplicity0", "multiplicity-3", "genus23"],
)
def test_sg_enumerate_bounds_out_of_range_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, "sg", "enumerate", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_sg_enumerate_multiplicity_above_every_genus_fails_before_the_walk(
    capsys, monkeypatch
):
    import maxnoether.cli as cli_mod

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk ran although no semigroup can qualify")

    # genus g allows multiplicity g + 1 at most, reached by {0} u [g + 1, oo)
    code, out, _ = run(capsys, "sg", "enumerate", "--max-genus", "4", "--min-multiplicity", "5")
    assert code == 0 and out.split()[0] == "<5,6,7,8,9>" and len(out.splitlines()) == 1
    monkeypatch.setattr(cli_mod, "enumerate_semigroups", no_walk)
    code, out, err = run(capsys, "sg", "enumerate", "--max-genus", "4", "--min-multiplicity", "6")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --min-multiplicity 6 admits no semigroup of genus at most --max-genus 4: "
        "genus g allows multiplicity at most g + 1\n"
    )


def test_verify_local_nonsymmetric(capsys):
    code, out, _ = run(capsys, "verify", "local", "--gens", "3,4,5", "--n", "3")
    assert code == 0
    assert "case (i)" in out
    assert "covering n=3" in out


def test_verify_local_symmetric_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "local", "--gens", "2,7")
    assert code == 2
    assert err.startswith("error: ")
    assert "symmetric" in err


def test_verify_local_json(capsys):
    code, out, _ = run(capsys, "verify", "local", "--gens", "4,5,11", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "i"
    assert data["q_pairs"] == [[1, 0]]
    assert all(cov["ok"] for cov in data["coverings"])


def test_verify_local_certifies_with_the_reported_values(monkeypatch, capsys):
    # drop the value -2 (alpha - 2 on K, the factor b_(beta-1) of case i)
    # from the attained values: the certificates must no longer be built
    import maxnoether.cli as cli_mod

    real = cli_mod.section_valuations
    monkeypatch.setattr(
        cli_mod,
        "section_valuations",
        lambda *args: tuple(v for v in real(*args) if v != -2),
    )
    code, out, err = run(capsys, "verify", "local", "--gens", "4,5,11", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: section values plus the conductor ray must equal the canonical ideal\n"


def test_verify_local_json_certificate_tables_are_pinned(capsys):
    # every label and value of the three tables, power step included
    code, out, _ = run(capsys, "verify", "local", "--gens", "4,5,11", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["certificate_defects"] == []
    assert data["certificates"] == [
        {
            "name": "conductor-step",
            "entries": [["m1*b1", 8], ["m1*b2", 9], ["m1*b3", 10], ["f1", 11]],
        },
        {"name": "square-step", "entries": [["b3*b3", 12]]},
        {
            "name": "power-step",
            "entries": [
                ["b3^1*m1*b1", 14], ["b3^1*m1*b2", 15], ["b3^1*m1*b3", 16],
                ["b3^1*f1", 17], ["b3^1*b3*b3", 18], ["b3^1*f0", 13],
                ["b3^2*m1*b1", 20], ["b3^2*m1*b2", 21], ["b3^2*m1*b3", 22],
                ["b3^2*f1", 23], ["b3^2*b3*b3", 24], ["b3^2*f0", 19],
            ],
        },
    ]


def test_verify_local_text_output_is_pinned(capsys):
    # r = 1 and p = 3, so the conductor step also has the m2 * b_j products
    code, out, err = run(capsys, "verify", "local", "--gens", "4,7,9", "--n", "3")
    assert (code, err) == (0, "")
    assert out == (
        "<4,7,9>  case (i)  d1=5 d2=5 r=1 p=3\n"
        "q-decomposition: [[0, 1]]\n"
        "conductor-step: m1*b1=11  m1*b2=12  m1*b3=13  f1=14  m2*b1=15  m2*b2=16  m2*b3=17\n"
        "square-step: b3*b3=18\n"
        "power-step: b3^1*m1*b1=20  b3^1*m1*b2=21  b3^1*m1*b3=22  b3^1*f1=23"
        "  b3^1*m2*b1=24  b3^1*m2*b2=25  b3^1*m2*b3=26  b3^1*b3*b3=27  b3^1*f0=19\n"
        "covering n=1 epsilon=1: ok (minimal epsilon 0)\n"
        "covering n=2 epsilon=3: ok (minimal epsilon 3)\n"
        "covering n=3 epsilon=5: ok (minimal epsilon 5)\n"
    )



def test_verify_local_output_is_pinned_through_genus_6(capsys):
    # every non-symmetric semigroup of genus <= 6 at --n 1..4, text then --json:
    # the exit code, a newline and stdout of each call, hashed in call order
    digest = sha256()
    calls = 0
    for s in enumerate_semigroups(6):
        if not s.gaps or s.is_symmetric():
            continue
        gens = ",".join(map(str, s.generators))
        for n in range(1, 5):
            for flags in ((), ("--json",)):
                code, out, _ = run(capsys, "verify", "local", "--gens", gens, "--n", str(n), *flags)
                digest.update(f"{code}\n{out}".encode())
                calls += 1
    assert calls == 264
    assert digest.hexdigest() == (
        "3bf79c8e782d516dc15b3b7d6914db05c1ca629dc530e9f14733d496c40cfd07"
    )

def test_verify_noether_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "noether", "--gens", "2,7", "--n", "2")
    assert code == 1
    assert "dimension 5 < 6" in out
    assert "missing value 7" in out


def test_verify_noether_json_of_a_failing_check_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "noether", "--gens", "2,7", "--n", "2", "--json")
    assert code == 1
    assert out == (
        '{"check": {"holds": false, "missing_values": [7], "n": 2, "products_dim": 5,'
        ' "sections_dim": 6}, "curve": {"branches": [{"center": "0", "generators": [2, 7]}]}}\n'
    )


def test_verify_noether_pass(capsys):
    code, out, _ = run(capsys, "verify", "noether", "--gens", "3,5,7", "--n", "4")
    assert code == 0
    assert "surjective" in out


def test_verify_noether_curve_file(tmp_path, capsys):
    spec = {"branches": [{"center": "0", "generators": [2, 5]}, {"center": "1", "generators": [3, 4, 5]}]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "noether", "--curve", str(path), "--n", "3")
    assert code == 0
    # centers with a denominator, up to the digit cap
    for center in ("7/3", "1e-%d" % (MAX_CENTER_DIGITS - 1)):
        spec["branches"][1]["center"] = center
        path.write_text(json.dumps(spec))
        code, out, err = run(capsys, "verify", "noether", "--curve", str(path), "--n", "4")
        assert code == 0 and err == ""
        assert "n=4: surjective" in out


def test_verify_noether_all_n_certifies_a_multi_branch_curve(tmp_path, capsys):
    spec = {
        "branches": [
            {"center": "0", "generators": [3, 4, 5]},
            {"center": "7/3", "generators": [3, 5, 7]},
        ]
    }
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path), "--all-n")
    assert (code, err) == (0, "")
    assert out == (
        "<3,4,5>@0 <3,5,7>@7/3  N0=2  r_P=2, 2  degree margin 2\n"
        "n=2: surjective, dimension 12\n"
        "pencil of degrees 4, 6: surjective for every n >= 1\n"
    )
    code, out, _ = run(capsys, "verify", "noether", "--curve", str(path), "--all-n", "--json")
    assert code == 0
    assert json.loads(out) == {
        "curve": spec,
        "n0": 2,
        "stabilization_indices": [2, 2],
        "degree_margin": 2,
        "checks": [
            {"n": 2, "holds": True, "products_dim": 12, "sections_dim": 12, "missing_values": None}
        ],
        "pencil_degrees": [4, 6],
        "failed": None,
        "holds": True,
    }


@pytest.mark.parametrize(
    "gens, failed, checks",
    [("3,4,5", "ratio-outside-local-ring", [True]), ("2,7", "base-case-n2", [False])],
    ids=["genus-2-has-no-invertible-pencil", "hyperelliptic-base-case"],
)
def test_verify_noether_all_n_names_what_failed(capsys, gens, failed, checks):
    code, out, _ = run(capsys, "verify", "noether", "--gens", gens, "--all-n", "--json")
    assert code == 1
    data = json.loads(out)
    assert (data["failed"], data["holds"], data["pencil_degrees"]) == (failed, False, None)
    assert [check["holds"] for check in data["checks"]] == checks
    code, out, _ = run(capsys, "verify", "noether", "--gens", gens, "--all-n")
    assert code == 1
    assert out.endswith(f"not certified: {failed}\n")


def test_verify_noether_all_n_and_n_are_mutually_exclusive(capsys):
    code, out, err = run(capsys, "verify", "noether", "--gens", "3,5,7", "--all-n", "--n", "3")
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_verify_noether_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "noether", "--curve", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_noether_full_semigroup_is_usage_error():
    # <1> has no singular point; the curve model must reject it without a traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "maxnoether", "verify", "noether", "--gens", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_verify_local_full_semigroup_is_usage_error():
    # <1> is symmetric, but it has no singular point to call Gorenstein
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "maxnoether", "verify", "local", "--gens", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: the full semigroup has no singular point\n"


@pytest.mark.parametrize("argv", [["--max-genus", "-1"], ["--max-n", "1"]])
def test_semigroup_census_bounds_out_of_range_are_usage_errors(argv):
    # a bound that admits no row would print an empty table and pass
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "semigroup_census.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be at least" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_semigroup_census_reports_the_sharp_case_i_shift():
    # with the default section values no weight covers below the shift 2n - 1
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "semigroup_census.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, "--max-genus", "6", "--max-n", "3"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    for n in (2, 3):
        assert f"  n={n}: sharp for 33, slack for 0\n" in proc.stdout


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["--help"], 0, "stdout", "usage: time_oracle.py"),
        (["--runs", "1"], 2, "stderr", "unrecognized arguments"),
    ],
)
def test_time_oracle_reads_its_arguments_before_any_case(argv, code, stream, text):
    # every case runs for minutes, so a typo or --help must not start them
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "time_oracle.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == code
    assert text in getattr(proc, stream)
    assert "sections_dim" not in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "name, lines",
    [
        (
            "time_oracle.py",
            [
                "Usage:",
                "    PYTHONPATH=src python scripts/time_oracle.py",
                "- one ordinary branch <300, ..., 599> at 0, n = 2, whose rows are monomials;",
            ],
        ),
        (
            "semigroup_census.py",
            ["Usage:", "    python scripts/semigroup_census.py [--max-genus 10] [--max-n 4]"],
        ),
    ],
)
def test_script_help_keeps_the_docstring_layout(name, lines):
    # argparse's default formatter reflows a description into one paragraph
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", name)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    shown = proc.stdout.splitlines()
    for line in lines:
        assert line in shown


def test_verify_noether_requires_exactly_one_input(capsys):
    for flags in ([], ["--curve", "curve.json", "--gens", "3,4,5"]):
        code, out, err = run(capsys, "verify", "noether", *flags)
        assert code == 2 and out == ""
        assert "--curve" in err and "--gens" in err


def test_verify_corpus_writes_jsonl(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    code, _, err = run(
        capsys,
        "verify",
        "corpus",
        "--suite",
        "eq4-oracle",
        "--max-genus",
        "4",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) >= 16
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"suite", "check", "input", "predicted", "oracle", "pass", "witness"}
        assert obj["pass"] is True


def test_verify_corpus_deterministic_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for p in paths:
        code, _, _ = run(
            capsys,
            "verify",
            "corpus",
            "--suite",
            "local-lemma",
            "--max-genus",
            "6",
            "--out",
            str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_corpus_unknown_suite(capsys):
    code, _, _ = run(capsys, "verify", "corpus", "--suite", "nope")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("sg", "info", "--gens", "4,5,11"),
        ("verify", "local", "--gens", "4,5,11", "--n", "3"),
        ("verify", "noether", "--gens", "3,4,5", "--n", "3"),
    ],
    ids=["sg-info", "verify-local", "verify-noether"],
)
def test_json_output_is_plain_json(capsys, assert_plain_json, argv):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert_plain_json(json.loads(out))


@pytest.mark.parametrize(
    "suite, bound",
    [
        pytest.param("noether-single", ("--max-genus", "0"), id="noether-single-genus0"),
        pytest.param("noether-single", ("--n", "1"), id="noether-single-n1"),
        pytest.param("local-lemma", ("--max-genus", "1"), id="local-lemma-genus1"),
    ],
)
def test_verify_corpus_empty_run_is_usage_error(tmp_path, capsys, suite, bound):
    out_path = tmp_path / "empty.jsonl"
    code, out, err = run(
        capsys, "verify", "corpus", "--suite", suite, *bound, "--out", str(out_path)
    )
    assert code == 2
    assert "made no checks" in err
    assert not out_path.exists() and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "local", "--gens", "3,4,5", "--n", "0"),
        ("verify", "noether", "--gens", "3,4,5", "--n", "0"),
        ("verify", "noether", "--gens", "3,4,5", "--n", "-2"),
        ("verify", "corpus", "--suite", "dims", "--n", "0"),
        ("verify", "corpus", "--suite", "local-lemma", "--max-genus", "-1"),
        ("verify", "corpus", "--suite", "eq4-oracle", "--max-genus", "two"),
    ],
    ids=["local-n0", "noether-n0", "noether-n-2", "corpus-n0", "corpus-genus-1", "corpus-genus-word"],
)
def test_verify_bounds_out_of_range_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err or "expected an integer" in err


@pytest.mark.parametrize(
    "generators", [[3.7, 4, 5], "345", [True, 4, 5]], ids=["float", "string", "bool"]
)
def test_verify_noether_rejects_non_integer_generators(tmp_path, capsys, generators):
    spec = {"branches": [{"center": "0", "generators": generators}]}
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path))
    assert code == 2
    assert out == ""
    assert "generators must be a list of integers" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ('{"branches": []}', "error: curve spec has no branches"),
        (
            '{"branches": [{"center": 0.33333333333333333333, "generators": [3, 4, 5]}]}',
            "error: branch 0: center 0.3333333333333333 must be a string",
        ),
        ("[" * 2000 + "]" * 2000, "error: {path}: JSON nested too deeply"),
    ],
    ids=["no-branches", "float-center", "deep-nesting"],
)
def test_verify_noether_rejects_vacuous_or_rounded_curve_specs(tmp_path, capsys, spec, message):
    # nothing to check must not pass, a JSON fraction has been rounded to a
    # float, and nesting past the recursion limit cannot be read
    path = tmp_path / "curve.json"
    path.write_text(spec)
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(message.format(path=path))


def test_verify_noether_rejects_a_curve_spec_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_bytes(b'\xff\xfe{"branches": []}')
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize(
    "center", ['"1e-40000"', "1" * 5000, '"%s"' % ("1" * 5000)], ids=["exponent", "int", "string"]
)
def test_verify_noether_center_above_the_digit_cap_is_usage_error(
    tmp_path, capsys, monkeypatch, center
):
    # the spec must fail while it is read, before any constraint column is
    # built; past 4,300 digits neither json nor Fraction can even read the
    # integer.  ``center`` is JSON text: a string or a bare integer
    built = []
    monkeypatch.setattr(curves, "_constraint_rows", lambda *args: built.append(args))
    path = tmp_path / "curve.json"
    path.write_text(
        '{"branches": [{"center": %s, "generators": [3, 4, 5]},'
        ' {"center": "0", "generators": [3, 5, 7]}]}' % center
    )
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path), "--n", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"MAX_CENTER_DIGITS = {MAX_CENTER_DIGITS}" in err
    assert built == []


def test_verify_noether_missing_file(capsys):
    code, _, err = run(capsys, "verify", "noether", "--curve", "/nonexistent.json")
    assert code == 2
    assert "cannot read curve spec" in err


def test_sg_info_conductor_above_the_cap_is_usage_error(capsys):
    # <1000,1001> has conductor 999000; the sieve must stop at the cap.  With
    # a least generator of 10^9 the gaps 1, ..., 10^9 - 1 must not be built.
    for gens in ("1000,1001", "1000000000,1000000001"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sg", "info", "--gens", gens)
        assert time.perf_counter() - t0 < 2
        assert code == 2
        assert out == ""
        assert f"MAX_CONDUCTOR = {MAX_CONDUCTOR}" in err


@pytest.mark.parametrize(
    "argv",
    [("noether", "--gens", "2,3", "--n", "2000"), ("local", "--gens", "4,5,11", "--n", "2000")],
    ids=["noether", "local"],
)
def test_verify_noether_weight_above_the_cap_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: weight 2000 is above MAX_WEIGHT = {MAX_WEIGHT}\n"


def test_verify_noether_ambient_above_the_cap_is_usage_error(monkeypatch, capsys):
    # <100,101> has conductor 9,900, under MAX_CONDUCTOR; at n = 2 its
    # numerators have 2 * 9,900 - 3 coefficients
    def no_rows(*args):
        raise AssertionError("constraint rows were built although the ambient is above the cap")

    monkeypatch.setattr(curves, "_constraint_rows", no_rows)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "noether", "--gens", "100,101", "--n", "2")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err == (
        f"error: numerator ambient 19797 at weight 2 is above MAX_AMBIENT = {MAX_AMBIENT}\n"
    )


def test_verify_noether_two_branch_ambient_above_the_cap_is_usage_error(tmp_path, capsys):
    # each branch alone is under the cap; together they pass it
    path = tmp_path / "curve.json"
    branch = {"generators": [35, 36]}  # conductor 1,190
    path.write_text(
        json.dumps({"branches": [{"center": "0", **branch}, {"center": "1/2", **branch}]})
    )
    ambient = 2 * 1190 - 2 + 1
    assert ambient > MAX_AMBIENT > 1190 - 2 + 1
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "noether", "--curve", str(path), "--n", "1")
    assert time.perf_counter() - t0 < 5
    assert (code, out) == (2, "")
    assert err == (
        f"error: numerator ambient {ambient} at weight 1 is above MAX_AMBIENT = {MAX_AMBIENT}\n"
    )


@pytest.mark.parametrize(
    "suite, flag",
    [(s, "--max-genus") for s in sorted(set(SUITES) - set(GENUS_CAPS))]
    + [(s, "--n") for s in sorted(set(SUITES) - READS_N)],
)
def test_verify_corpus_bound_the_suite_does_not_read_is_usage_error(
    tmp_path, monkeypatch, capsys, suite, flag
):
    # hyperelliptic-negative --n 7 once passed its three checks, all at n = 2
    import maxnoether.cli as cli_mod

    def no_suite(*args):
        raise AssertionError("the suite ran although it does not read the bound")

    monkeypatch.setattr(cli_mod, "iter_suite", no_suite)
    path = tmp_path / "reports.jsonl"
    argv = ("verify", "corpus", "--suite", suite, flag, "7", "--out", str(path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: suite {suite} does not read {flag}\n"
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "dims", "--n", "300"),
        ("--suite", "noether-single", "--max-genus", "4", "--n", "300"),
        ("--suite", "local-lemma", "--n", "300"),
    ],
    ids=["dims", "noether-single", "local-lemma"],
)
def test_verify_corpus_weight_above_the_cap_fails_before_any_work(monkeypatch, capsys, argv):
    import maxnoether.cli as cli_mod

    def no_suite(*args):
        raise AssertionError("the suite ran although the weight is above the cap")

    monkeypatch.setattr(cli_mod, "iter_suite", no_suite)
    code, out, err = run(capsys, "verify", "corpus", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: weight 300 is above MAX_WEIGHT = {MAX_WEIGHT}\n"


@pytest.mark.parametrize("suite", sorted(GENUS_CAPS))
def test_verify_corpus_genus_above_the_suite_cap_fails_before_any_work(
    tmp_path, monkeypatch, capsys, suite
):
    import maxnoether.suites as suites_mod

    def no_work(*args, **kwargs):
        raise AssertionError("suite work ran although the genus is above the cap")

    for name in SUITES:
        monkeypatch.setitem(suites_mod.SUITES, name, no_work)
    monkeypatch.setattr(suites_mod, "enumerate_semigroups", no_work)
    monkeypatch.setattr(suites_mod, "bruteforce_gap_census", no_work)
    cap = GENUS_CAPS[suite]
    path = tmp_path / "reports.jsonl"
    argv = ("verify", "corpus", "--suite", suite, "--max-genus", str(cap + 1), "--out", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: max genus {cap + 1} is above the {suite} cap GENUS_CAPS[{suite!r}] = {cap}\n"
    )
    assert not path.exists()


def test_genus_caps_bound_every_suite_that_reads_a_genus(monkeypatch):
    # the suites that ignore --max-genus have no corpus that grows with it;
    # run_suite checks the cap itself, for callers other than the CLI
    import maxnoether.suites as suites_mod

    def one_check(params):
        yield ("ran", {}, True, True, True, None)

    assert set(GENUS_CAPS) == {"eq4-oracle", "local-lemma", "blowup", "noether-single"}
    for suite, cap in GENUS_CAPS.items():
        monkeypatch.setitem(suites_mod.SUITES, suite, one_check)
        check_genus_cap(suite, SuiteParams(max_genus=cap))
        [report] = run_suite(suite, SuiteParams(max_genus=cap))
        assert report.check == "ran"
        with pytest.raises(GenusTooLarge, match=f"= {cap}$"):
            run_suite(suite, SuiteParams(max_genus=cap + 1))


def test_semigroup_census_genus_above_the_cap_is_usage_error():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "semigroup_census.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cap = GENUS_CAPS["local-lemma"]
    proc = subprocess.run(
        [sys.executable, script, "--max-genus", str(cap + 1)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"GENUS_CAPS['local-lemma'] = {cap}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_semigroup_census_weight_above_the_cap_is_usage_error():
    # refused before the enumeration: at this weight the census would not end
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "semigroup_census.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, script, "--max-genus", "4", "--max-n", str(MAX_WEIGHT + 1)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"weight {MAX_WEIGHT + 1} is above MAX_WEIGHT = {MAX_WEIGHT}" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_verify_corpus_unwritable_out_fails_before_the_suite(tmp_path, monkeypatch, capsys, target):
    import maxnoether.cli as cli_mod

    def no_suite(*args):
        raise AssertionError("the suite ran before the output was opened")

    monkeypatch.setattr(cli_mod, "iter_suite", no_suite)
    path = tmp_path if target == "directory" else tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "verify", "corpus", "--suite", "blowup", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1


def _stub_suite(monkeypatch, outcome):
    import maxnoether.cli as cli_mod

    def stub(*args):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(cli_mod, "iter_suite", stub)


@pytest.mark.parametrize(
    "outcome, expected_code",
    [([], 2), (MaxNoetherError("the suite stopped"), 2), (RuntimeError("the suite crashed"), None)],
    ids=["empty-run", "error-mid-run", "crash-mid-run"],
)
def test_verify_corpus_keeps_an_existing_out_file_when_nothing_is_written(
    tmp_path, monkeypatch, capsys, outcome, expected_code
):
    # the output is probed before the suite, but truncated only once reports exist
    path = tmp_path / "results.jsonl"
    path.write_text("earlier results\n")
    _stub_suite(monkeypatch, outcome)
    argv = ("verify", "corpus", "--suite", "blowup", "--out", str(path))
    if expected_code is None:
        with pytest.raises(RuntimeError):
            main(list(argv))
    else:
        code, out, err = run(capsys, *argv)
        assert code == expected_code and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_text() == "earlier results\n"


@pytest.mark.parametrize(
    "outcome",
    [MaxNoetherError("the suite stopped"), RuntimeError("the suite crashed")],
    ids=["error-mid-run", "crash-mid-run"],
)
def test_verify_corpus_leaves_no_out_file_when_the_suite_stops(
    tmp_path, monkeypatch, capsys, outcome
):
    path = tmp_path / "results.jsonl"
    _stub_suite(monkeypatch, outcome)
    try:
        main(["verify", "corpus", "--suite", "blowup", "--out", str(path)])
    except RuntimeError:
        pass
    assert not path.exists()


def test_verify_corpus_keeps_an_existing_out_file_when_a_suite_stops_partway(
    tmp_path, monkeypatch, capsys
):
    # the real iter_suite: one check is made and its line written, then the suite fails
    import maxnoether.suites as suites_mod

    def stops_partway(params):
        yield ("made", {}, True, True, True, None)
        raise MaxNoetherError("the suite stopped")

    monkeypatch.setitem(suites_mod.SUITES, "blowup", stops_partway)
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"earlier results\n")
    code, out, err = run(capsys, "verify", "corpus", "--suite", "blowup", "--out", str(path))
    assert code == 2 and out == ""
    assert err == "error: the suite stopped\n"
    assert path.read_bytes() == b"earlier results\n"
    assert os.listdir(tmp_path) == ["results.jsonl"]  # no temp file is left behind


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
def test_verify_corpus_crash_partway_leaves_no_temp_file(tmp_path, monkeypatch, existing):
    import maxnoether.suites as suites_mod

    def crashes_partway(params):
        yield ("made", {}, True, True, True, None)
        yield ("made", {}, True, True, False, None)
        raise RuntimeError("the suite crashed")

    monkeypatch.setitem(suites_mod.SUITES, "blowup", crashes_partway)
    path = tmp_path / "results.jsonl"
    if existing:
        path.write_bytes(b"earlier results\n")
    with pytest.raises(RuntimeError):
        main(["verify", "corpus", "--suite", "blowup", "--out", str(path)])
    assert os.listdir(tmp_path) == (["results.jsonl"] if existing else [])
    assert not existing or path.read_bytes() == b"earlier results\n"


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
def test_verify_corpus_write_failing_partway_is_an_output_error(
    tmp_path, monkeypatch, capsys, existing
):
    # a full disk met after the first line: reported as an unwritable output
    import maxnoether.cli as cli_mod

    def fills_up(reports, fp):
        fp.write(next(iter(reports)).to_line() + "\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli_mod, "write_jsonl", fills_up)
    path = tmp_path / "results.jsonl"
    if existing:
        path.write_bytes(b"earlier results\n")
    code, out, err = run(capsys, "verify", "corpus", "--suite", "blowup", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == (["results.jsonl"] if existing else [])
    assert not existing or path.read_bytes() == b"earlier results\n"


def _run_module(argv, stdout):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "maxnoether", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


def _assert_output_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write output: ")
    # nothing more: no traceback, and no second failure flushing stdout at exit
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_verify_corpus_out_to_a_full_device_is_an_output_error():
    argv = ["verify", "corpus", "--suite", "dims", "--out", "/dev/full"]
    _assert_output_error(_run_module(argv, subprocess.DEVNULL))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "corpus", "--suite", "noether-single"),
        ("sg", "enumerate", "--max-genus", "10"),
    ],
    ids=["corpus", "enumerate"],
)
def test_stdout_closed_by_its_reader_is_an_output_error(argv):
    # as `| head -1` leaves it once head exits: the pipe's read end is closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_module(argv, write_end)
    finally:
        os.close(write_end)
    _assert_output_error(proc)


@pytest.mark.parametrize(
    "suite, bounds",
    [
        ("local-lemma", ("--max-genus", "6", "--n", "3")),
        ("blowup", ("--max-genus", "7")),
        ("noether-single", ("--max-genus", "4", "--n", "3")),
    ],
)
@pytest.mark.parametrize("sink", ["out", "stdout"])
def test_verify_corpus_streams_the_bytes_of_write_jsonl(tmp_path, capsys, suite, bounds, sink):
    from maxnoether.reports import write_jsonl

    buf = io.StringIO()
    reports = run_suite(suite, SuiteParams(*(int(v) for v in bounds[1::2])))
    write_jsonl(reports, buf)
    path = tmp_path / "reports.jsonl"
    argv = ("verify", "corpus", "--suite", suite, *bounds)
    code, out, err = run(capsys, *argv, *(("--out", str(path)) if sink == "out" else ()))
    assert code == 0
    assert err == f"suite {suite}: {len(reports)}/{len(reports)} checks passed\n"
    if sink == "out":
        assert out == "" and path.read_bytes() == buf.getvalue().encode("utf-8")
        assert os.listdir(tmp_path) == ["reports.jsonl"]
    else:
        assert out == buf.getvalue()


def test_verify_corpus_stdout_keeps_the_lines_written_before_a_stop(monkeypatch, capsys):
    import maxnoether.suites as suites_mod

    def stops_partway(params):
        yield ("made", {}, True, True, True, None)
        yield ("made too", {}, True, True, False, None)
        raise MaxNoetherError("the suite stopped")

    monkeypatch.setitem(suites_mod.SUITES, "blowup", stops_partway)
    code, out, err = run(capsys, "verify", "corpus", "--suite", "blowup")
    assert code == 2
    assert err == "error: the suite stopped\n"
    assert out.endswith("\n")
    assert [json.loads(line)["check"] for line in out.splitlines()] == ["made", "made too"]


_EQ4_AT_4 = ("verify", "corpus", "--suite", "eq4-oracle", "--max-genus", "4")


def _eq4_bytes():
    from maxnoether.reports import write_jsonl

    buf = io.StringIO()
    write_jsonl(run_suite("eq4-oracle", SuiteParams(4)), buf)
    return buf.getvalue().encode("utf-8")


def test_verify_corpus_out_dev_null_stays_a_device(capsys):
    code, out, err = run(capsys, *_EQ4_AT_4, "--out", os.devnull)
    assert code == 0 and out == ""
    assert err.endswith("checks passed\n")
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("link", ["symlink", "hardlink"])
def test_verify_corpus_writes_through_a_linked_out(tmp_path, capsys, link):
    target = tmp_path / "target.jsonl"
    target.write_bytes(b"earlier results\n")
    path = tmp_path / "results.jsonl"
    (os.symlink if link == "symlink" else os.link)(target, path)
    code, _, _ = run(capsys, *_EQ4_AT_4, "--out", str(path))
    assert code == 0
    assert path.is_symlink() == (link == "symlink")
    assert target.read_bytes() == path.read_bytes() == _eq4_bytes()
    assert sorted(os.listdir(tmp_path)) == ["results.jsonl", "target.jsonl"]


def test_verify_corpus_keeps_the_mode_of_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"earlier results\n")
    path.chmod(0o640)
    code, _, _ = run(capsys, *_EQ4_AT_4, "--out", str(path))
    assert code == 0
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == _eq4_bytes()


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file another owner")
def test_verify_corpus_keeps_the_owner_of_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"earlier results\n")
    os.chown(path, 12345, 12345)
    code, _, _ = run(capsys, *_EQ4_AT_4, "--out", str(path))
    assert code == 0
    assert (path.stat().st_uid, path.stat().st_gid) == (12345, 12345)
    assert path.read_bytes() == _eq4_bytes()


def test_verify_corpus_writes_through_when_no_temp_file_can_be_made(tmp_path, capsys):
    # a temp file of that name already exists, so the run cannot make its own
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"earlier results\n")
    stale = tmp_path / f"results.jsonl.{os.getpid()}.tmp"
    stale.write_bytes(b"not ours\n")
    code, _, _ = run(capsys, *_EQ4_AT_4, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == _eq4_bytes()
    assert stale.read_bytes() == b"not ours\n"


def test_verify_corpus_replaces_an_existing_out_file(tmp_path, capsys):
    path = tmp_path / "results.jsonl"
    path.write_text("earlier results\n" * 1000)
    code, _, _ = run(
        capsys, "verify", "corpus", "--suite", "eq4-oracle", "--max-genus", "4", "--out", str(path)
    )
    assert code == 0
    assert all(json.loads(line)["pass"] for line in path.read_text().splitlines())
