"""Command-line surface: flags, exit codes, and canonical report output."""

import json

import pytest

from maxnoether.cli import main
from maxnoether.reports import jsonable


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


def test_verify_local_nonsymmetric(capsys):
    code, out, _ = run(capsys, "verify", "local", "--gens", "3,4,5", "--n", "3")
    assert code == 0
    assert "case (i)" in out
    assert "covering n=3" in out


def test_verify_local_symmetric_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "local", "--gens", "2,7")
    assert code == 2
    assert "symmetric" in err


def test_verify_local_json(capsys):
    code, out, _ = run(capsys, "verify", "local", "--gens", "4,5,11", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["case"] == "i"
    assert data["q_pairs"] == [[1, 0]]
    assert all(cov["ok"] for cov in data["coverings"])


def test_verify_noether_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "noether", "--gens", "2,7", "--n", "2")
    assert code == 1
    assert "dimension 5 < 6" in out
    assert "missing value 7" in out


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


def test_verify_noether_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", "noether", "--curve", str(path))
    assert code == 2
    assert "line 1" in err


def test_verify_noether_requires_exactly_one_input(capsys):
    code, _, err = run(capsys, "verify", "noether")
    assert code == 2


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


def test_jsonable_rejects_floats():
    with pytest.raises(TypeError):
        jsonable(1.5)


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


def test_verify_noether_missing_file(capsys):
    code, _, err = run(capsys, "verify", "noether", "--curve", "/nonexistent.json")
    assert code == 2
    assert "cannot read curve spec" in err
