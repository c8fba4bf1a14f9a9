"""Command-line interface: golden outputs, formats, exit codes."""

import json

import pytest

from crystal_polytope import cli


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eta_golden_csv(capsys):
    code, out, err = run(capsys, ["eta", "--type", "A", "--rank", "2",
                                  "--word", "1,2,1", "--point", "1,1,0",
                                  "--format", "csv"])
    assert code == 0
    assert out.strip() == "0,1,1"
    assert "application-ordered, j_1 first" in err


def test_valuation_golden_csv(capsys):
    code, out, _ = run(capsys, ["valuation", "--vars", "3", "--order", "hi",
                                "--poly", "t1*t2 + t3^2", "--format", "csv"])
    assert code == 0
    assert out.strip() == "-1,-1,0"


def test_valuation_tilde_order(capsys):
    code, out, _ = run(capsys, ["valuation", "--vars", "3", "--order", "tilde",
                                "--poly", "t1*t2 + t3^2", "--format", "csv"])
    assert code == 0
    assert out.strip() == "-2,0,0"


def test_json_envelope_has_meta(capsys):
    code, out, _ = run(capsys, ["enumerate", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["word"] == [1, 2, 1]
    assert doc["meta"]["lambda"] == [1, 1]
    assert "application-ordered" in doc["meta"]["convention"]
    assert doc["data"]["count"] == 8
    assert [0, 0, 0] in doc["data"]["points"]


def test_enumerate_csv_rows(capsys):
    code, out, _ = run(capsys, ["enumerate", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1",
                                "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 8
    assert "1,2,1" in rows


def test_delta_hrep_text_golden(capsys):
    code, out, _ = run(capsys, ["delta-hrep", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1",
                                "--format", "hrep-text"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "1 + 0*L1 + 0*L2 + -1*a1 + 0*a2 + 0*a3 >= 0",
        "1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + -1*a3 >= 0",
        "0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 1*a3 >= 0",
        "0 + 0*L1 + 0*L2 + 0*a1 + 1*a2 + -1*a3 >= 0",
        "1 + 0*L1 + 0*L2 + 1*a1 + -1*a2 + 0*a3 >= 0",
        "0 + 0*L1 + 0*L2 + 1*a1 + 0*a2 + 0*a3 >= 0",
    ]


def test_delta_hrep_json_mirror_fields(capsys):
    code, out, _ = run(capsys, ["delta-hrep", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1"])
    assert code == 0
    doc = json.loads(out)
    forms = doc["data"]["forms"]
    assert all(set(f) == {"const_abs", "const_lambda", "coeffs"} for f in forms)
    assert {"const_abs": 0, "const_lambda": [1, 0], "coeffs": [-1, 0, 0]} in forms


def test_delta_points_equal_enumerate(capsys):
    code1, out1, _ = run(capsys, ["delta-points", "--type", "A", "--rank", "2",
                                  "--word", "1,2,1", "--lambda", "1,1",
                                  "--format", "csv"])
    code2, out2, _ = run(capsys, ["enumerate", "--type", "A", "--rank", "2",
                                  "--word", "1,2,1", "--lambda", "1,1",
                                  "--format", "csv"])
    assert code1 == code2 == 0
    assert sorted(out1.splitlines()) == sorted(out2.splitlines())


def test_string_points_subcommand(capsys):
    code, out, _ = run(capsys, ["string-points", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1",
                                "--format", "csv"])
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert "2,1,0" in out.splitlines()


def test_star_and_opposite_chart(capsys):
    code, out, _ = run(capsys, ["star", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--point", "0,1,2,1",
                                "--format", "csv"])
    assert code == 0 and out.strip() == "0,1,2,1"
    code, out, _ = run(capsys, ["eta", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--point", "0,1,2,1",
                                "--opposite", "--format", "csv"])
    assert code == 0 and out.strip() == "1,2,1,0"


def test_matrix_subcommand(capsys):
    code, out, _ = run(capsys, ["matrix", "--type", "A", "--rank", "2",
                                "--word", "1,2,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["entries"][2][0] == "t1*t2"


def test_ample_subcommand(capsys):
    code, out, _ = run(capsys, ["ample", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--lambda", "2,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"] == {"ample": True, "certified": True,
                           "stabilized": True, "num_forms": doc["data"]["num_forms"]}


def test_theorem_check_passes_c2(capsys):
    code, out, _ = run(capsys, ["theorem-check", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["failed"] == []
    names = {c["name"] for c in doc["data"]["checks"]}
    assert {"route_agreement", "ample", "semigroup_levels"} <= names


# Exact theorem-check stdout at default flags.  The battery's output is
# kept byte-identical unless a change says why it moved.
THEOREM_CHECK_STDOUT = {
    ("A", "2", "1,2,1", "1,1"): (
        '{"data": {"checks": [{"detail": "8 twisted-sweep points vs 8 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "8 points vs oracle 8", '
        '"name": "dimension", "pass": true}, {"detail": "11 forms, stabilized=True", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "8 lattice points vs 8 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "8 star-chart images vs 8 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "8 valuation exponents vs 8 crystal points", "name": "value_set", '
        '"pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1]}}\n'
    ),
    ("C", "2", "1,2,1,2", "1,1"): (
        '{"data": {"checks": [{"detail": "16 twisted-sweep points vs 16 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "16 points vs oracle 16", '
        '"name": "dimension", "pass": true}, {"detail": "17 forms, stabilized=True", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "16 lattice points vs 16 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "16 star-chart images vs 16 string points", '
        '"name": "eta_string_bijection", "pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1, 2]}}\n'
    ),
    ("C", "2", "1,2,1,2", "2,2"): (
        '{"data": {"checks": [{"detail": "81 twisted-sweep points vs 81 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "81 points vs oracle 81", '
        '"name": "dimension", "pass": true}, {"detail": "17 forms, stabilized=True", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "81 lattice points vs 81 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "81 star-chart images vs 81 string points", '
        '"name": "eta_string_bijection", "pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [2, '
        '2], "word": [1, 2, 1, 2]}}\n'
    ),
}


@pytest.mark.parametrize("family,rank,word,lam", sorted(THEOREM_CHECK_STDOUT))
def test_theorem_check_output_is_pinned(capsys, family, rank, word, lam):
    code, out, _ = run(capsys, ["theorem-check", "--type", family, "--rank", rank,
                                "--word", word, "--lambda", lam])
    assert code == 0
    assert out == THEOREM_CHECK_STDOUT[family, rank, word, lam]


def test_theorem_check_cuts_each_weight_once(capsys, monkeypatch):
    from crystal_polytope import demazure

    seen = []

    def recording(fn):
        def wrapper(cartan, word, lam):
            seen.append((word.letters, lam.coords))
            return fn(cartan, word, lam)
        return wrapper

    original = demazure.btilde_cut
    monkeypatch.setattr(cli, "btilde_cut", recording(original))
    monkeypatch.setattr(demazure, "btilde_cut", recording(original))
    code, _, _ = run(capsys, ["theorem-check", "--type", "C", "--rank", "2",
                              "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code == 0
    # route and levels k = 0, 2 on the word, string points on the reversed word
    assert len(seen) == len(set(seen)) == 4, seen


def test_theorem_check_exit_two_on_mismatch(capsys, monkeypatch):
    from crystal_polytope.demazure import DemazureSet
    from crystal_polytope.rootdata import ReducedWord, rho

    def wrong(cartan, word, lam):
        return DemazureSet(word, lam, frozenset({(9, 9, 9)}))

    monkeypatch.setattr(cli, "btilde_cut", wrong)
    code, out, _ = run(capsys, ["theorem-check", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1"])
    assert code == 2
    doc = json.loads(out)
    assert "route_agreement" in doc["data"]["failed"]


def test_usage_errors_exit_one(capsys):
    assert run(capsys, ["enumerate", "--type", "A", "--rank", "2",
                        "--word", "1,1,2", "--lambda", "1,1"])[0] == 1
    assert run(capsys, ["enumerate", "--word", "1,2,1", "--lambda", "1,1"])[0] == 1
    assert run(capsys, ["eta", "--type", "A", "--rank", "2", "--word", "1,2,1",
                        "--point", "0,0,1"])[0] == 1  # not a member
    # options a subcommand does not take are usage errors
    for argv in (["enumerate", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--format", "hrep-text"],
                 ["enumerate", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--window", "3"],
                 ["star", "--type", "C", "--rank", "2", "--word", "1,2,1,2",
                  "--point", "0,1,2,1", "--depth", "5"],
                 ["delta-points", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--depth", "5"],
                 ["string-points", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--format", "hrep-text"],
                 # negative level and degree bounds would check nothing
                 ["theorem-check", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--k-max", "-1"],
                 ["theorem-check", "--type", "A", "--rank", "2", "--word", "1,2,1",
                  "--lambda", "1,1", "--degree-cap", "-3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    # a usage error leaves the process able to serve the next call
    code, out, _ = run(capsys, ["valuation", "--vars", "1", "--order", "hi",
                                "--poly", "t1", "--format", "csv"])
    assert code == 0 and out.strip() == "-1"


def test_gcm_file_equivalent_to_builtin(capsys, tmp_path):
    gcm = tmp_path / "c2.json"
    gcm.write_text(json.dumps([[2, -2], [-1, 2]]))
    code1, out1, _ = run(capsys, ["enumerate", "--gcm", str(gcm),
                                  "--word", "1,2,1,2", "--lambda", "1,1"])
    code2, out2, _ = run(capsys, ["enumerate", "--type", "C", "--rank", "2",
                                  "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    assert doc1["data"] == doc2["data"]


def test_malformed_gcm_file_is_a_data_error(capsys, tmp_path):
    gcm = tmp_path / "bad.json"
    for content in ({"foo": 1}, 5, [1, 2], [[2, -1], [-1, "2"]], [[2, -1], [-1, 2.5]]):
        gcm.write_text(json.dumps(content))
        code, out, err = run(capsys, ["enumerate", "--gcm", str(gcm),
                                      "--word", "1,2,1", "--lambda", "1,1"])
        assert code == 1 and out == "", content
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {gcm}: expected a JSON list of integer rows"], content


def test_output_is_deterministic(capsys):
    argv = ["delta-hrep", "--type", "C", "--rank", "2",
            "--word", "1,2,1,2", "--lambda", "1,1"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
