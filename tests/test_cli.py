"""Command-line interface: golden outputs, formats, exit codes."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crystal_polytope import binfinity, cli
from crystal_polytope.inequalities import AffineForm


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


# Exact delta-hrep JSON stdout at rho; the forms field lists the delta
# forms in the AffineForm order.
DELTA_HREP_STDOUT = {
    ("A", "2", "1,2,1"): (
        '{"data": {"forms": [{"coeffs": [-1, 0, 0], "const_abs": 0, "const_lambda": [1, '
        '0]}, {"coeffs": [1, 0, 0], "const_abs": 0, "const_lambda": [0, 0]}, '
        '{"coeffs": [1, -1, 0], "const_abs": 0, "const_lambda": [0, 1]}, {"coeffs": [0, 1, '
        '0], "const_abs": 0, "const_lambda": [0, 0]}, {"coeffs": [0, 1, -1], '
        '"const_abs": 0, "const_lambda": [0, 0]}, {"coeffs": [0, 0, -1], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 0, 1], "const_abs": 0, '
        '"const_lambda": [0, 0]}], '
        '"hrep_text": ["1 + 0*L1 + 0*L2 + -1*a1 + 0*a2 + 0*a3 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + -1*a3 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 1*a3 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 1*a2 + -1*a3 >= 0", '
        '"1 + 0*L1 + 0*L2 + 1*a1 + -1*a2 + 0*a3 >= 0", '
        '"0 + 0*L1 + 0*L2 + 1*a1 + 0*a2 + 0*a3 >= 0"], "rows": [[[-1, 0, 0], 1], [[0, 0, '
        '-1], 1], [[0, 0, 1], 0], [[0, 1, -1], 0], [[1, -1, 0], 1], [[1, 0, 0], 0]]}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1]}}\n'
    ),
    ("C", "2", "1,2,1,2"): (
        '{"data": {"forms": [{"coeffs": [-1, 0, 0, 0], "const_abs": 0, "const_lambda": [1, '
        '0]}, {"coeffs": [1, 0, 0, 0], "const_abs": 0, "const_lambda": [0, 0]}, '
        '{"coeffs": [1, -1, 0, 0], "const_abs": 0, "const_lambda": [0, 1]}, {"coeffs": [0, '
        '1, 0, 0], "const_abs": 0, "const_lambda": [0, 0]}, {"coeffs": [0, 1, -1, 0], '
        '"const_abs": 0, "const_lambda": [0, 1]}, {"coeffs": [0, 2, -1, 0], '
        '"const_abs": 0, "const_lambda": [0, 0]}, {"coeffs": [0, 0, 1, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 1, -2], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 1, -1], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, -1], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 0, 0, 1], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 2], "const_abs": 0, '
        '"const_lambda": [0, 0]}], '
        '"hrep_text": ["1 + 0*L1 + 0*L2 + -1*a1 + 0*a2 + 0*a3 + 0*a4 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + -1*a4 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 1*a4 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 1*a3 + -2*a4 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 1*a2 + -1*a3 + 0*a4 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 2*a2 + -1*a3 + 0*a4 >= 0", '
        '"1 + 0*L1 + 0*L2 + 1*a1 + -1*a2 + 0*a3 + 0*a4 >= 0", '
        '"0 + 0*L1 + 0*L2 + 1*a1 + 0*a2 + 0*a3 + 0*a4 >= 0"], "rows": [[[-1, 0, 0, 0], 1], '
        '[[0, 0, 0, -1], 1], [[0, 0, 0, 1], 0], [[0, 0, 1, -2], 0], [[0, 1, -1, 0], 1], '
        '[[0, 2, -1, 0], 0], [[1, -1, 0, 0], 1], [[1, 0, 0, 0], 0]]}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1, 2]}}\n'
    ),
    ("G", "2", "1,2,1,2,1,2"): (
        '{"data": {"forms": [{"coeffs": [-1, 0, 0, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [1, 0]}, {"coeffs": [1, 0, 0, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [1, -1, 0, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 1, 0, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 2, -1, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 3, -1, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 1, 0, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 1, -2, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 0, 1, -1, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 2, -3, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 1, 0, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 1, -1, 0], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 0, 0, 2, -1, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 3, -2, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 3, -1, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 1, 0], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 1, -3], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 1, -2], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 1, -1], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 2, -3], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 0, -1], "const_abs": 0, '
        '"const_lambda": [0, 1]}, {"coeffs": [0, 0, 0, 0, 0, 1], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 0, 2], "const_abs": 0, '
        '"const_lambda": [0, 0]}, {"coeffs": [0, 0, 0, 0, 0, 3], "const_abs": 0, '
        '"const_lambda": [0, 0]}], '
        '"hrep_text": ["1 + 0*L1 + 0*L2 + -1*a1 + 0*a2 + 0*a3 + 0*a4 + 0*a5 + 0*a6 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 0*a4 + 0*a5 + -1*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 0*a4 + 0*a5 + 1*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 0*a4 + 1*a5 + -3*a6 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 1*a4 + -1*a5 + 0*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 0*a3 + 3*a4 + -2*a5 + 0*a6 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 1*a3 + -2*a4 + 0*a5 + 0*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 0*a2 + 2*a3 + -3*a4 + 0*a5 + 0*a6 >= 0", '
        '"1 + 0*L1 + 0*L2 + 0*a1 + 2*a2 + -1*a3 + 0*a4 + 0*a5 + 0*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 0*a1 + 3*a2 + -1*a3 + 0*a4 + 0*a5 + 0*a6 >= 0", '
        '"1 + 0*L1 + 0*L2 + 1*a1 + -1*a2 + 0*a3 + 0*a4 + 0*a5 + 0*a6 >= 0", '
        '"0 + 0*L1 + 0*L2 + 1*a1 + 0*a2 + 0*a3 + 0*a4 + 0*a5 + 0*a6 >= 0"], "rows": [[[-1, '
        '0, 0, 0, 0, 0], 1], [[0, 0, 0, 0, 0, -1], 1], [[0, 0, 0, 0, 0, 1], 0], [[0, 0, 0, '
        '0, 1, -3], 0], [[0, 0, 0, 1, -1, 0], 1], [[0, 0, 0, 3, -2, 0], 0], [[0, 0, 1, -2, '
        '0, 0], 1], [[0, 0, 2, -3, 0, 0], 0], [[0, 2, -1, 0, 0, 0], 1], [[0, 3, -1, 0, 0, '
        '0], 0], [[1, -1, 0, 0, 0, 0], 1], [[1, 0, 0, 0, 0, 0], 0]]}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1, 2, 1, 2]}}\n'
    ),
}


@pytest.mark.parametrize("family,rank,word", sorted(DELTA_HREP_STDOUT))
def test_delta_hrep_json_is_pinned(capsys, family, rank, word):
    code, out, _ = run(capsys, ["delta-hrep", "--type", family, "--rank", rank,
                                "--word", word, "--lambda", "1,1"])
    assert code == 0
    assert out == DELTA_HREP_STDOUT[family, rank, word]


def test_delta_points_equal_enumerate(capsys):
    code1, out1, _ = run(capsys, ["delta-points", "--type", "A", "--rank", "2",
                                  "--word", "1,2,1", "--lambda", "1,1",
                                  "--format", "csv"])
    code2, out2, _ = run(capsys, ["enumerate", "--type", "A", "--rank", "2",
                                  "--word", "1,2,1", "--lambda", "1,1",
                                  "--format", "csv"])
    assert code1 == code2 == 0
    assert sorted(out1.splitlines()) == sorted(out2.splitlines())



# sha256 of the delta-points JSON stdout, captured from the box filter that
# tested every cell (G2 at 3rho, C3 at 2rho) and from the walk that rebuilt
# every row's partial sum at every node (A2 at 4rho, G2 at 2rho); at k*rho on
# a longest word there are (k+1)^N points on G2 and C3, and Weyl's formula
# gives 125 on A2 at 4rho
DELTA_POINTS_SHA256 = {
    ("A", "2", "1,2,1", "4,4"):
        ("f07346a0b762fb2aba7ddb99d2328502dac446218f4c09a678605d230cbd4b01", 125),
    ("G", "2", "1,2,1,2,1,2", "2,2"):
        ("b698dff205dc232c8fe64946f379ced22b02a51ca2ead83327307a446c4a8fab", 3 ** 6),
    ("G", "2", "1,2,1,2,1,2", "3,3"):
        ("8b6d3723a815794828f44a960fa63dab4c7f800b5ad4c4d59af22f62ce788336", 4 ** 6),
    ("C", "3", "1,2,1,3,2,1,3,2,3", "2,2,2"):
        ("c11defbbb0fd8bbaed3bbb355fee27c8722dafedb6c53d4d656bb3a35755a00c", 3 ** 9),
}


@pytest.mark.parametrize("family,rank,word,lam", sorted(DELTA_POINTS_SHA256))
def test_delta_points_output_is_pinned(capsys, family, rank, word, lam):
    code, out, _ = run(capsys, ["delta-points", "--type", family, "--rank", rank,
                                "--word", word, "--lambda", lam])
    digest, count = DELTA_POINTS_SHA256[family, rank, word, lam]
    assert code == 0
    assert json.loads(out)["data"]["count"] == count
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# one successful call of each command that builds points, rows, forms or checks
ACYCLIC_ARGVS = [
    ["delta-points", "--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "4,4"],
    ["delta-hrep", "--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "1,1"],
    ["enumerate", "--type", "C", "--rank", "2", "--word", "1,2,1,2", "--lambda", "1,1"],
    ["string-points", "--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "1,1"],
    ["ample", "--type", "C", "--rank", "2", "--word", "1,2,1,2", "--lambda", "2,3"],
    ["theorem-check", "--type", "G", "--rank", "2", "--word", "1,2,1,2,1,2", "--lambda", "1,1"],
    ["theorem-check", "--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "1,1",
     "--degree-cap", "2"],
]


@pytest.mark.parametrize("argv", ACYCLIC_ARGVS, ids=lambda argv: f"{argv[0]}-{argv[2]}{argv[4]}")
def test_successful_commands_leave_no_reference_cycles(capsys, argv):
    # a cycle keeps what it holds (a walk's point list, say) until the cyclic
    # collector runs; the parser is built once per process, so build it first
    cli._parser()
    gc.collect()
    gc.disable()
    try:
        code = cli.main(argv)
        left = gc.collect()
    finally:
        gc.enable()
    assert code == 0
    assert left == 0


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


@pytest.mark.parametrize("family,rank,word,point,partner", [
    ("A", 3, "1,2,1,3", "2,4,2,6", "2,0,0,6,0,4,0,2"),
    ("A", 3, "1,2,1,3", "2,0,0,6,0,4,0,2", "2,4,2,6,0,0"),
    ("B", 3, "2,3,2,1,3,2", "2,4,2,5,0,1", "1,0,0,5,0,2,0,0,4,0,2"),
    ("B", 3, "2,3,2,1,3,2", "1,0,0,5,0,2,0,0,4,0,2", "2,4,2,5,0,1,0,0,0"),
])
def test_star_of_a_short_word_prints_the_whole_partner(capsys, family, rank, word, point, partner):
    # a short word's partner can reach past the N positive roots; starring it gives the point back
    code, out, _ = run(capsys, ["star", "--type", family, "--rank", str(rank),
                                "--word", word, "--point", point, "--format", "csv"])
    assert code == 0 and out.strip() == partner


@pytest.fixture
def membership_calls(monkeypatch):
    """The elements membership is asked about, from the CLI and from binfinity."""
    original, calls = binfinity.membership, []

    def counting(spec, x):
        calls.append(x)
        return original(spec, x)

    monkeypatch.setattr(cli, "membership", counting)
    monkeypatch.setattr(binfinity, "membership", counting)
    return calls


def test_star_checks_membership_once(capsys, membership_calls):
    code, out, _ = run(capsys, ["star", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--point", "0,1,2,1",
                                "--format", "csv"])
    assert code == 0 and out.strip() == "0,1,2,1"
    assert len(membership_calls) == 1, membership_calls
    code, out, err = run(capsys, ["star", "--type", "C", "--rank", "2",
                                  "--word", "1,2,1,2", "--point", "0,0,1,0"])
    assert code == 1 and out == ""
    assert "error: point [0, 0, 1, 0] is not in the crystal image for this word" in err


ETA_ARGV = ["eta", "--type", "C", "--rank", "2", "--word", "1,2,1,2"]


@pytest.mark.parametrize("opposite", [[], ["--opposite"]])
def test_eta_peel_is_the_only_membership_check(capsys, membership_calls, opposite):
    code, out, _ = run(capsys, ETA_ARGV + ["--point", "0,1,2,1", "--format", "csv"] + opposite)
    assert code == 0 and out.strip() == ("1,2,1,0" if opposite else "0,1,2,1")
    assert membership_calls == []


@pytest.mark.parametrize("opposite", [[], ["--opposite"]])
@pytest.mark.parametrize("argv,error", [
    # a non-member of a longest-word chart, with a negative entry, and past the word
    (ETA_ARGV + ["--point", "0,0,1,0"],
     "error: point [0, 0, 1, 0] is not in the crystal image for this word"),
    (ETA_ARGV + ["--point", "1,-1,0,0"],
     "error: point [1, -1, 0, 0] is not in the crystal image for this word"),
    (ETA_ARGV + ["--point", "0,1,2,1,1"],
     "error: point [0, 1, 2, 1, 1] is not in the crystal image for this word"),
    # on a word that is not a longest word, a non-member is named before the word
    (["eta", "--type", "A", "--rank", "2", "--word", "1,2", "--point", "1,-1"],
     "error: point [1, -1] is not in the crystal image for this word"),
    (["eta", "--type", "A", "--rank", "2", "--word", "1,2", "--point", "0,1"],
     "error: base word must be a reduced word for the longest element"),
    (["eta", "--type", "A", "--rank", "2", "--word", "1,2", "--point", "0,0"],
     "error: base word must be a reduced word for the longest element"),
])
def test_eta_errors_are_pinned(capsys, argv, error, opposite):
    code, out, err = run(capsys, argv + opposite)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == error

def test_matrix_subcommand(capsys):
    code, out, _ = run(capsys, ["matrix", "--type", "A", "--rank", "2",
                                "--word", "1,2,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["entries"][2][0] == "t1*t2"


MATRIX_STDOUT = {
    ("A", "2", "1,2,1"): (
        '{"data": {"entries": [["1", "0", "0"], ["t3 + t1", "1", "0"], ["t1*t2", '
        '"t2", "1"]], "size": 3}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", '
        '"lambda": null, "word": [1, 2, 1]}}\n'
    ),
    ("A", "3", "1,2,1,3,2,1"): (
        '{"data": {"entries": [["1", "0", "0", "0"], ["t6 + t3 + t1", "1", "0", '
        '"0"], ["t3*t5 + t1*t5 + t1*t2", "t5 + t2", "1", "0"], ["t1*t2*t4", '
        '"t2*t4", "t4", "1"]], "size": 4}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", '
        '"lambda": null, "word": [1, 2, 1, 3, 2, 1]}}\n'
    ),
    ("C", "2", "1,2,1,2"): (
        '{"data": {"entries": [["1", "0", "0", "0"], ["t3 + t1", "1", "0", "0"], '
        '["t3*t4 + t1*t4 + t1*t2", "t4 + t2", "1", "0"], ["t1*t2*t3", "t2*t3", '
        '"t3 + t1", "1"]], "size": 4}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", '
        '"lambda": null, "word": [1, 2, 1, 2]}}\n'
    ),
    ("C", "2", "2,1,2,1"): (
        '{"data": {"entries": [["1", "0", "0", "0"], ["t4 + t2", "1", "0", "0"], '
        '["t2*t3", "t3 + t1", "1", "0"], ["t2*t3*t4", "t3*t4 + t1*t4 + t1*t2", '
        '"t4 + t2", "1"]], "size": 4}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", '
        '"lambda": null, "word": [2, 1, 2, 1]}}\n'
    ),
}


@pytest.mark.parametrize("family,rank,word", sorted(MATRIX_STDOUT))
def test_matrix_output_is_pinned(capsys, family, rank, word):
    code, out, _ = run(capsys, ["matrix", "--type", family, "--rank", rank, "--word", word])
    assert code == 0
    assert out == MATRIX_STDOUT[family, rank, word]


def test_ample_subcommand(capsys):
    code, out, _ = run(capsys, ["ample", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--lambda", "2,3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"] == {"ample": True, "certified": True,
                           "num_forms": doc["data"]["num_forms"]}


def test_theorem_check_passes_c2(capsys):
    code, out, _ = run(capsys, ["theorem-check", "--type", "C", "--rank", "2",
                                "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["data"]["failed"] == []
    names = {c["name"] for c in doc["data"]["checks"]}
    assert {"route_agreement", "ample", "semigroup_levels"} <= names


# Exact theorem-check stdout at default flags, or with the extra flags
# given.  The battery's output is kept byte-identical unless a change says
# why it moved.
THEOREM_CHECK_STDOUT = {
    ("A", "2", "1,2,1", "1,1", ()): (
        '{"data": {"checks": [{"detail": "8 twisted-sweep points vs 8 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "8 points vs oracle 8", '
        '"name": "dimension", "pass": true}, {"detail": "11 forms", '
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
    ("C", "2", "1,2,1,2", "1,1", ()): (
        '{"data": {"checks": [{"detail": "16 twisted-sweep points vs 16 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "16 points vs oracle 16", '
        '"name": "dimension", "pass": true}, {"detail": "17 forms", '
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
    ("C", "2", "1,2,1,2", "2,2", ()): (
        '{"data": {"checks": [{"detail": "81 twisted-sweep points vs 81 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "81 points vs oracle 81", '
        '"name": "dimension", "pass": true}, {"detail": "17 forms", '
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
    # a prefix word: the value set comes from the span of the prefix itself
    ("A", "2", "1,2", "1,1", ()): (
        '{"data": {"checks": [{"detail": "5 twisted-sweep points vs 5 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "8 forms", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "5 lattice points vs 5 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "5 valuation exponents vs 5 crystal points", "name": "value_set", '
        '"pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2]}}\n'
    ),
    # a palindrome: the string side peels the cut the route check made
    ("A", "2", "1,2,1", "2,2", ()): (
        '{"data": {"checks": [{"detail": "27 twisted-sweep points vs 27 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "27 points vs oracle 27", '
        '"name": "dimension", "pass": true}, {"detail": "11 forms", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "27 lattice points vs 27 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "27 star-chart images vs 27 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "27 valuation exponents vs 27 crystal points", "name": "value_set", '
        '"pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [2, '
        '2], "word": [1, 2, 1]}}\n'
    ),
    # products of sections up to degree 2 give values in the crystal image
    ("A", "2", "1,2,1", "1,1", ("--degree-cap", "2")): (
        '{"data": {"checks": [{"detail": "8 twisted-sweep points vs 8 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "8 points vs oracle 8", '
        '"name": "dimension", "pass": true}, {"detail": "11 forms", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "8 lattice points vs 8 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "8 star-chart images vs 8 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "8 valuation exponents vs 8 crystal points", "name": "value_set", '
        '"pass": true}, {"detail": "7 closure values up to degree 2", '
        '"name": "cone_values_members", "pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1]}}\n'
    ),
    # the default window leaves this closure uncertified, hence exit 2
    ("A", "3", "1,2,1,3,2,1", "1,1,1", ("--degree-cap", "2")): (
        '{"data": {"checks": [{"detail": "64 twisted-sweep points vs 64 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "64 points vs oracle 64", '
        '"name": "dimension", "pass": true}, {"detail": "28 forms", '
        '"name": "closure_certified", "pass": false}, '
        '{"detail": "closure not certified", "name": "ample", '
        '"pass": false}, {"detail": "k=0:ok,k=1:ok,k=2:ok", "name": "semigroup_levels", '
        '"pass": true}, {"detail": "64 star-chart images vs 64 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "64 valuation exponents vs 64 crystal points", "name": "value_set", '
        '"pass": true}, {"detail": "12 closure values up to degree 2", '
        '"name": "cone_values_members", "pass": true}], "failed": ["closure_certified", '
        '"ample"]}, "meta": {"convention": "word is application-ordered, j_1 first", '
        '"lambda": [1, 1, 1], "word": [1, 2, 1, 3, 2, 1]}}\n'
    ),
    # degree 3 products of the A2 sections, from the integer span path
    ("A", "2", "1,2,1", "1,1", ("--degree-cap", "3")): (
        '{"data": {"checks": [{"detail": "8 twisted-sweep points vs 8 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "8 points vs oracle 8", '
        '"name": "dimension", "pass": true}, {"detail": "11 forms", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "8 lattice points vs 8 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "8 star-chart images vs 8 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "8 valuation exponents vs 8 crystal points", "name": "value_set", '
        '"pass": true}, {"detail": "13 closure values up to degree 3", '
        '"name": "cone_values_members", "pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1], "word": [1, 2, 1]}}\n'
    ),
    # window 8 certifies the A3 closure, so every check passes
    ("A", "3", "1,2,1,3,2,1", "1,1,1", ("--window", "8")): (
        '{"data": {"checks": [{"detail": "64 twisted-sweep points vs 64 cut points", '
        '"name": "route_agreement", "pass": true}, {"detail": "64 points vs oracle 64", '
        '"name": "dimension", "pass": true}, {"detail": "56 forms", '
        '"name": "closure_certified", "pass": true}, '
        '{"detail": "constants nonnegative at this weight", "name": "ample", '
        '"pass": true}, {"detail": "64 lattice points vs 64 crystal points", '
        '"name": "hrep_lattice", "pass": true}, {"detail": "k=0:ok,k=1:ok,k=2:ok", '
        '"name": "semigroup_levels", "pass": true}, '
        '{"detail": "64 star-chart images vs 64 string points", '
        '"name": "eta_string_bijection", "pass": true}, '
        '{"detail": "64 valuation exponents vs 64 crystal points", "name": "value_set", '
        '"pass": true}], "failed": []}, '
        '"meta": {"convention": "word is application-ordered, j_1 first", "lambda": [1, '
        '1, 1], "word": [1, 2, 1, 3, 2, 1]}}\n'
    ),
}


@pytest.mark.parametrize("family,rank,word,lam,extra", sorted(THEOREM_CHECK_STDOUT))
def test_theorem_check_output_is_pinned(capsys, family, rank, word, lam, extra):
    code, out, _ = run(capsys, ["theorem-check", "--type", family, "--rank", rank,
                                "--word", word, "--lambda", lam, *extra])
    expected = THEOREM_CHECK_STDOUT[family, rank, word, lam, extra]
    assert code == (2 if json.loads(expected)["data"]["failed"] else 0)
    assert out == expected


@pytest.mark.parametrize("family,rank,word,cuts", [
    # route and levels k = 0, 2 on the word, string points on the reversed word
    ("C", "2", "1,2,1,2", 4),
    # a palindrome is its own reversal, so the route's cut serves the string side
    ("A", "2", "1,2,1", 3),
])
def test_theorem_check_cuts_each_weight_once(capsys, monkeypatch, family, rank, word, cuts):
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
    code, _, _ = run(capsys, ["theorem-check", "--type", family, "--rank", rank,
                              "--word", word, "--lambda", "1,1"])
    assert code == 0
    assert len(seen) == len(set(seen)) == cuts, seen


def test_theorem_check_enumerates_each_system_once(capsys, monkeypatch):
    systems = []
    original = cli.lattice_points

    def recording(system):
        systems.append(system)
        return original(system)

    monkeypatch.setattr(cli, "lattice_points", recording)
    code, _, _ = run(capsys, ["theorem-check", "--type", "C", "--rank", "2",
                              "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code == 0
    # hrep_lattice and level k = 1 share the system at the weight itself
    assert len(systems) == len(set(systems)) == 3, systems


def test_delta_hrep_restricts_the_closure_twice(capsys, monkeypatch):
    # once per closure: the certification compares the window-4 restriction,
    # kept as the delta forms, with the window-6 one
    from crystal_polytope import inequalities

    calls = []
    original = inequalities._restricted

    def counting(forms, r):
        calls.append(r)
        return original(forms, r)

    monkeypatch.setattr(inequalities, "_restricted", counting)
    code, _, _ = run(capsys, ["delta-hrep", "--type", "C", "--rank", "2",
                              "--word", "1,2,1,2", "--lambda", "1,1"])
    assert code == 0
    assert calls == [4, 4], calls


def _with_extra_row(forms):
    return forms + (AffineForm.make({1: -1}, (0, 0)),)  # -a_1 >= 0


def _unbounded(forms):
    return (AffineForm.make({1: -1}, (0, 0, 0)),)  # leaves a_2, a_3, a_4 free


@pytest.mark.parametrize("family,rank,word,lam,forms,detail", [
    # wrong forms: level 0 holds only the origin, which the extra row keeps
    ("A", "2", "1,2,1", "1,1", _with_extra_row,
     "k=0:ok,k=1:FAIL,k=2:FAIL; k=1: 8 cut points vs 3 lattice points; "
     "first difference [1, 0, 0], only among the cut points"),
    # an unbounded system is a mismatch, not an error; this prefix's closure is
    # uncertified, so hrep_lattice does not run and only the levels read the system
    ("A", "3", "1,2,1,3", "1,1,1", _unbounded, "k=0:FAIL,k=1:FAIL,k=2:FAIL"),
])
def test_theorem_check_levels_fail_on_wrong_forms(capsys, monkeypatch, family, rank, word,
                                                  lam, forms, detail):
    original = cli.generate_xi

    def injected(spec, window):
        xi = original(spec, window)
        return dataclasses.replace(xi, delta=forms(xi.delta))

    monkeypatch.setattr(cli, "generate_xi", injected)
    code, out, _ = run(capsys, ["theorem-check", "--type", family, "--rank", rank,
                                "--word", word, "--lambda", lam])
    assert code == 2
    doc = json.loads(out)
    assert "semigroup_levels" in doc["data"]["failed"]
    levels = next(c for c in doc["data"]["checks"] if c["name"] == "semigroup_levels")
    assert levels["detail"] == detail


@pytest.mark.parametrize("word,extra,detail", [
    ("1,2,1,3,2,1", [], "closure not certified"),
    # certified at window 8 but not ample: the weight-only form -L2 >= 0 is
    # the first delta form with a negative constant at rho
    ("2,1,2,3,2,1", ["--window", "8"],
     "0 + 0*L1 + -1*L2 + 0*L3 + 0*a1 + 0*a2 + 0*a3 + 0*a4 + 0*a5 + 0*a6 >= 0 (constant -1)"),
])
def test_failing_ample_row_names_its_cause(capsys, word, extra, detail):
    code, out, _ = run(capsys, ["theorem-check", "--type", "A", "--rank", "3",
                                "--word", word, "--lambda", "1,1,1", "--k-max", "0", *extra])
    assert code == 2
    ample = next(c for c in json.loads(out)["data"]["checks"] if c["name"] == "ample")
    assert ample == {"name": "ample", "pass": False, "detail": detail}


@pytest.mark.parametrize("argv,error", [
    (["ample", "--type", "A", "--rank", "3", "--word", "1,2,3,2,1,2", "--lambda", "1,1,1"],
     "error: the descent closure of word [1, 2, 3, 2, 1, 2] at window 9 passed 20000 forms"),
    (["ample", "--type", "D", "--rank", "4", "--word", "4,2,1,2,3,4,2,4,1,2,3,2",
      "--lambda", "1,1,1,1"],
     "error: the descent closure of word [4, 2, 1, 2, 3, 4, 2, 4, 1, 2, 3, 2] at window 16 "
     "passed 20000 forms"),
    (["theorem-check", "--type", "A", "--rank", "3", "--word", "1,2,3,2,1,2",
      "--lambda", "1,1,1"],
     "error: the descent closure of word [1, 2, 3, 2, 1, 2] at window 9 passed 20000 forms"),
])
def test_diverging_closure_is_refused(capsys, argv, error):
    # each closes at the word length; the certification closure, rank
    # positions wider, diverges and passes the form cap within seconds
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [error]


@pytest.mark.parametrize("argv,error", [
    (["--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "1,1", "--window", "2"],
     "error: window must cover the base word"),
    (["--type", "A", "--rank", "3", "--word", "1,2,3,2,1,2", "--lambda", "1,1,1"],
     "error: the descent closure of word [1, 2, 3, 2, 1, 2] at window 9 passed 20000 forms"),
])
def test_theorem_check_refuses_the_closure_before_either_route(monkeypatch, capsys, argv, error):
    # the closure does not depend on the weight, so a refused one must not wait
    # for the routes, which at a large weight run for many seconds
    def route(*args):
        raise AssertionError("a route ran before the closure was built")

    monkeypatch.setattr(cli, "enumerate_demazure", route)
    monkeypatch.setattr(cli, "btilde_cut", route)
    code, out, err = run(capsys, ["theorem-check", *argv])
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [error]


@pytest.mark.parametrize("argv,error", [
    (["--type", "D", "--rank", "4", "--word", "1,2,1,3,4,2,1,3,4,2,3,4", "--lambda", "1,1,1,1"],
     "error: eliminating a9 from 16967 rows would build 59794476 rows, "
     "past the cap of 1000000"),
    (["--type", "A", "--rank", "4", "--word", "1,2,1,3,2,1,4,3,2,1", "--lambda", "1,1,1,1",
      "--window", "13"],
     "error: eliminating a3 from 3736 rows would build 1530624 rows, "
     "past the cap of 1000000"),
])
def test_delta_hrep_past_the_elimination_row_cap_is_refused(capsys, argv, error):
    # redundancy removal on these systems would build its rows until memory runs out
    code, out, err = run(capsys, ["delta-hrep", *argv])
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [error]


def test_theorem_check_exit_two_on_mismatch(capsys, monkeypatch):
    from crystal_polytope.demazure import DemazureSet

    def wrong(cartan, word, lam):
        return DemazureSet(word, frozenset({(9, 9, 9)}))

    monkeypatch.setattr(cli, "btilde_cut", wrong)
    code, out, _ = run(capsys, ["theorem-check", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1"])
    assert code == 2
    doc = json.loads(out)
    assert "route_agreement" in doc["data"]["failed"]
    route = next(c for c in doc["data"]["checks"] if c["name"] == "route_agreement")
    assert route["detail"] == ("8 twisted-sweep points vs 1 cut points; "
                               "first difference [0, 0, 0], only among the twisted-sweep points")


def test_failing_rows_name_a_witness(capsys, monkeypatch):
    # a sweep that misses (1, 1, 0): every row that compares the slice with
    # another point set names the first sorted point the two do not share
    original = cli.enumerate_demazure

    def missing(cartan, word, lam):
        dem = original(cartan, word, lam)
        return dataclasses.replace(dem, coords=dem.coords - {(1, 1, 0)})

    monkeypatch.setattr(cli, "enumerate_demazure", missing)
    code, out, _ = run(capsys, ["theorem-check", "--type", "A", "--rank", "2",
                                "--word", "1,2,1", "--lambda", "1,1"])
    assert code == 2
    details = {c["name"]: c["detail"] for c in json.loads(out)["data"]["checks"]
               if not c["pass"]}
    assert details == {
        "route_agreement": "7 twisted-sweep points vs 8 cut points; "
                           "first difference [1, 1, 0], only among the cut points",
        "dimension": "7 points vs oracle 8",
        "hrep_lattice": "8 lattice points vs 7 crystal points; "
                        "first difference [1, 1, 0], only among the lattice points",
        # the string chart of the reversed word sends (1, 1, 0) to (0, 1, 1)
        "eta_string_bijection": "7 star-chart images vs 8 string points; "
                                "first difference [0, 1, 1], only among the string points",
        "value_set": "8 valuation exponents vs 7 crystal points; "
                     "first difference [1, 1, 0], only among the valuation exponents"}


def test_string_points_refuse_a_short_word_before_the_cut(capsys, monkeypatch):
    # the cut grows with the weight (seconds at 16 rho) and a short word would discard it
    def cut(*args):
        raise AssertionError("string-points cut a slice along a short word")

    monkeypatch.setattr(cli, "btilde_cut", cut)
    code, out, err = run(capsys, ["string-points", "--type", "A", "--rank", "3",
                                  "--word", "1,2,1,3,2", "--lambda", "16,16,16"])
    assert code == 1 and out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: string points need a reduced word for the longest element"]


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


@pytest.mark.parametrize("lam,error", [("1,1", "error: weight rank mismatch"),
                                       ("-1,1,1", "error: weight must be dominant")],
                         ids=["short", "non-dominant"])
@pytest.mark.parametrize("command", ["ample", "delta-points", "delta-hrep"])
def test_weight_of_the_wrong_rank_is_rejected(capsys, command, lam, error):
    # the default window leaves this closure uncertified, so only the weight
    # checks at the command line catch a short or a non-dominant weight
    code, out, err = run(capsys, [command, "--type", "A", "--rank", "3",
                                  "--word", "1,2,1,3,2,1", f"--lambda={lam}"])
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == error


@pytest.mark.parametrize("argv,error", [
    (["valuation", "--vars", "3", "--order", "hi", "--poly", "t5"],
     "error: variable t5 out of range (nvars=3)"),
    (["valuation", "--vars", "1", "--order", "hi", "--poly", "1/0"],
     "error: zero denominator in '1/0'"),
    # argparse names the flag
    (["valuation", "--vars", "-1", "--order", "hi", "--poly", "1"],
     "crystal-polytope valuation: error: argument --vars: "
     "expected a nonnegative integer, got '-1'"),
    # the valuation side exists for type A only, so the cap would check nothing
    (["theorem-check", "--type", "C", "--rank", "2", "--word", "1,2,1,2", "--lambda", "1,1",
      "--degree-cap", "2"],
     "error: --degree-cap checks the valuation side, which exists for type A only"),
    # the form cap refuses this window before any form or template is built
    (["ample", "--type", "A", "--rank", "2", "--word", "1,2,1", "--lambda", "1,1",
      "--window", "1000000000"],
     "error: the descent closure of word [1, 2, 1] at window 1000000000 passed 20000 forms"),
    # the peel along a short word stops short of zero and merges points:
    # 4 for the 5 of A2 1,2 and 18 for the 24 of A3 1,2,1,3
    (["string-points", "--type", "A", "--rank", "2", "--word", "1,2", "--lambda", "1,1"],
     "error: string points need a reduced word for the longest element"),
    (["string-points", "--type", "A", "--rank", "3", "--word", "1,2,1,3", "--lambda", "1,1,1"],
     "error: string points need a reduced word for the longest element"),
])
def test_data_errors_exit_one_with_one_error_line(capsys, argv, error):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # a usage error, reported by argparse
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert [line for line in captured.err.splitlines() if "error:" in line] == [error]


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


# the crystal_polytope modules that importing each module loads
IMPORTS = {
    "rootdata": {"rootdata"},
    "polytope": {"polytope"},
    "valuation": {"rootdata", "valuation"},
    "zcrystal": {"rootdata", "zcrystal"},
    "binfinity": {"binfinity", "rootdata", "zcrystal"},
    "demazure": {"binfinity", "demazure", "rootdata", "zcrystal"},
    "inequalities": {"inequalities", "polytope", "rootdata", "zcrystal"},
    "cli": {"binfinity", "cli", "demazure", "inequalities", "polytope", "rootdata",
            "valuation", "zcrystal"},
}


@pytest.mark.parametrize("module,loaded", IMPORTS.items(), ids=IMPORTS)
def test_importing_a_module_loads_only_the_modules_it_imports(module, loaded):
    # a fresh interpreter, so the modules this test session loaded do not count;
    # the valuation side and the polytope layer load no crystal code
    src = Path(cli.__file__).resolve().parents[1]
    probe = (f"import sys, crystal_polytope.{module}\n"
             "print(*(m.split('.', 1)[1] for m in sys.modules if m.startswith('crystal_polytope.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert set(proc.stdout.split()) == loaded
