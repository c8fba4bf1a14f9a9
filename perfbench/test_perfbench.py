"""Tests of the benchmark itself: its oracles, its output checks and a quick run.

    python3 -m pytest -q perfbench

The oracles must agree with the Weyl formula and with the package on
every weight the workloads use; every output check must reject a
corrupted output; and each workload, cut down to a few small ops, must
run with every check on, untraced and traced.
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

from crystal_polytope.demazure import enumerate_demazure  # noqa: E402
from crystal_polytope.rootdata import ReducedWord, WeightVec, weyl_dim_oracle  # noqa: E402

import oracles  # noqa: E402
import workloads as wk  # noqa: E402
from oracles import WrongOutput  # noqa: E402
from tracing import Tracer  # noqa: E402

CHARTS = [wk.A2, wk.C2, wk.G2, wk.A3, wk.B3, wk.C3, wk.A4]


def weights_used():
    """Every (chart, weight) whose whole-word slice a workload checks."""
    out = [(chart, lam) for _, chart, lam, _, _ in wk.LADDER]
    out += [(chart, wk.rho(chart, k)) for _, chart, ks, _ in wk.DILATE for k in ks]
    out += [(chart, lam) for chart, lam, _ in wk.SPANS]
    out += [(chart, wk.rho(chart, k)) for chart, k in wk.QUERY_SLICES]
    return sorted(set(out), key=repr)


@pytest.mark.parametrize("chart", CHARTS, ids=repr)
def test_oracle_cartan_matrices_match_the_package(chart):
    assert chart.rows() == chart.cartan().rows


@pytest.mark.parametrize("chart,lam", weights_used(), ids=repr)
def test_dimension_oracles_on_every_weight_used(chart, lam):
    dim = oracles.demazure_dim(chart.rows(), chart.word, lam)
    assert dim == weyl_dim_oracle(chart.cartan(), WeightVec(lam))
    if len(set(lam)) == 1:
        assert dim == oracles.rho_dim(chart.family, chart.rank, lam[0])


@pytest.mark.parametrize("chart,lam,r", [(c, lam, r) for c, lam, r in wk.SPANS if r]
                         + [(wk.C3, (1, 1, 1), r) for r in (2, 4, 6)]
                         + [(wk.G2, (1, 2), r) for r in (3, 5)], ids=repr)
def test_demazure_dim_on_prefix_words_matches_the_slice(chart, lam, r):
    word = chart.word[:r]
    slice_ = enumerate_demazure(chart.cartan(), ReducedWord(word), WeightVec(lam))
    assert oracles.demazure_dim(chart.rows(), word, lam) == len(slice_)


def test_demazure_character_of_a2_adjoint():
    char = oracles.demazure_character(wk.A2.rows(), wk.A2.word, (1, 1))
    assert char[(0, 0)] == 2 and sum(char.values()) == 8 and min(char.values()) > 0


def test_leading_value():
    terms = {(1, 2, 0): 1, (1, 0, 5): 2, (0, 3, 3): -1}
    assert oracles.leading_value(terms, "hi") == (-1, -2, 0)
    assert oracles.leading_value(terms, "tilde") == (-5, 0, -1)


@pytest.mark.parametrize("chart,lam", [(wk.A2, (1, 1)), (wk.A2, (3, 2)), (wk.A2, (0, 4)),
                                       (wk.C2, (1, 1)), (wk.C2, (2, 3)), (wk.C2, (3, 0))], ids=repr)
def test_closed_form_slices_match_the_sweep(chart, lam):
    name = wk.CONE_CHARTS[chart]
    box = itertools.product(range(12), repeat=len(chart.word))
    display = {p for p in box if oracles.in_slice(name, lam, p)}
    assert display == enumerate_demazure(chart.cartan(), ReducedWord(chart.word), WeightVec(lam)).coords


def test_image_cones():
    assert oracles.in_image_cone("A2", (3, 2, 2)) and not oracles.in_image_cone("A2", (0, 1, 2))
    assert oracles.in_image_cone("C2", (0, 2, 4, 2)) and not oracles.in_image_cone("C2", (0, 1, 3, 0))


def _op(ops, name):
    return next(op for op in ops if op.name == name)


def _checked(op, ctx=None):
    out = op.call()
    assert op.check(out, ctx or {}) is True
    return out


def _cli_with(out, mutate):
    rc, text = out
    doc = json.loads(text)
    rc = mutate(doc["data"]) or rc
    return rc, json.dumps(doc)


def test_ladder_check_rejects_flipped_verdicts_and_wrong_sizes():
    ops = wk.ladder(None, small=True)
    op = _op(ops, "A2 rho")
    out = _checked(op)

    def flip(data):
        data["checks"][0]["pass"] = False
        data["failed"] = [data["checks"][0]["name"]]
        return 2

    def shrink(data):
        data["checks"][0]["detail"] = "7 twisted-sweep points vs 7 cut points"

    def drop(data):
        del data["checks"][-1]

    for mutate in (flip, shrink, drop):
        with pytest.raises(WrongOutput):
            op.check(_cli_with(out, mutate), {})
    with pytest.raises(WrongOutput):
        op.check((2, out[1]), {})


def test_ladder_counts_the_a3_fault_as_failed_and_nothing_else():
    op = _op(wk.ladder(None, small=True), "A3 rho")
    out = op.call()
    assert op.check(out, {}) is False

    def extra_fault(data):
        data["checks"][0]["pass"] = False
        data["failed"] = [c["name"] for c in data["checks"] if not c["pass"]]

    with pytest.raises(WrongOutput):
        op.check(_cli_with(out, extra_fault), {})


def test_delta_points_check_rejects_dropped_or_moved_points():
    op = _op(wk.polytope_dilate(None, small=True), "delta-points C2 1rho")
    out = _checked(op)

    def drop(data):
        data["points"].pop()
        data["count"] -= 1

    def move(data):
        data["points"][-1] = [9, 9, 9, 9]

    def duplicate(data):
        data["points"][-1] = data["points"][-2]

    for mutate in (drop, move, duplicate):
        with pytest.raises(WrongOutput):
            op.check(_cli_with(out, mutate), {})


def _hrep_ops(chart):
    ops = wk.polytope_dilate(None, small=True)
    points = _op(ops, f"delta-points {chart} 1rho")
    op = _op(ops, f"delta-hrep {chart} 1rho")
    ctx = {points.name: _checked(points)}
    return op, _checked(op, ctx), ctx


@pytest.mark.parametrize("chart", ["A2", "C2"])
def test_delta_hrep_check_rejects_bad_rows(chart):
    op, out, ctx = _hrep_ops(chart)

    def duplicate(data):
        data["rows"].append(data["rows"][0])
        data["hrep_text"].append(data["hrep_text"][0])

    def scale(data):
        coeffs, const = data["rows"][0]
        data["rows"][0] = [[2 * c for c in coeffs], 2 * const]

    def tighten(data):
        data["rows"] = [[c, k - 1] for c, k in data["rows"]]

    def loosen(data):
        data["rows"] = [[c, k + 1] for c, k in data["rows"]]

    def trivial(data):
        data["rows"] = [[[0] * len(data["rows"][0][0]), 1]]
        data["hrep_text"] = ["1 >= 0"]

    for mutate in (duplicate, scale, tighten, loosen, trivial):
        with pytest.raises(WrongOutput):
            op.check(_cli_with(out, mutate), ctx)


def test_delta_hrep_check_rejects_each_dropped_row():
    op, out, ctx = _hrep_ops("A2")
    for i in range(len(json.loads(out[1])["data"]["rows"])):
        def drop(data):
            del data["rows"][i]
            del data["hrep_text"][i]

        with pytest.raises(WrongOutput):
            op.check(_cli_with(out, drop), ctx)


def test_span_check_rejects_dropped_values_and_prefix_values_outside_the_full_set():
    ops = wk.valuation_span(None, small=True)
    full = _op(ops, "A3 lambda=1,1,1")
    prefix = _op(ops, "A3 lambda=1,1,1 prefix 3")
    full_out = _checked(full)
    ctx = {full.name: full_out}
    prefix_out = _checked(prefix, ctx)
    with pytest.raises(WrongOutput):
        full.check(frozenset(list(full_out)[1:]), ctx)
    with pytest.raises(WrongOutput):
        prefix.check(prefix_out, {full.name: frozenset()})


def test_point_query_checks_reject_corrupted_outputs():
    ops = wk.point_queries(random.Random(5), small=True)
    kinds = {}
    for op in ops:
        kinds.setdefault(op.name.split()[0], op)
    for name, op in kinds.items():
        out = op.call()
        assert op.check(out, {}) is True, name
        if name == "membership":
            bad = not out
        elif name == "star":
            bad = out.bump(1, 1)
        elif name == "value":
            bad = out[:-1] + (out[-1] - 1,)
        else:  # eta, eta_opposite
            bad = (out[0] + 1,) + out[1:]
        with pytest.raises(WrongOutput):
            op.check(bad, {})


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_selfcheck_small_workload_untraced(name):
    wl = run.setup(name, seed=3, small=True)
    res = run.measure(wl, seconds=0)
    assert res["correct"], res["errors"]
    assert res["rounds"] == 1 and res["attempted"] == len(wl.ops)
    assert res["failed"] == (1 if name == "ladder" else 0)


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_selfcheck_small_workload_traced_counts_repeat(name):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install("crystal_polytope")
        try:
            res = run.measure(run.setup(name, seed=3, small=True), seconds=0, tracer=tracer)
        finally:
            tracer.uninstall()
        assert res["correct"], res["errors"]
        metrics = tracer.metrics(res["rounds"])
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    names = {m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode != 0 and proc.stdout == ""
