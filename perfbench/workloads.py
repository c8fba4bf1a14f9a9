"""The benchmark's four workloads, their inputs and their output checks.

A workload is a list of ops run as a closed loop by one caller.  Each op
is a zero-argument call into the package plus a check of its output
against ``oracles``.  A check returns True when the op succeeded, False
when it failed in the one known way the workload keeps (the ladder's A3
chart), and raises ``WrongOutput`` otherwise.  The seed only draws and
orders the inputs; ``small`` keeps a few of the smallest ops, for the
self-check.

Library names are looked up on their modules at call time, so the
tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

from crystal_polytope import binfinity, cli, demazure, rootdata, valuation, zcrystal

from oracles import (a2_eta, c2_eta_opposite, cartan_rows, check_hrep_rows, demazure_dim,
                     expect, in_image_cone, in_slice, leading_value, root_weight)


@dataclass(frozen=True)
class Chart:
    family: str
    rank: int
    word: tuple

    @property
    def flags(self) -> list:
        return ["--type", self.family, "--rank", str(self.rank),
                "--word", ",".join(map(str, self.word))]

    def cartan(self):
        return rootdata.cartan_builtin(self.family, self.rank)

    def rows(self) -> tuple:
        return cartan_rows(self.family, self.rank)


A2 = Chart("A", 2, (1, 2, 1))
C2 = Chart("C", 2, (1, 2, 1, 2))
G2 = Chart("G", 2, (1, 2, 1, 2, 1, 2))
A3 = Chart("A", 3, (1, 2, 1, 3, 2, 1))
B3 = Chart("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3))
C3 = Chart("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3))
A4 = Chart("A", 4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1))


def rho(chart: Chart, k: int = 1) -> tuple:
    return (k,) * chart.rank


@functools.cache
def dimension(chart: Chart, r: int, lam: tuple) -> int:
    """Oracle dimension of the slice of the word's first r letters; computed at
    the first check that needs it, so set-up time is the program's."""
    return demazure_dim(chart.rows(), chart.word[:r], lam)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], bool]  # (output, outputs of the round by op name)


@dataclass(frozen=True)
class Workload:
    ops: list
    warmup: Op


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_op(name: str, argv: list, check) -> Op:
    return Op(name, lambda: _run_cli(argv), check)


def _cli_data(out, want_rc: int = 0) -> dict:
    rc, text = out
    expect(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    return json.loads(text)["data"]


# --- ladder -------------------------------------------------------------

# Checks whose detail states two sizes of the slice, both of which must
# equal the dimension oracle.
SIZE_CHECKS = ("route_agreement", "dimension", "hrep_lattice", "eta_string_bijection",
               "value_set")
A3_FAULT = ["closure_certified", "ample"]


def check_theorem(chart: Chart, lam: tuple, k_max: int, known_fault=None):
    def check(out, _round) -> bool:
        dim = dimension(chart, len(chart.word), lam)
        rc, text = out
        data = json.loads(text)["data"]
        checks = data["checks"]
        names = [c["name"] for c in checks]
        failed = [c["name"] for c in checks if not c["pass"]]
        expect(data["failed"] == failed, f"failed list {data['failed']} vs checks {failed}")
        ample = "ample" not in failed
        want = (["route_agreement", "dimension", "closure_certified", "ample"]
                + (["hrep_lattice"] if ample else [])
                + ["semigroup_levels", "eta_string_bijection"]
                + (["value_set"] if chart.family == "A" else []))
        expect(names == want, f"checks {names}, expected {want}")
        for c in checks:
            if c["name"] in SIZE_CHECKS:
                sizes = [int(s) for s in re.findall(r"\d+", c["detail"])]
                expect(sizes == [dim, dim], f"{c['name']}: {c['detail']} vs oracle {dim}")
        levels = next(c for c in checks if c["name"] == "semigroup_levels")["detail"]
        expect(levels == ",".join(f"k={k}:ok" for k in range(k_max + 1)),
               f"semigroup levels {levels}")
        if not failed:
            expect(rc == 0, f"exit code {rc} with every check passing")
            return True
        expect(failed == known_fault and rc == 2, f"exit {rc}, failed checks {failed}")
        return False
    return check


# (label, chart, weight, --k-max or None for the default 2, known failed checks)
LADDER = [
    ("A2 rho", A2, rho(A2), None, None),
    ("C2 rho", C2, rho(C2), None, None),
    # Exits 2 on closure_certified: the default window is 6, certification needs 8.
    ("A3 rho", A3, rho(A3), None, A3_FAULT),
    ("A2 2rho", A2, rho(A2, 2), None, None),
    ("A2 3rho", A2, rho(A2, 3), None, None),
    ("C2 2rho", C2, rho(C2, 2), None, None),
    ("G2 rho", G2, rho(G2), None, None),
    # The default --k-max 2 runs for minutes on these two, and --k-max 1
    # (8-10 s each) would make one op over a third of the round.
    ("G2 2rho k0", G2, rho(G2, 2), 0, None),
    ("C3 rho k0", C3, rho(C3), 0, None),
]


def ladder(rng: random.Random, small: bool) -> list:
    ops = []
    for label, chart, lam, k_max, fault in LADDER[:3] if small else LADDER:
        argv = ["theorem-check", *chart.flags, "--lambda", ",".join(map(str, lam))]
        if k_max is not None:
            argv += ["--k-max", str(k_max)]
        check = check_theorem(chart, lam, 2 if k_max is None else k_max, fault)
        ops.append(_cli_op(label, argv, check))
    return ops


# --- polytope-dilate ----------------------------------------------------

@functools.cache
def slice_coords(chart: Chart, lam: tuple) -> frozenset:
    """Slice point set from the operator sweep."""
    return demazure.enumerate_demazure(chart.cartan(), rootdata.ReducedWord(chart.word),
                                       rootdata.WeightVec(lam)).coords


CONE_CHARTS = {A2: "A2", C2: "C2"}


def check_delta_points(chart: Chart, lam: tuple):
    """Count from the dimension oracle; membership from the closed-form slice on
    A2 and C2, and from the operator sweep elsewhere (at most 729 points there)."""
    def check(out, _round) -> bool:
        dim = dimension(chart, len(chart.word), lam)
        data = _cli_data(out)
        pts = [tuple(p) for p in data["points"]]
        expect(data["count"] == len(pts) == dim, f"{data['count']} points vs oracle {dim}")
        expect(pts == sorted(set(pts)), "points are not sorted and distinct")
        if chart in CONE_CHARTS:
            bad = [p for p in pts if not in_slice(CONE_CHARTS[chart], lam, p)]
            expect(not bad, f"points outside the slice: {bad[:3]}")
        else:
            expect(set(pts) == slice_coords(chart, lam), "points differ from the crystal slice")
        return True
    return check


def check_delta_hrep(chart: Chart, lam: tuple, points_op: str):
    """Rows distinct and primitive, and their integer points, in a box one cell
    larger than the slice's bounding box, exactly the points of the round's
    checked delta-points output at the same chart and weight."""
    def check(out, round_outputs) -> bool:
        data = _cli_data(out)
        rows = [(tuple(c), k) for c, k in data["rows"]]
        expect(rows and all(len(c) == len(chart.word) for c, _ in rows), "bad row shape")
        expect(len(data["hrep_text"]) == len(rows), "hrep_text and rows differ in length")
        points = _cli_data(round_outputs[points_op])["points"]
        check_hrep_rows(rows, points)
        return True
    return check


# (command, chart, multiples k of rho, --window or None for the word length);
# every delta-hrep op has the delta-points op of the same chart and weight beside it.
DILATE = [
    ("delta-points", A2, (1, 4, 16, 32), None),
    ("delta-hrep", A2, (1, 4, 16, 32), None),
    ("delta-points", C2, (1, 2, 4, 8, 10), None),
    ("delta-hrep", C2, (1, 2, 4, 8, 10), None),
    ("delta-points", G2, (1, 2), None),
    ("delta-hrep", G2, (1, 2), None),
    ("delta-points", A3, (1, 2), 8),
    ("delta-points", B3, (1,), None),
    ("delta-points", C3, (1,), None),
]


def _dilate_label(cmd: str, chart: Chart, k: int) -> str:
    return f"{cmd} {chart.family}{chart.rank} {k}rho"


def polytope_dilate(rng: random.Random, small: bool) -> list:
    ops = []
    for cmd, chart, ks, window in DILATE[:4] if small else DILATE:
        for k in ks[:1] if small else ks:
            lam = rho(chart, k)
            argv = [cmd, *chart.flags, "--lambda", ",".join(map(str, lam))]
            if window is not None:
                argv += ["--window", str(window)]
            if cmd == "delta-points":
                check = check_delta_points(chart, lam)
            else:
                check = check_delta_hrep(chart, lam, _dilate_label("delta-points", chart, k))
            ops.append(_cli_op(_dilate_label(cmd, chart, k), argv, check))
    return ops


# --- valuation-span -----------------------------------------------------

def _span_values(chart: Chart, lam: tuple, prefix):
    def call():
        gens = valuation.builtin_generators(chart.cartan())
        mat = valuation.unipotent_product(rootdata.ReducedWord(chart.word), gens)
        span = valuation.section_span(mat, rootdata.WeightVec(lam))
        if prefix is not None:
            span = valuation.restrict_span(span, prefix)
        return valuation.value_set_of_span(span, valuation.ValuationOrder.HI)
    return call


def _span_label(chart: Chart, lam: tuple, prefix=None) -> str:
    label = f"A{chart.rank} lambda={','.join(map(str, lam))}"
    return label if prefix is None else f"{label} prefix {prefix}"


def check_span_values(chart: Chart, lam: tuple, prefix):
    r = len(chart.word) if prefix is None else prefix
    full = _span_label(chart, lam)

    def check(out, round_outputs) -> bool:
        dim = dimension(chart, r, lam)
        expect(len(out) == dim, f"{len(out)} values vs oracle {dim}")
        expect(all(len(v) == r and all(x <= 0 for x in v) for v in out),
               "values must be nonpositive vectors of the word's length")
        if prefix is not None:
            pad = (0,) * (len(chart.word) - r)
            missing = [v for v in out if v + pad not in round_outputs[full]]
            expect(not missing, f"prefix values outside the full value set: {missing[:3]}")
        return True
    return check


# (chart, weight, prefix length or None for the whole word); every prefix
# op has the whole-word op of the same weight beside it.
SPANS = [(A2, (1, 1), None), (A3, (1, 1, 1), None), (A3, (1, 1, 1), 3)]
SPANS += [(A2, (k, k), None) for k in (2, 3, 4)]
SPANS += [(A3, lam, None) for lam in ((1, 0, 1), (0, 2, 0), (2, 0, 0), (0, 1, 1),
                                      (2, 1, 0), (1, 2, 1), (2, 0, 2))]
SPANS += [(A3, (1, 1, 1), r) for r in (4, 5)]
SPANS += [(A4, lam, None) for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 1),
                                      (0, 1, 1, 0), (1, 1, 0, 0), (2, 0, 0, 0), (1, 0, 1, 0))]
SPANS += [(A4, (0, 1, 1, 0), r) for r in (4, 6, 8)]


def valuation_span(rng: random.Random, small: bool) -> list:
    return [Op(_span_label(c, lam, p), _span_values(c, lam, p), check_span_values(c, lam, p))
            for c, lam, p in (SPANS[:3] if small else SPANS)]


# --- point-queries ------------------------------------------------------

# Charts and the weight whose slice the member points are drawn from.
QUERY_SLICES = ((A2, 3), (C2, 2), (G2, 2), (A3, 2), (B3, 1), (C3, 1))
MEMBERS_PER_CHART = 40
BOX_DRAWS = 60  # per rank-2 cone chart, from [0, 4]^r
POLYS = 100


def _member_ops(chart: Chart, a: tuple, seen_opposite: dict) -> list:
    spec = zcrystal.SequenceSpec(chart.cartan(), rootdata.ReducedWord(chart.word))
    x = zcrystal.ZElement.from_coords(a)
    n = len(chart.word)
    weight = root_weight(chart.word, a, chart.rank)
    rev = tuple(reversed(chart.word))
    label = f"{chart.family}{chart.rank} {','.join(map(str, a))}"

    def check_member(out, _round):
        expect(out is True, f"slice point {a} judged a non-member")
        return True

    def check_star(out, _round):
        y = out.coords(n)
        expect(root_weight(chart.word, y, chart.rank) == weight, f"star{a} = {y} moves the weight")
        expect(binfinity.star(spec, out) == x, f"star(star{a}) != {a}")
        return True

    def check_eta(out, _round):
        expect(root_weight(chart.word, out, chart.rank) == weight, f"eta{a} = {out} moves the weight")
        if chart == A2:
            expect(out == a2_eta(a), f"eta{a} = {out}, closed form {a2_eta(a)}")
        expect(binfinity.eta(spec, zcrystal.ZElement.from_coords(out)) == a, f"eta(eta{a}) != {a}")
        return True

    def check_opposite(out, _round):
        expect(root_weight(rev, out, chart.rank) == weight, f"eta_opposite{a} = {out} moves the weight")
        if chart == C2:
            expect(out == c2_eta_opposite(a), f"eta_opposite{a} = {out}, closed form differs")
        prior = seen_opposite.setdefault((chart, out), a)
        expect(prior == a, f"eta_opposite sends both {prior} and {a} to {out}")
        return True

    return [
        Op(f"membership {label}", lambda: binfinity.membership(spec, x), check_member),
        Op(f"star {label}", lambda: binfinity.star(spec, x), check_star),
        Op(f"eta {label}", lambda: binfinity.eta(spec, x), check_eta),
        Op(f"eta_opposite {label}", lambda: binfinity.eta_opposite(spec, x), check_opposite),
    ]


def _box_op(chart: Chart, a: tuple) -> Op:
    spec = zcrystal.SequenceSpec(chart.cartan(), rootdata.ReducedWord(chart.word))
    x = zcrystal.ZElement.from_coords(a)
    want = in_image_cone(CONE_CHARTS[chart], a)

    def check(out, _round):
        expect(out is want, f"membership{a} = {out}, cone says {want}")
        return True
    return Op(f"membership box {CONE_CHARTS[chart]} {a}", lambda: binfinity.membership(spec, x),
              check)


def _random_poly(rng: random.Random) -> dict:
    nvars = rng.randint(3, 6)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        terms[tuple(rng.randint(0, 4) for _ in range(nvars))] = rng.choice((-3, -2, -1, 1, 2, 5))
    return terms


def _value_op(terms: dict, order: str, index: int) -> Op:
    f = valuation.MultiPoly.make(len(next(iter(terms))), terms)
    order_enum = valuation.ValuationOrder(order)
    want = leading_value(terms, order)

    def check(out, _round):
        expect(out == want, f"value = {out}, lex-leading monomial gives {want}")
        return True
    return Op(f"value poly{index} {order}", lambda: valuation.value(f, order_enum), check)


def point_queries(rng: random.Random, small: bool) -> list:
    per_chart = 4 if small else MEMBERS_PER_CHART
    seen_opposite = {}
    ops = []
    for chart, k in QUERY_SLICES[:2] if small else QUERY_SLICES:
        pts = sorted(demazure.enumerate_demazure(
            chart.cartan(), rootdata.ReducedWord(chart.word),
            rootdata.WeightVec(rho(chart, k))).coords)
        for a in rng.sample(pts, per_chart):
            ops += _member_ops(chart, a, seen_opposite)
    for chart in (A2, C2):
        for _ in range(per_chart if small else BOX_DRAWS):
            ops.append(_box_op(chart, tuple(rng.randint(0, 4) for _ in chart.word)))
    for index in range(per_chart if small else POLYS):
        terms = _random_poly(rng)
        ops += [_value_op(terms, order, index) for order in ("hi", "tilde")]
    return ops


WORKLOADS = {
    "ladder": ladder,
    "point-queries": point_queries,
    "polytope-dilate": polytope_dilate,
    "valuation-span": valuation_span,
}


def build(name: str, seed: int, small: bool = False) -> Workload:
    """Inputs of one workload: every op once, in an order drawn from the seed.

    The warm-up op is the first op of the unshuffled list, the smallest.
    """
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng, small)
    warmup = ops[0]
    rng.shuffle(ops)
    return Workload(ops, warmup)
