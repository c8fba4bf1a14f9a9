"""Batch command-line front door.

Deterministic subcommands over the library: crystal enumeration,
polytope systems and lattice points, string data, the star involution
and its coordinate avatar, ampleness certification, valuations, the
unipotent matrix model, and a self-verification battery.  Data goes to
stdout; a one-line convention banner goes to stderr.  Exit codes:
0 success, 1 usage or data error, 2 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .binfinity import eta, eta_opposite, membership, star
from .demazure import btilde_cut, enumerate_demazure, string_points
from .inequalities import ample_check, delta_forms, delta_hrep, generate_xi
from .polytope import lattice_points, normalize, system_from_forms
from .rootdata import (CartanMatrix, ReducedWord, WeightVec, cartan_builtin, is_reduced,
                       num_positive_roots, weyl_dim_oracle)
from .valuation import (ValuationOrder, builtin_generators, parse_poly, section_span,
                        unipotent_product, value, value_set_of_span)
from .zcrystal import SequenceSpec, ZElement

CONVENTION = "word is application-ordered, j_1 first"

USAGE_EXIT = 1
MISMATCH_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _load_cartan(args) -> CartanMatrix:
    if args.gcm:
        with open(args.gcm) as fh:
            rows = json.load(fh)
        if isinstance(rows, dict):
            rows = rows.get("rows")
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and all(type(v) is int for v in row) for row in rows)):
            raise ValueError(f"{args.gcm}: expected a JSON list of integer rows")
        return CartanMatrix(tuple(tuple(row) for row in rows))
    if not args.type or args.rank is None:
        raise ValueError("provide --type and --rank, or --gcm FILE")
    return cartan_builtin(args.type, args.rank)


def _emit(args, meta: dict, data: dict, csv_rows) -> None:
    if args.format == "json":
        print(json.dumps({"meta": meta, "data": data}, sort_keys=True))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(x) for x in row))
    else:  # hrep-text, which only delta-hrep offers
        for line in data["hrep_text"]:
            print(line)


def _points_payload(args, meta, pts) -> None:
    data = {"count": len(pts), "points": [list(p) for p in pts]}
    _emit(args, meta, data, pts)


def _form_json(f, r: int) -> dict:
    return {
        "const_abs": f.const,
        "const_lambda": list(f.lam_coeffs),
        "coeffs": [f.coefficient(p) for p in range(1, r + 1)],
    }


def _require_member(spec, coords) -> ZElement:
    x = ZElement.from_coords(coords)
    if not membership(spec, x):
        raise ValueError(f"point {list(coords)} is not in the crystal image for this word")
    return x


def _xi_for(spec, args):
    window = args.window if args.window is not None else len(spec.base.letters)
    return generate_xi(spec, window)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls."""
    parser = _Parser(prog="crystal-polytope")
    sub = parser.add_subparsers(dest="command", required=True)

    def chart_command(name, summary, need_lambda=False, closure=False, formats=("json", "csv")):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--type", choices=list("ABCDEFG"))
        p.add_argument("--rank", type=int)
        p.add_argument("--gcm", help="JSON file with Cartan matrix rows")
        p.add_argument("--word", type=_csv_ints, required=True,
                       help="letters in application order, j_1 first")
        if need_lambda:
            p.add_argument("--lambda", dest="lam", type=_csv_ints, required=True,
                           help="dominant weight coordinates")
        p.add_argument("--format", choices=list(formats), default="json")
        if closure:
            p.add_argument("--window", type=int, default=None,
                           help="closure scan window (default: word length)")
        return p

    chart_command("enumerate", "crystal slice coordinates by operator sweep", need_lambda=True)
    chart_command("delta-points", "lattice points of the certified system",
                  need_lambda=True, closure=True)
    chart_command("delta-hrep", "inequality system for the twisted polytope",
                  need_lambda=True, closure=True, formats=("json", "csv", "hrep-text"))
    chart_command("string-points", "string data of the crystal slice", need_lambda=True)
    p = chart_command("eta", "star involution in embedding coordinates")
    p.add_argument("--point", type=_csv_ints, required=True)
    p.add_argument("--opposite", action="store_true",
                   help="use the reversed-word string chart instead")
    p = chart_command("star", "star partner coordinates")
    p.add_argument("--point", type=_csv_ints, required=True)
    chart_command("ample", "certify the closure and test the weight",
                  need_lambda=True, closure=True)
    p = sub.add_parser("valuation", help="highest-term valuation of a polynomial")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--order", choices=["hi", "tilde"], required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    chart_command("matrix", "unipotent product in the built-in matrix model")
    p = chart_command("theorem-check", "cross-validation battery; exit 2 on mismatch",
                      need_lambda=True, closure=True)
    p.add_argument("--k-max", type=_nonneg_int, default=2)
    p.add_argument("--degree-cap", type=_nonneg_int, default=None,
                   help="also check values of the product closure up to this degree")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def _dispatch(args) -> int:
    print(f"convention: {CONVENTION}", file=sys.stderr)

    if args.command == "valuation":
        f = parse_poly(args.poly, args.vars)
        order = ValuationOrder(args.order)
        v = value(f, order)
        meta = {"word": None, "lambda": None, "convention": CONVENTION,
                "order": args.order, "vars": args.vars}
        _emit(args, meta, {"value": list(v)}, [v])
        return 0

    cartan = _load_cartan(args)
    word = ReducedWord(args.word)
    if not is_reduced(cartan, word):
        raise ValueError(f"word {list(word.letters)} is not reduced")
    spec = SequenceSpec(cartan, word)
    lam = WeightVec(args.lam) if getattr(args, "lam", None) is not None else None
    meta = {"word": list(word.letters),
            "lambda": list(lam.coords) if lam else None,
            "convention": CONVENTION}

    if args.command == "enumerate":
        pts = enumerate_demazure(cartan, word, lam).sorted_coords()
        _points_payload(args, meta, pts)
        return 0

    if args.command == "delta-points":
        xi = _xi_for(spec, args)
        system = delta_hrep(xi, lam)
        _points_payload(args, meta, lattice_points(system))
        return 0

    if args.command == "delta-hrep":
        xi = _xi_for(spec, args)
        r = len(word.letters)
        system = normalize(delta_hrep(xi, lam))
        forms = delta_forms(xi)
        lines = []
        for coeffs, const in system.rows:
            parts = [str(const)]
            parts.extend(f"0*L{i}" for i in cartan.index_set())
            parts.extend(f"{c}*a{p + 1}" for p, c in enumerate(coeffs))
            lines.append(" + ".join(parts) + " >= 0")
        data = {
            "forms": [_form_json(f, r) for f in forms],
            "rows": [[list(coeffs), const] for coeffs, const in system.rows],
            "hrep_text": lines,
        }
        _emit(args, meta, data, [list(c) + [k] for c, k in system.rows])
        return 0

    if args.command == "string-points":
        pts = sorted(string_points(cartan, btilde_cut(cartan, word, lam)))
        _points_payload(args, meta, pts)
        return 0

    if args.command in ("eta", "star"):
        x = _require_member(spec, args.point)
        if args.command == "star":
            out = star(spec, x).coords(num_positive_roots(cartan))
        elif args.opposite:
            out = eta_opposite(spec, x)
        else:
            out = eta(spec, x)
        data = {"point": list(args.point), args.command: list(out)}
        _emit(args, meta, data, [out])
        return 0

    if args.command == "ample":
        xi = _xi_for(spec, args)
        ok = ample_check(xi, lam) if xi.certified else False
        data = {"ample": ok, "certified": xi.certified,
                "stabilized": xi.stabilized, "num_forms": len(xi.forms)}
        _emit(args, meta, data, [[int(ok)]])
        return 0

    if args.command == "matrix":
        gens = builtin_generators(cartan)
        mat = unipotent_product(word, gens)
        entries = [[mat.at(i, j).text() for j in range(1, mat.size + 1)]
                   for i in range(1, mat.size + 1)]
        _emit(args, meta, {"size": mat.size, "entries": entries}, entries)
        return 0

    if args.command == "theorem-check":
        return _theorem_check(args, cartan, spec, word, lam, meta)

    raise ValueError(f"unknown command {args.command!r}")


def _theorem_check(args, cartan, spec, word, lam, meta) -> int:
    checks = []

    def record(name: str, ok: bool, detail: str):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    @functools.cache
    def cut(w: ReducedWord, weight: WeightVec):
        """One cut per (word, weight); a palindrome's string side reuses the route's."""
        return btilde_cut(cartan, w, weight)

    r = len(word.letters)
    dem = enumerate_demazure(cartan, word, lam)
    record("route_agreement", dem.coords == cut(word, lam).coords,
           f"{len(dem)} twisted-sweep points vs {len(cut(word, lam))} cut points")

    if r == num_positive_roots(cartan):
        dim = weyl_dim_oracle(cartan, lam)
        record("dimension", len(dem) == dim, f"{len(dem)} points vs oracle {dim}")

    xi = _xi_for(spec, args)
    record("closure_certified", xi.certified,
           f"{len(xi.forms)} forms, stabilized={xi.stabilized}")
    ample = xi.certified and ample_check(xi, lam)
    record("ample", ample, "constants nonnegative at this weight")
    forms = delta_forms(xi)

    @functools.cache
    def lattice(weight: WeightVec) -> list:
        """One lattice enumeration per weight, shared by hrep_lattice and the levels."""
        return lattice_points(system_from_forms(forms, r, weight))

    if ample:
        pts = lattice(lam)
        record("hrep_lattice", pts == dem.sorted_coords(),
               f"{len(pts)} lattice points vs {len(dem)} crystal points")

    levels = {}
    for k in range(args.k_max + 1):
        scaled = lam.scale(k)
        level = sorted(cut(word, scaled).coords)
        try:
            levels[k] = level == lattice(scaled)
        except ValueError:
            # an unbounded system has infinitely many rational points, so it
            # cannot match a finite level: a mismatch, not an error
            levels[k] = False
    record("semigroup_levels", all(levels.values()),
           ",".join(f"k={k}:{'ok' if v else 'FAIL'}" for k, v in levels.items()))

    if r == num_positive_roots(cartan):
        strung = string_points(cartan, cut(word.reversed(), lam))
        image = frozenset(eta_opposite(spec, ZElement.from_coords(c)) for c in dem.coords)
        record("eta_string_bijection", image == strung and len(image) == len(dem),
               f"{len(image)} star-chart images vs {len(strung)} string points")

    if cartan == cartan_builtin("A", cartan.rank):
        span = section_span(unipotent_product(word, builtin_generators(cartan)), lam)
        values = value_set_of_span(span, ValuationOrder.HI)
        exps = {tuple(-x for x in v) for v in values}
        record("value_set", exps == set(dem.coords),
               f"{len(exps)} valuation exponents vs {len(dem)} crystal points")
        if args.degree_cap is not None:
            cone = value_set_of_span(span, ValuationOrder.HI, degree_cap=args.degree_cap)
            good = all(membership(spec, ZElement.from_coords(tuple(-x for x in v)))
                       for v in cone)
            record("cone_values_members", good,
                   f"{len(cone)} closure values up to degree {args.degree_cap}")

    failed = [c["name"] for c in checks if not c["pass"]]
    data = {"checks": checks, "failed": failed}
    _emit(args, meta, data,
          [[c["name"], "pass" if c["pass"] else "FAIL"] for c in checks])
    return MISMATCH_EXIT if failed else 0


if __name__ == "__main__":
    sys.exit(main())
