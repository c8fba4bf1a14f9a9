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

from .binfinity import eta, eta_opposite, membership, peel_slice, star
from .demazure import btilde_cut, enumerate_demazure, require_longest_word, string_points
from .inequalities import ample_check, delta_hrep, delta_system, generate_xi
from .polytope import lattice_points, normalize
from .rootdata import (CartanMatrix, ReducedWord, WeightVec, cartan_builtin, is_reduced,
                       num_positive_roots, weyl_dim_oracle)
from .valuation import (ValuationOrder, builtin_generators, parse_poly, products_closure,
                        section_span, unipotent_product, value, value_set_of_span)
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


def _hrep_line(const: int, lam_coeffs, coeffs) -> str:
    """One inequality as text: the constant, then the weight and coordinate terms."""
    parts = [str(const)]
    parts.extend(f"{c}*L{i}" for i, c in enumerate(lam_coeffs, start=1))
    parts.extend(f"{c}*a{p}" for p, c in enumerate(coeffs, start=1))
    return " + ".join(parts) + " >= 0"


def _compare(left, right, names) -> str:
    """The sizes of two point sets and, if they differ, the first sorted point in only one."""
    detail = f"{len(left)} {names[0]} vs {len(right)} {names[1]}"
    if odd := sorted(left ^ right):
        detail += f"; first difference {list(odd[0])}, only among the {names[odd[0] in right]}"
    return detail


def _require_member(spec, coords) -> None:
    if not membership(spec, ZElement.from_coords(coords)):
        raise ValueError(f"point {list(coords)} is not in the crystal image for this word")


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
    p.add_argument("--vars", type=_nonneg_int, required=True)
    p.add_argument("--order", choices=["hi", "tilde"], required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    chart_command("matrix", "unipotent product in the built-in matrix model")
    p = chart_command("theorem-check", "cross-validation battery; exit 2 on mismatch",
                      need_lambda=True, closure=True)
    p.add_argument("--k-max", type=_nonneg_int, default=2)
    p.add_argument("--degree-cap", type=_nonneg_int, default=None,
                   help="also check that products of sections of total degree at most "
                        "this in the t variables (a cap on degree, not on the number "
                        "of factors) have values in the crystal image; type A only")
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
    if lam is not None and lam.rank != cartan.rank:
        raise ValueError("weight rank mismatch")
    if lam is not None and not lam.is_dominant():
        raise ValueError("weight must be dominant")
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
        data = {
            # no form the program builds has an absolute constant
            "forms": [{"const_abs": 0, "const_lambda": list(f.lam_coeffs),
                       "coeffs": list(f.row(r))} for f in xi.delta],
            "rows": [[list(coeffs), const] for coeffs, const in system.rows],
            # the rows carry the weight in their constants
            "hrep_text": [_hrep_line(const, (0,) * cartan.rank, coeffs)
                          for coeffs, const in system.rows],
        }
        _emit(args, meta, data, [list(c) + [k] for c, k in system.rows])
        return 0

    if args.command == "string-points":
        require_longest_word(cartan, word)  # before the cut, which grows with the weight
        pts = sorted(string_points(cartan, btilde_cut(cartan, word, lam)))
        _points_payload(args, meta, pts)
        return 0

    if args.command in ("eta", "star"):
        chart = star if args.command == "star" else eta_opposite if args.opposite else eta
        try:
            out = chart(spec, ZElement.from_coords(args.point))
        except ValueError:
            # star and the exhaustive peel fail exactly on non-members, and a
            # non-member is named before a word that is not a longest word
            _require_member(spec, args.point)
            raise
        if args.command == "star":
            # a short word's partner can reach past N: print its whole support
            out = out.coords(max(num_positive_roots(cartan), out.support_max()))
        data = {"point": list(args.point), args.command: list(out)}
        _emit(args, meta, data, [out])
        return 0

    if args.command == "ample":
        xi = _xi_for(spec, args)
        ok = ample_check(xi, lam)
        data = {"ample": ok, "certified": xi.certified, "num_forms": len(xi.forms)}
        _emit(args, meta, data, [[int(ok)]])
        return 0

    if args.command == "matrix":
        gens = builtin_generators(cartan)
        entries = [[f.text() for f in row] for row in unipotent_product(word, gens)]
        _emit(args, meta, {"size": len(entries), "entries": entries}, entries)
        return 0

    if args.command == "theorem-check":
        return _theorem_check(args, cartan, spec, word, lam, meta)

    raise ValueError(f"unknown command {args.command!r}")


def _theorem_check(args, cartan, spec, word, lam, meta) -> int:
    type_a = cartan == cartan_builtin("A", cartan.rank)
    if args.degree_cap is not None and not type_a:
        raise ValueError("--degree-cap checks the valuation side, which exists for type A only")
    # the closure does not depend on the weight and may be refused: build it
    # before either route, so a refusal comes first
    xi = _xi_for(spec, args)
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
           _compare(dem.coords, cut(word, lam).coords, ("twisted-sweep points", "cut points")))

    if r == num_positive_roots(cartan):
        dim = weyl_dim_oracle(cartan, lam)
        record("dimension", len(dem) == dim, f"{len(dem)} points vs oracle {dim}")

    record("closure_certified", xi.certified, f"{len(xi.forms)} forms")
    ample = ample_check(xi, lam)
    if not xi.certified:
        detail = "closure not certified"
    elif ample:
        detail = "constants nonnegative at this weight"
    else:
        f = next(f for f in xi.delta if f.constant_at(lam) < 0)
        detail = f"{_hrep_line(0, f.lam_coeffs, f.row(r))} (constant {f.constant_at(lam)})"
    record("ample", ample, detail)

    @functools.cache
    def lattice(weight: WeightVec) -> list:
        """One lattice enumeration per weight, shared by hrep_lattice and the levels."""
        return lattice_points(delta_system(xi, weight))

    if ample:
        pts = lattice(lam)
        record("hrep_lattice", pts == dem.sorted_coords(),
               _compare(set(pts), dem.coords, ("lattice points", "crystal points")))

    levels, witness = {}, ""
    for k in range(args.k_max + 1):
        level = cut(word, lam.scale(k)).coords
        try:
            points = lattice(lam.scale(k))
        except ValueError:
            # no finite box: an unbounded system has infinitely many rational
            # points, so it cannot match a finite level (a mismatch, not an
            # error); a bounded system that interval propagation cannot box
            # would be misread here, but no delta system is known to be one
            points = None
        levels[k] = sorted(level) == points
        if not (levels[k] or witness or points is None):
            witness = f"; k={k}: " + _compare(level, set(points), ("cut points", "lattice points"))
    record("semigroup_levels", all(levels.values()),
           ",".join(f"k={k}:{'ok' if v else 'FAIL'}" for k, v in levels.items()) + witness)

    if r == num_positive_roots(cartan):
        strung = string_points(cartan, cut(word.reversed(), lam))
        image = frozenset(peel_slice(spec, map(ZElement.from_coords, dem.coords),
                                     word.reversed().letters).values())
        record("eta_string_bijection", image == strung and len(image) == len(dem),
               _compare(image, strung, ("star-chart images", "string points")))

    if type_a:
        span = section_span(unipotent_product(word, builtin_generators(cartan)), lam)
        values = value_set_of_span(span, ValuationOrder.HI)
        exps = {tuple(-x for x in v) for v in values}
        record("value_set", exps == set(dem.coords),
               _compare(exps, dem.coords, ("valuation exponents", "crystal points")))
        if args.degree_cap is not None:
            closure = products_closure(span, args.degree_cap)
            cone = value_set_of_span(closure, ValuationOrder.HI)
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
