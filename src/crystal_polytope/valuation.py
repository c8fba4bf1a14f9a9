"""Exact multivariate polynomials, highest-term valuations, and section spans.

Polynomials are rational-coefficient, stored as sorted exponent-tuple
terms.  The two valuation flavors are lexicographic highest-term maps:
one ranks variables first-to-last, the other last-to-first; both send a
polynomial to minus the exponent vector of its maximal monomial.  The
span machinery builds the coordinate matrix of a product of one-column
exponentials, extracts minors to model weight-module sections, and
reads off achieved values by exact Gaussian elimination against the
chosen monomial order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial

from .rootdata import CartanMatrix, ReducedWord, WeightVec, cartan_builtin


class ValuationOrder(Enum):
    """HI ranks t_1 above t_2 above ...; TILDE ranks t_r above ... above t_1."""

    HI = "hi"
    TILDE = "tilde"


def _order_key(order: ValuationOrder, exps: tuple) -> tuple:
    return exps if order is ValuationOrder.HI else tuple(reversed(exps))


@dataclass(frozen=True)
class MultiPoly:
    """Sum of coeff * t^exps with Fraction coefficients, exact."""

    nvars: int
    terms: tuple  # sorted tuple of (exps tuple, Fraction), coeffs nonzero

    @staticmethod
    def make(nvars: int, data: dict) -> "MultiPoly":
        clean = []
        for exps, c in data.items():
            c = Fraction(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            clean.append((exps, c))
        return MultiPoly(nvars, tuple(sorted(clean)))

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, ())

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly.make(nvars, {(0,) * nvars: Fraction(c)})

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPoly":
        if not 1 <= k <= nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == k else 0 for j in range(1, nvars + 1))
        return MultiPoly.make(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "MultiPoly") -> "MultiPoly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, Fraction(0)) + c
        return MultiPoly.make(self.nvars, d)

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.scale(-1))

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly.make(self.nvars, {e: c * v for e, v in self.terms})

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                d[e] = d.get(e, Fraction(0)) + c1 * c2
        return MultiPoly.make(self.nvars, d)

    def diff(self, k: int) -> "MultiPoly":
        d = {}
        for e, c in self.terms:
            ek = e[k - 1]
            if ek == 0:
                continue
            e2 = tuple(v - 1 if j == k - 1 else v for j, v in enumerate(e))
            d[e2] = d.get(e2, Fraction(0)) + c * ek
        return MultiPoly.make(self.nvars, d)

    def subs_zero(self, k: int) -> "MultiPoly":
        return MultiPoly.make(self.nvars,
                              {e: c for e, c in self.terms if e[k - 1] == 0})

    def var_degree(self, k: int) -> int:
        return max((e[k - 1] for e, _ in self.terms), default=0)

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def leading(self, order: ValuationOrder):
        """(exponents, coefficient) of the order-maximal monomial."""
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        e, c = max(self.terms, key=lambda t: _order_key(order, t[0]))
        return e, c

    def text(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.terms, key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(f"t{j + 1}" + (f"^{x}" if x > 1 else "")
                            for j, x in enumerate(e) if x > 0)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


_TERM_FACTOR = re.compile(r"^(?:t(\d+)(?:\^(\d+))?|(\d+(?:/\d+)?))$")


def parse_poly(text: str, nvars: int) -> MultiPoly:
    """Parse sums of products like "t1*t2 + 3/2*t3^2 - 1" exactly."""
    s = text.replace(" ", "").replace("-", "+-")
    if not s or s == "+-":
        raise ValueError("empty polynomial")
    total = {}
    for chunk in s.split("+"):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise ValueError("dangling sign")
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            m = _TERM_FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            if m.group(3) is not None:
                coeff *= Fraction(m.group(3))
                continue
            k = int(m.group(1))
            if not 1 <= k <= nvars:
                raise ValueError(f"variable t{k} out of range (nvars={nvars})")
            exps[k - 1] += int(m.group(2) or 1)
        key = tuple(exps)
        total[key] = total.get(key, Fraction(0)) + coeff
    return MultiPoly.make(nvars, total)


def value(f: MultiPoly, order: ValuationOrder) -> tuple:
    """Minus the exponent vector of the maximal monomial, listed in order rank.

    The first listed entry corresponds to the order's top variable, so
    the two flavors report their vectors in opposite variable order.
    """
    if f.is_zero():
        raise ValueError("valuation of zero is undefined")
    e, _ = f.leading(order)
    return tuple(-x for x in _order_key(order, e))


def value_quot(num: MultiPoly, den: MultiPoly, order: ValuationOrder) -> tuple:
    """Valuation of a quotient: difference of the two values."""
    vn = value(num, order)
    vd = value(den, order)
    return tuple(a - b for a, b in zip(vn, vd))


def chevalley_value(f: MultiPoly) -> tuple:
    """Iterated derivative orders, first variable first.

    At step k the entry is the largest a with (-d/dt_k)^a f nonzero, the
    operator is applied that many times, and t_k is then set to zero.
    Matches the negated first-ranked valuation on every polynomial.
    """
    if f.is_zero():
        raise ValueError("undefined on the zero polynomial")
    out = []
    cur = f
    for k in range(1, f.nvars + 1):
        a = cur.var_degree(k)
        for _ in range(a):
            cur = cur.diff(k).scale(-1)
        cur = cur.subs_zero(k)
        assert not cur.is_zero()
        out.append(a)
    return tuple(out)


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix of exact polynomials."""

    entries: tuple  # tuple of row tuples of MultiPoly

    @property
    def size(self) -> int:
        return len(self.entries)

    def at(self, row: int, col: int) -> MultiPoly:
        """1-based access."""
        return self.entries[row - 1][col - 1]

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = MultiPoly.zero(self.entries[0][0].nvars)
                for k in range(n):
                    acc = acc.add(self.entries[i][k].mul(other.entries[k][j]))
                row.append(acc)
            rows.append(tuple(row))
        return PolyMatrix(tuple(rows))


def _int_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def exp_nilpotent(gen, t_index: int, nvars: int) -> PolyMatrix:
    """exp(t * gen) for an integer nilpotent matrix, summed until powers vanish."""
    n = len(gen)
    t = MultiPoly.variable(nvars, t_index)
    rows = [[MultiPoly.constant(nvars, 1) if i == j else MultiPoly.zero(nvars)
             for j in range(n)] for i in range(n)]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t_pow = MultiPoly.constant(nvars, 1)
    for l in range(1, n + 1):
        power = _int_matmul(power, gen)
        if all(all(v == 0 for v in row) for row in power):
            break
        t_pow = t_pow.mul(t)
        coef = Fraction(1, factorial(l))
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    rows[i][j] = rows[i][j].add(t_pow.scale(coef * power[i][j]))
    return PolyMatrix(tuple(tuple(row) for row in rows))


def builtin_generators(cartan: CartanMatrix) -> dict:
    """Lowering-operator matrices for the built-in small matrix models.

    Rank-n type A uses the natural (n+1)-dimensional model with the i-th
    generator the subdiagonal unit at row i+1.  Rank-2 type C uses the
    4-dimensional symplectic model.
    """
    n = cartan.rank
    if cartan == cartan_builtin("A", n):
        size = n + 1
        gens = {}
        for i in range(1, n + 1):
            m = [[0] * size for _ in range(size)]
            m[i][i - 1] = 1
            gens[i] = tuple(tuple(row) for row in m)
        return gens
    if n == 2 and cartan == cartan_builtin("C", 2):
        f1 = ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0))
        f2 = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0))
        return {1: f1, 2: f2}
    raise NotImplementedError("no built-in matrix model for this Cartan matrix")


def unipotent_product(word: ReducedWord, gens: dict) -> PolyMatrix:
    """Product of one-parameter exponentials, last letter's factor leftmost.

    The first letter of the word carries t_1 and sits rightmost, so the
    factor order on the page is exp(t_r F_{j_r}) ... exp(t_1 F_{j_1}).
    """
    r = len(word.letters)
    if r == 0:
        raise ValueError("empty word")
    size = len(next(iter(gens.values())))
    rows = [[MultiPoly.constant(r, 1) if i == j else MultiPoly.zero(r)
             for j in range(size)] for i in range(size)]
    out = PolyMatrix(tuple(tuple(row) for row in rows))
    for k in range(r, 0, -1):
        out = out.mul(exp_nilpotent(gens[word[k]], k, r))
    return out


def _det(entries) -> MultiPoly:
    d = len(entries)
    nvars = entries[0][0].nvars
    acc = MultiPoly.zero(nvars)
    for perm in itertools.permutations(range(d)):
        sign = 1
        for x in range(d):
            for y in range(x + 1, d):
                if perm[x] > perm[y]:
                    sign = -sign
        term = MultiPoly.constant(nvars, sign)
        for row, col in enumerate(perm):
            term = term.mul(entries[row][col])
        acc = acc.add(term)
    return acc


def column_minors(matrix: PolyMatrix, d: int) -> list:
    """All d-row minors of the first d columns, rows in index order."""
    n = matrix.size
    out = []
    for rows in itertools.combinations(range(1, n + 1), d):
        block = [[matrix.at(r, c) for c in range(1, d + 1)] for r in rows]
        out.append(_det(block))
    return out


def section_span(matrix: PolyMatrix, lam: WeightVec) -> list:
    """Products of fundamental minors modeling the weight-lam section space.

    Entry d of the weight picks d-row minors with multiplicity; the span
    is every product of such choices.  Valid for the type A model, where
    the fundamental section spaces are exactly the minor spans.
    """
    factors = []
    for d, mult in enumerate(lam.coords, start=1):
        if mult < 0:
            raise ValueError("weight must be dominant")
        if mult == 0:
            continue
        minors = column_minors(matrix, d)
        factors.append(list(itertools.combinations_with_replacement(minors, mult)))
    nvars = matrix.at(1, 1).nvars
    span = []
    for combo in itertools.product(*factors) if factors else [()]:
        prod = MultiPoly.constant(nvars, 1)
        for group in combo:
            for f in group:
                prod = prod.mul(f)
        span.append(prod)
    return span


def restrict_span(span: list, r: int) -> list:
    """Set variables beyond t_r to zero and re-home survivors in r variables.

    Models cutting a section span down to a smaller unipotent cell.
    With t_k = 0 every factor past position r of the word's product is
    the identity, so the survivors are the section span of the word's
    first r letters (less its zero polynomials), and both give the same
    value set.  It is kept as the independent reference for that prefix
    span and for the prefix queries of the benchmark.
    """
    out = []
    for f in span:
        g = f
        for k in range(r + 1, f.nvars + 1):
            g = g.subs_zero(k)
        if g.is_zero():
            continue
        cut = {}
        for e, c in g.terms:
            assert all(x == 0 for x in e[r:])
            cut[e[:r]] = c
        out.append(MultiPoly.make(r, cut))
    return out


def products_closure(polys: list, degree_cap: int) -> list:
    """All products of the generators with total degree at most the cap.

    Includes the empty product.  Backtracking over multisets, pruning by
    degree; generators of degree zero (constants, zero among them) are
    rejected to guarantee termination.
    """
    gens = [f for f in polys if f.total_degree() > 0]
    nvars = polys[0].nvars if polys else 0
    out = []

    def grow(start: int, current: MultiPoly, degree: int):
        out.append(current)
        for idx in range(start, len(gens)):
            d2 = degree + gens[idx].total_degree()
            if d2 > degree_cap:
                continue
            grow(idx, current.mul(gens[idx]), d2)

    grow(0, MultiPoly.constant(nvars, 1), 0)
    return out


def value_set_of_span(polys: list, order: ValuationOrder,
                      degree_cap: int | None = None) -> frozenset:
    """Values achieved on the linear span (optionally of a product closure).

    Exact Gaussian elimination: each polynomial is reduced against the
    pivots found so far (keyed by leading monomial under the order);
    every surviving leading monomial contributes one achieved value.
    The achieved set is unchanged by working degree by degree, since
    reduction never mixes monomials across the chosen order.
    """
    work = list(polys)
    if degree_cap is not None:
        work = products_closure(work, degree_cap)
    pivots = {}
    for f in work:
        g = f
        while not g.is_zero():
            e, c = g.leading(order)
            if e not in pivots:
                pivots[e] = g.scale(Fraction(1, 1) / c)
                break
            g = g.sub(pivots[e].scale(c))
    return frozenset(tuple(-x for x in _order_key(order, e)) for e in pivots)
