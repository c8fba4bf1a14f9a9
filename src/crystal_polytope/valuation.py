"""Exact multivariate polynomials, highest-term valuations, and section spans.

Polynomials are stored as sorted exponent-tuple terms with exact
coefficients: Python ints on the span path, from the generators to the
value set, and ``Fraction`` only where parsed input brings it.  The two
valuation flavors are lexicographic highest-term maps: one ranks
variables first-to-last, the other last-to-first; both send a
polynomial to minus the exponent vector of its maximal monomial.  The
span machinery builds the product of the factors exp(t_k F) = I + t_k F
of square-zero generators by column operations, expands its minors on
the first columns column by column, multiplies them into the standard
monomials of a weight, which span the modeled sections, and reads off
achieved values by fraction-free Gaussian elimination against the
chosen monomial order.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .rootdata import CartanMatrix, ReducedWord, WeightVec, cartan_builtin


class ValuationOrder(Enum):
    """HI ranks t_1 above t_2 above ...; TILDE ranks t_r above ... above t_1."""

    HI = "hi"
    TILDE = "tilde"


def _order_key(order: ValuationOrder, exps: tuple) -> tuple:
    return exps if order is ValuationOrder.HI else tuple(reversed(exps))


@dataclass(frozen=True)
class MultiPoly:
    """Sum of coeff * t^exps, exact: int coefficients unless input brings Fractions."""

    nvars: int
    terms: tuple  # sorted tuple of (exps tuple, int or Fraction), coeffs nonzero

    @staticmethod
    def make(nvars: int, data: dict) -> "MultiPoly":
        """Validate outside input: exponent vectors checked, coefficients made Fractions."""
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
    def _of(nvars: int, data: dict) -> "MultiPoly":
        # terms built from checked ones: zeros dropped, coefficients kept as they are
        return MultiPoly(nvars, tuple(sorted((e, c) for e, c in data.items() if c)))

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, ())

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        return MultiPoly._of(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, k: int) -> "MultiPoly":
        if not 1 <= k <= nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == k else 0 for j in range(1, nvars + 1))
        return MultiPoly._of(nvars, {exps: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "MultiPoly") -> "MultiPoly":
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return MultiPoly._of(self.nvars, d)

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.scale(-1))

    def scale(self, c) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {e: c * v for e, v in self.terms})

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        d = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(map(operator.add, e1, e2))
                d[e] = d.get(e, 0) + c1 * c2
        return MultiPoly._of(self.nvars, d)

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
                try:
                    coeff *= Fraction(m.group(3))
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
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


def unipotent_product(word: ReducedWord, gens: dict) -> tuple:
    """exp(t_r F_{j_r}) ... exp(t_1 F_{j_1}) as a tuple of row tuples, by column operations.

    The first letter of the word carries t_1 and its factor sits
    rightmost.  Every generator must square to zero, so each factor is
    I + t_k F; multiplying by it on the right adds t_k * F[a][b] times
    column a to column b for each nonzero entry F[a][b].
    """
    r = len(word.letters)
    if r == 0:
        raise ValueError("empty word")
    for i, gen in gens.items():
        n = len(gen)
        if any(sum(gen[a][c] * gen[c][b] for c in range(n))
               for a in range(n) for b in range(n)):
            raise ValueError(f"generator {i} does not square to zero")
    size = len(next(iter(gens.values())))
    cols = [[MultiPoly.constant(r, 1) if i == j else MultiPoly.zero(r)
             for i in range(size)] for j in range(size)]
    for k in range(r, 0, -1):
        t = MultiPoly.variable(r, k)
        gen = gens[word[k]]
        new = list(cols)
        for a, row in enumerate(gen):
            for b, c in enumerate(row):
                if c:
                    step = t.scale(c)
                    new[b] = [x.add(step.mul(y)) for x, y in zip(new[b], cols[a])]
        cols = new
    return tuple(zip(*cols))


def column_minors(matrix: tuple, d: int) -> list:
    """Every c-row minor of the first c columns, for c = 0..d, from one expansion.

    Entry c of the list maps each c-row set, in index order and numbered
    from 1, to its minor.  Built column by column: the minor on rows R
    and the first c columns expands along column c over the minors on R
    less one row and the first c - 1 columns, which the previous level
    holds.
    """
    nvars = matrix[0][0].nvars
    levels = [{(): MultiPoly.constant(nvars, 1)}]
    for c in range(1, d + 1):
        minors, grown = levels[-1], {}
        for rows in itertools.combinations(range(1, len(matrix) + 1), c):
            acc = MultiPoly.zero(nvars)
            for x, row in enumerate(rows):
                if not (entry := matrix[row - 1][c - 1]).is_zero():
                    term = entry.mul(minors[rows[:x] + rows[x + 1:]])
                    acc = acc.sub(term) if (c - 1 - x) % 2 else acc.add(term)
            grown[rows] = acc
        levels.append(grown)
    return levels


def section_span(matrix: tuple, lam: WeightVec) -> list:
    """The standard monomials of weight lam, spanning the modeled section space.

    Entry d of the weight gives that many d-row columns of a tableau,
    longest first; a monomial takes one minor per column and is standard
    when each row set is componentwise at least the previous column's on
    its rows.  Straightening writes every product of minors in these, and
    on a longest word they are a basis.  Each is built once, as its parent
    times one minor, and one column expansion to the longest column gives
    the minors of every length.  Valid for the type A model, where the
    fundamental section spaces are exactly the minor spans.
    """
    if any(m < 0 for m in lam.coords):
        raise ValueError("weight must be dominant")
    top = max((d for d, m in enumerate(lam.coords, start=1) if m), default=0)
    levels = column_minors(matrix, top)
    nodes = [((), MultiPoly.constant(matrix[0][0].nvars, 1))]
    for d in range(top, 0, -1):
        for _ in range(lam[d]):
            nodes = [(rows, prod.mul(f)) for prev, prod in nodes for rows, f in levels[d].items()
                     if all(a <= b for a, b in zip(prev, rows))]
    return [prod for _, prod in nodes]


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
        cut = {e[:r]: c for e, c in f.terms if not any(e[r:])}
        if cut:
            out.append(MultiPoly._of(r, cut))
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
    _grow(gens, degree_cap, 0, MultiPoly.constant(nvars, 1), 0, out)
    return out


def _grow(gens: list, degree_cap: int, start: int, current: MultiPoly, degree: int,
          out: list) -> None:
    """Append current, then its products with gens[start:] that stay under the cap.

    A module-level function, not a closure: a nested function that calls
    itself is a reference cycle, which would keep ``out`` alive until the
    cyclic collector runs.
    """
    out.append(current)
    for idx in range(start, len(gens)):
        d2 = degree + gens[idx].total_degree()
        if d2 <= degree_cap:
            _grow(gens, degree_cap, idx, current.mul(gens[idx]), d2, out)


def value_set_of_span(polys: list, order: ValuationOrder) -> frozenset:
    """Values achieved on the linear span of the polynomials.

    Fraction-free Gaussian elimination (Bareiss) in ints: each
    polynomial, cleared of denominators, is reduced against the pivots
    found so far, keyed by leading monomial under the order and kept with
    their leading coefficient pc.  A row g with leading coefficient c
    becomes g - (c // pc) * p when pc divides c, else pc * g - c * p, and
    is then divided by the gcd of its coefficients.  Every surviving
    leading monomial contributes one achieved value.  The achieved set is
    unchanged by working degree by degree, since reduction never mixes
    monomials across the chosen order.
    """
    rank = None if order is ValuationOrder.HI else (lambda e: e[::-1])
    pivots = {}
    for f in polys:
        m = lcm(*(c.denominator for _, c in f.terms))
        g = {e: int(c * m) for e, c in f.terms}
        while g:
            e = max(g, key=rank)
            p = pivots.get(e)
            if p is None:
                pivots[e] = g
                break
            c, pc = g[e], p[e]
            if c % pc:
                g = {x: pc * v for x, v in g.items()}
            else:
                c //= pc
            for x, v in p.items():
                if w := g.get(x, 0) - c * v:
                    g[x] = w
                else:
                    g.pop(x, None)
            if (d := gcd(*g.values())) > 1:
                g = {x: v // d for x, v in g.items()}
    return frozenset(tuple(-x for x in _order_key(order, e)) for e in pivots)
