"""Reference implementations that only the tests use.

Each one is written independently of the library routine it checks:
the derivative orders against ``valuation.value``, the full exponential
series product against ``valuation.unipotent_product``, Leibniz sums
over permutations against ``valuation.column_minors`` and its column
expansion, every product of those minors against the standard monomials
of ``valuation.section_span``, Gaussian elimination in ``Fraction``s
with monic pivots against the fraction-free ``valuation.value_set_of_span``,
weight reflections for the brute-force reduced-word oracle, the two-template
descent (a form toward the next and one toward the previous occurrence
of a letter, each found by its own walk over the letters) against
``inequalities.shat`` and the table of ``inequalities.descent_templates``,
implication by projecting onto the value of the row against
``polytope._implied_by`` and its strict negation, a filter of every
cell of the bounding box against ``polytope.lattice_points`` and its
depth-first walk, the dimension formula through a symmetrizer against
``rootdata.weyl_dim_oracle`` and its coroots, and greedy raising one
step at a time against ``binfinity.membership`` and its raising runs.
The crystal kernel is checked against sigma_k, computed position by
position from its definition: the maxima of ``zcrystal.letter_max``
against its kernel scan, and a lowering and a raising step read off
every sigma_k against the runs of ``zcrystal._lower`` and
``zcrystal._raise`` and their in-place updates, and the weight and
statistics of a twisted element, by the tensor rule over sigma_k,
against ``zcrystal.twist_ftilde`` and ``zcrystal.twist_etilde``.  The
statistics ``eps``, ``phi`` and ``wt``, from sigma_k and the entry
sums, exist only here, so the crystal axioms check the kernel's
operators against code apart from its scan.  None of these calls a
``zcrystal`` operator.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd

from crystal_polytope.inequalities import AffineForm
from crystal_polytope.polytope import HalfSpaceSystem, bounding_box
from crystal_polytope.rootdata import (CartanMatrix, WeightVec, is_reduced, num_positive_roots,
                                       positive_roots)
from crystal_polytope.valuation import MultiPoly, value
from crystal_polytope.zcrystal import SequenceSpec, ZElement


def chevalley_value(f: MultiPoly) -> tuple:
    """Iterated derivative orders, first variable first.

    At step k the entry is the largest a with (-d/dt_k)^a f nonzero.
    Applying that operator a times and then setting t_k to zero keeps
    exactly the terms of t_k-degree a, each coefficient times (-1)^a a!.
    Matches the negated first-ranked valuation on every polynomial.
    """
    if f.is_zero():
        raise ValueError("undefined on the zero polynomial")
    terms = dict(f.terms)
    out = []
    for k in range(f.nvars):
        a = max(e[k] for e in terms)
        terms = {e[:k] + (0,) + e[k + 1:]: c * (-1) ** a * factorial(a)
                 for e, c in terms.items() if e[k] == a}
        assert terms and all(terms.values())
        out.append(a)
    return tuple(out)


def _matmul(x: list, y: list) -> list:
    n = len(x)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = MultiPoly.zero(x[0][0].nvars)
            for k in range(n):
                acc = acc.add(x[i][k].mul(y[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _exp_nilpotent(gen, t_index: int, nvars: int) -> list:
    """exp(t * gen) for an integer nilpotent matrix, summed until powers vanish."""
    n = len(gen)
    t = MultiPoly.variable(nvars, t_index)
    rows = [[MultiPoly.constant(nvars, 1) if i == j else MultiPoly.zero(nvars)
             for j in range(n)] for i in range(n)]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    t_pow = MultiPoly.constant(nvars, 1)
    for l in range(1, n + 1):
        power = [[sum(power[i][k] * gen[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
        if all(all(v == 0 for v in row) for row in power):
            break
        t_pow = t_pow.mul(t)
        coef = Fraction(1, factorial(l))
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    rows[i][j] = rows[i][j].add(t_pow.scale(coef * power[i][j]))
    return rows


def exp_series_product(word, gens: dict) -> tuple:
    """exp(t_r F_{j_r}) ... exp(t_1 F_{j_1}) by full series and matrix products."""
    r = len(word.letters)
    size = len(next(iter(gens.values())))
    out = [[MultiPoly.constant(r, 1) if i == j else MultiPoly.zero(r)
            for j in range(size)] for i in range(size)]
    for k in range(r, 0, -1):
        out = _matmul(out, _exp_nilpotent(gens[word[k]], k, r))
    return tuple(tuple(row) for row in out)


def leibniz_minors(matrix: tuple, d: int) -> dict:
    """Every d-row minor of the first d columns as a sum over permutations, keyed by row set.

    Rows are numbered from 1, as in ``valuation.column_minors``.
    """
    nvars = matrix[0][0].nvars
    out = {}
    for rows in itertools.combinations(range(1, len(matrix) + 1), d):
        acc = MultiPoly.zero(nvars)
        for perm in itertools.permutations(range(d)):
            inversions = sum(perm[x] > perm[y] for x in range(d) for y in range(x + 1, d))
            term = MultiPoly.constant(nvars, (-1) ** inversions)
            for row, col in zip(rows, perm):
                term = term.mul(matrix[row - 1][col])
            acc = acc.add(term)
        out[rows] = acc
    return out


def all_products_span(matrix: tuple, lam: WeightVec) -> list:
    """Every product of fundamental minors of weight lam, standard or not.

    Entry d of the weight picks that many d-row minors with repetition,
    each product rebuilt from 1.  Its span is the section space, with
    every dependent product that straightening would rewrite.
    """
    factors = []
    for d, mult in enumerate(lam.coords, start=1):
        if mult < 0:
            raise ValueError("weight must be dominant")
        if mult:
            minors = leibniz_minors(matrix, d).values()
            factors.append(list(itertools.combinations_with_replacement(minors, mult)))
    nvars = matrix[0][0].nvars
    span = []
    for combo in itertools.product(*factors):
        prod = MultiPoly.constant(nvars, 1)
        for group in combo:
            for f in group:
                prod = prod.mul(f)
        span.append(prod)
    return span


def fraction_value_set(polys: list, order) -> frozenset:
    """Values achieved on the span, by elimination against monic pivots in Fractions."""
    pivots = {}
    for f in polys:
        g = f
        while not g.is_zero():
            e, c = g.leading(order)
            if e not in pivots:
                pivots[e] = g.scale(Fraction(1, 1) / c)
                break
            g = g.sub(pivots[e].scale(c))
    return frozenset(value(p, order) for p in pivots.values())


def reflect(cartan: CartanMatrix, i: int, lam: WeightVec) -> WeightVec:
    """Simple reflection of a weight: subtract its i-th pairing times the i-th root."""
    ci = lam[i]
    return WeightVec(tuple(lam[j] - ci * cartan.pairing(j, i) for j in cartan.index_set()))


def all_reduced_words_longest(cartan: CartanMatrix) -> list:
    """Every reduced word for the longest element, in application order.

    Depth-first extension of reduced prefixes; fine at small rank.
    """
    target = num_positive_roots(cartan)
    out = []

    def grow(prefix: tuple):
        if len(prefix) == target:
            out.append(prefix)
            return
        for i in cartan.index_set():
            cand = prefix + (i,)
            if is_reduced(cartan, cand):
                grow(cand)

    grow(())
    return out


def all_reduced_words(cartan: CartanMatrix) -> list:
    """Every nonempty reduced word, by length, each length in lexicographic order."""
    words = []
    for length in range(1, num_positive_roots(cartan) + 1):
        for letters in itertools.product(cartan.index_set(), repeat=length):
            if is_reduced(cartan, letters):
                words.append(letters)
    return words


def lambda_form(spec: SequenceSpec, i: int) -> AffineForm:
    """Weight entry i minus the pairing contributions up to (and at) letter i's first slot."""
    first = 1
    while spec.letter(first) != i:
        first += 1
    coeffs = {first: -1}
    for j in range(1, first):
        coeffs[j] = -spec.cartan.pairing(i, spec.letter(j))
    lam = tuple(1 if t == i else 0 for t in spec.cartan.index_set())
    return AffineForm.make(coeffs, lam)


def plus_form(spec: SequenceSpec, k: int) -> AffineForm:
    """Template toward the next occurrence of the letter at position k."""
    i = spec.letter(k)
    kp = k + 1
    while spec.letter(kp) != i:
        kp += 1
    coeffs = {k: 1, kp: 1}
    for j in range(k + 1, kp):
        coeffs[j] = spec.cartan.pairing(i, spec.letter(j))
    return AffineForm.make(coeffs, (0,) * spec.cartan.rank)


def minus_form(spec: SequenceSpec, k: int) -> AffineForm:
    """Template toward the previous occurrence, or the weight cap when there is none."""
    i = spec.letter(k)
    km = k - 1
    while km > 0 and spec.letter(km) != i:
        km -= 1
    if km > 0:
        coeffs = {km: 1, k: 1}
        for j in range(km + 1, k):
            coeffs[j] = spec.cartan.pairing(i, spec.letter(j))
        return AffineForm.make(coeffs, (0,) * spec.cartan.rank)
    coeffs = {k: 1}
    for j in range(1, k):
        coeffs[j] = spec.cartan.pairing(i, spec.letter(j))
    lam = tuple(-1 if t == i else 0 for t in spec.cartan.index_set())
    return AffineForm.make(coeffs, lam)


def descent(spec: SequenceSpec, psi: AffineForm, k: int) -> AffineForm:
    """Descent at k against the next-occurrence template or the previous-occurrence one."""
    ck = psi.coefficient(k)
    if ck == 0:
        return psi
    template = plus_form(spec, k) if ck > 0 else minus_form(spec, k)
    return psi.minus(template, ck)


def descent_table(spec: SequenceSpec, window: int) -> tuple:
    """``inequalities.descent_templates`` built from the templates above.

    One position at a time: (plus_form, minus_form) per window position,
    then the coordinate forms and the weight caps in letter order.
    """
    zero = (0,) * spec.cartan.rank
    table = [(plus_form(spec, k), minus_form(spec, k)) for k in range(1, window + 1)]
    seeds = [AffineForm.make({k: 1}, zero) for k in range(1, window + 1)]
    seeds += [lambda_form(spec, i) for i in spec.cartan.index_set()]
    return table, seeds


def implied_by_projection(rows, row, dim: int) -> bool:
    """True when every rational solution of rows satisfies row.

    Encodes t = row(x), projects x away by Fourier-Motzkin, and checks
    that the projected t-interval sits in t >= 0 (an empty projection
    counts as implied).
    """
    def primitive(vec, const):
        g = gcd(*vec, const)
        return (tuple(c // g for c in vec), const // g) if g > 1 else (vec, const)

    work = [(tuple(coeffs) + (0,), const) for coeffs, const in rows]
    rc, rconst = row
    plus = tuple(rc) + (-1,)
    work.append((plus, rconst))                          # row(x) - t >= 0
    work.append((tuple(-c for c in plus), -rconst))      # t - row(x) >= 0
    for v in range(dim):
        pos = [r for r in work if r[0][v] > 0]
        neg = [r for r in work if r[0][v] < 0]
        combined = [r for r in work if r[0][v] == 0]
        for pv, pc in pos:
            for nv, nc in neg:
                a, b = -nv[v], pv[v]
                combined.append((tuple(a * x + b * y for x, y in zip(pv, nv)), a * pc + b * nc))
        work = list(dict.fromkeys(primitive(vec, const) for vec, const in combined))

    t_lower, t_upper = [], []
    for vec, const in work:
        ct = vec[dim]
        if ct == 0:
            if const < 0:
                return True  # the other rows are already infeasible
        elif ct > 0:
            t_lower.append(Fraction(-const, ct))
        else:
            t_upper.append(Fraction(-const, ct))
    if t_lower and t_upper and max(t_lower) > min(t_upper):
        return True  # projection empty, so the other rows are infeasible
    return bool(t_lower) and max(t_lower) >= 0


def brute_lattice_points(system: HalfSpaceSystem) -> list:
    """All integer points of the system, sorted: every cell of its bounding box tested
    against every row."""
    box = bounding_box(system)
    cells = itertools.product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi)))
    return sorted(p for p in cells
                  if all(sum(c * x for c, x in zip(coeffs, p)) + const >= 0
                         for coeffs, const in system.rows))


def weyl_dim_symmetrized(cartan: CartanMatrix, lam: WeightVec) -> int:
    """Weyl's product over positive roots of (lam + rho, root) / (rho, root).

    The invariant form is built from a symmetrizer d of the Cartan matrix:
    (weight, alpha_i) = d_i times the weight's i-th coordinate.
    """
    d = cartan.symmetrizer()
    dim = Fraction(1)
    for root in positive_roots(cartan):
        num = sum((l + 1) * di * c for l, di, c in zip(lam.coords, d, root))
        den = sum(di * c for di, c in zip(d, root))
        dim *= Fraction(num, den)
    assert dim.denominator == 1
    return int(dim)


def sigma_k(spec: SequenceSpec, x: ZElement, k: int) -> int:
    """x_k plus the pairing-weighted sum of all later entries, one entry at a time."""
    i = spec.letter(k)
    own = x[k - 1] if k <= len(x) else 0
    return own + sum(spec.cartan.pairing(i, spec.letter(j)) * x[j - 1]
                     for j in range(k + 1, len(x) + 1))


def greedy_membership(spec: SequenceSpec, x: ZElement) -> bool:
    """Raise one step at a time at the smallest letter with positive eps; members reach zero."""
    cur = x
    while True:
        if any(v < 0 for v in cur):
            return False
        if not cur:
            return True
        for i in spec.cartan.index_set():
            raised = raising_step(spec, cur, i)
            if raised is not None:
                cur = raised
                break
        else:
            return False


def lowering_step(spec: SequenceSpec, x: ZElement, i: int) -> ZElement:
    """f_i by its definition: add 1 at the smallest position of letter i attaining max sigma.

    Every sigma_k is computed on its own over the base word, the support
    and one tail cycle plus one position, a window that shows every
    letter past the support, where sigma is 0.
    """
    window = max(len(x), len(spec.base.letters)) + spec.cartan.rank + 1
    sigmas = {k: sigma_k(spec, x, k) for k in range(1, window + 1) if spec.letter(k) == i}
    best = max([0, *sigmas.values()])
    return x.bump(min(k for k, s in sigmas.items() if s == best), +1)


def raising_step(spec: SequenceSpec, x: ZElement, i: int) -> ZElement | None:
    """e_i by its definition: subtract 1 at the largest position of letter i attaining a
    positive max sigma; None when the max is 0.

    Past the support every sigma_k is 0, so a positive max is attained in
    the support, and only the support's sigma_k are computed.
    """
    sigmas = {k: sigma_k(spec, x, k) for k in range(1, len(x) + 1)
              if spec.letter(k) == i}
    best = max([0, *sigmas.values()])
    if best == 0:
        return None
    return x.bump(max(k for k, s in sigmas.items() if s == best), -1)


def eps(spec: SequenceSpec, x: ZElement, i: int) -> int:
    """The max of 0 and every sigma_k of letter i in the support; past it sigma_k is 0."""
    return max([0, *(sigma_k(spec, x, k) for k in range(1, len(x) + 1)
                     if spec.letter(k) == i)])


def wt(spec: SequenceSpec, x: ZElement) -> tuple:
    """Weight in simple-root coefficients: minus the entries of each letter, summed."""
    coeffs = [0] * spec.cartan.rank
    for k, v in enumerate(x, 1):
        coeffs[spec.letter(k) - 1] -= v
    return tuple(coeffs)


def phi(spec: SequenceSpec, x: ZElement, i: int) -> int:
    """eps_i plus the i-th weight coordinate <h_i, wt x>, paired from the root coefficients."""
    return eps(spec, x, i) + sum(spec.cartan.pairing(i, j) * c
                                 for j, c in enumerate(wt(spec, x), 1))


def twisted_statistics(spec: SequenceSpec, x: ZElement, i: int, lam: WeightVec) -> tuple:
    """Weight, eps_i and phi_i of x tensored with the one-point crystal of lam.

    The body's statistics are the oracles above.  The one-point factor
    has weight lam, eps_i = -lam_i and phi_i = 0, and the tensor rule
    (Kashiwara, Duke Math. J. 71, 1993) gives wt = wt x + lam,
    eps_i = max(eps_i x, -lam_i - <h_i, wt x>) and
    phi_i = max(0, phi_i x + lam_i).
    """
    weight = tuple(phi(spec, x, j) - eps(spec, x, j) for j in spec.cartan.index_set())
    return (WeightVec(tuple(w + l for w, l in zip(weight, lam.coords))),
            max(eps(spec, x, i), -lam[i] - weight[i - 1]), max(0, phi(spec, x, i) + lam[i]))
