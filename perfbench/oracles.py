"""Reference answers computed without the package under test.

Every function here is written from the mathematics alone: its own
Cartan matrices, Demazure operators on weight multiplicities, the closed
image cones and slices of the rank-2 charts, the lex-leading monomial of
a polynomial, and root-lattice weights of coordinate vectors.  The
benchmark checks the program's outputs against these.
"""

from __future__ import annotations

from math import gcd


class WrongOutput(AssertionError):
    """An output that contradicts an oracle or a required property."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def cartan_rows(family: str, rank: int) -> tuple:
    """Rows of the Cartan matrix, row i pairing every simple root with coroot i.

    Bourbaki numbering; type C carries its long root last, so row n-1 has
    -2 in column n, and type B is the transpose of that corner.
    """
    m = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(rank)]
         for i in range(rank)]
    if family == "B":
        m[rank - 1][rank - 2] = -2
    elif family == "C":
        m[rank - 2][rank - 1] = -2
    elif family == "G":
        m = [[2, -3], [-1, 2]]
    elif family != "A":
        raise ValueError(f"no oracle Cartan matrix for type {family}")
    return tuple(tuple(row) for row in m)


def num_positive_roots(family: str, rank: int) -> int:
    return {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank, "G": 6}[family]


def rho_dim(family: str, rank: int, k: int) -> int:
    """Dimension at k*rho by the Weyl formula: every root factor is k + 1."""
    return (k + 1) ** num_positive_roots(family, rank)


def _demazure_op(char: dict, i: int, alpha: tuple) -> dict:
    """D_i(e^mu) = (e^mu - e^(s_i mu - alpha_i)) / (1 - e^(-alpha_i)), termwise."""
    out: dict = {}
    for mu, mult in char.items():
        m = mu[i]
        if m >= 0:
            shifts = [(-j, mult) for j in range(m + 1)]
        else:  # m = -1 gives nothing; m <= -2 gives minus e^(mu + j alpha_i), j = 1 .. -m-1
            shifts = [(j, -mult) for j in range(1, -m)]
        for j, c in shifts:
            nu = tuple(x + j * a for x, a in zip(mu, alpha))
            out[nu] = out.get(nu, 0) + c
    return {mu: c for mu, c in out.items() if c}


def demazure_character(rows: tuple, word, lam) -> dict:
    """Weight multiplicities of the Demazure slice, word in application order.

    The first letter's operator acts first, matching the slice built by
    lowering along j_1, then j_2, and so on from the highest element.
    """
    n = len(rows)
    alphas = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    char = {tuple(lam): 1}
    for letter in word:
        char = _demazure_op(char, letter - 1, alphas[letter - 1])
    return char


def demazure_dim(rows: tuple, word, lam) -> int:
    return sum(demazure_character(rows, word, lam).values())


def in_image_cone(chart: str, a) -> bool:
    """Closed-form image cones of the rank-2 charts A2 (1,2,1) and C2 (1,2,1,2)."""
    if any(v < 0 for v in a):
        return False
    if chart == "A2":
        return a[1] >= a[2]
    if chart == "C2":
        return 2 * a[1] >= a[2] >= 2 * a[3]
    raise ValueError(f"no closed-form cone for chart {chart}")


def in_slice(chart: str, lam, a) -> bool:
    """Closed-form slices of the rank-2 charts at a dominant weight (l1, l2).

    A2 (1,2,1): 0 <= a1 <= l1, 0 <= a3 <= l2, a3 <= a2 <= a1 + l2.
    C2 (1,2,1,2): 0 <= a1 <= l1, 0 <= a2 <= a1 + l2, 0 <= a3 <= a2 + l2,
    a3 <= 2 a2, 0 <= 2 a4 <= a3, a4 <= l2.
    """
    l1, l2 = lam
    if chart == "A2":
        a1, a2, a3 = a
        return 0 <= a1 <= l1 and 0 <= a3 <= l2 and a3 <= a2 <= a1 + l2
    if chart == "C2":
        a1, a2, a3, a4 = a
        return (0 <= a1 <= l1 and 0 <= a2 <= a1 + l2 and 0 <= a3 <= a2 + l2
                and a3 <= 2 * a2 and 0 <= 2 * a4 <= a3 and a4 <= l2)
    raise ValueError(f"no closed-form slice for chart {chart}")


def a2_eta(a) -> tuple:
    """Star involution on the A2 chart (1,2,1), in its piecewise-linear form."""
    a1, a2, a3 = a
    return (max(a3, a1 - a2 + 2 * a3), a2, min(a1, a2 - a3))


def c2_eta_opposite(a) -> tuple:
    """Transition from the C2 chart (1,2,1,2) to the string chart of (2,1,2,1)."""
    a1, a2, a3, a4 = a
    return (max(a4, a2 - a3 + 2 * a4),
            max(a3, a1 - 2 * a2 + 2 * a3, a1 + 2 * a4),
            min(a2, a3 - a4),
            min(a1, 2 * a2 - a3, a3 - 2 * a4))


def root_weight(word, coords, rank: int) -> tuple:
    """Simple-root coefficients of sum_k coords_k * alpha_(word_k).

    Every operator moves the weight by one simple root, so a point, its
    star partner and its string data along any word share this vector.
    """
    out = [0] * rank
    for letter, c in zip(word, coords):
        out[letter - 1] += c
    return tuple(out)


def leading_value(terms: dict, order: str) -> tuple:
    """Minus the exponents of the lex-largest monomial, in the order's rank.

    ``hi`` ranks t_1 highest; ``tilde`` ranks t_r highest and lists the
    vector from t_r down to t_1.
    """
    ranked = terms if order == "hi" else [tuple(reversed(e)) for e in terms]
    return tuple(-x for x in max(ranked))


def lattice_points_of_rows(rows, lo, hi) -> list:
    """Integer points x of the box lo <= x <= hi with c . x + const >= 0 for
    every row (c, const), found coordinate by coordinate: a row is tested
    as soon as its last nonzero coefficient has a value."""
    n = len(lo)
    due = [[] for _ in range(n)]
    for coeffs, const in rows:
        nz = [i for i, c in enumerate(coeffs) if c]
        if nz:
            due[nz[-1]].append((coeffs, const))
        elif const < 0:
            return []
    out = []

    def walk(prefix):
        d = len(prefix)
        for v in range(lo[d], hi[d] + 1):
            x = prefix + (v,)
            if all(sum(c * y for c, y in zip(coeffs, x)) + const >= 0 for coeffs, const in due[d]):
                if d + 1 == n:
                    out.append(x)
                else:
                    walk(x)

    walk(())
    return out


def check_hrep_rows(rows, points) -> None:
    """Rows are distinct and primitive, and their integer points in a box one
    cell larger than the points' bounding box are exactly the points (so none
    lies on the box's outer shell): a dropped, loosened or tightened row, or
    a trivial system, shows as a point gained or lost."""
    seen = set()
    for coeffs, const in rows:
        key = (tuple(coeffs), const)
        expect(key not in seen, f"duplicate row {key}")
        seen.add(key)
        g = 0
        for c in (*coeffs, const):
            g = gcd(g, c)
        expect(g == 1, f"row {key} is not primitive")
    pts = {tuple(p) for p in points}
    lo = [min(c) - 1 for c in zip(*pts)]
    hi = [max(c) + 1 for c in zip(*pts)]
    got = set(lattice_points_of_rows(rows, lo, hi))
    expect(got == pts, f"rows cut out {len(got)} points of the box, the slice has {len(pts)}; "
           f"extra {sorted(got - pts)[:3]}, missing {sorted(pts - got)[:3]}")
