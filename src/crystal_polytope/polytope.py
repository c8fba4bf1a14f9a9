"""Integer half-space systems, exact lattice enumeration, and redundancy removal.

Everything here is exact: rows are integer vectors, bounding boxes are
computed by interval propagation with integer floor division rounding
the safe way, lattice points come from a depth-first walk over the box
that bounds each coordinate from the rows' partial sums and the most
the remaining coordinates can add (so no cell is tested on its own), and
redundancy removal is Fourier-Motzkin elimination in integers on the
strict negation of a row (safe for lattice point sets since it only
drops rows implied over the rationals).  Only integer rows come in: the
inequality layer instantiates its forms at a weight first.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

BOX_ROUNDS = 100  # cap on the interval propagation rounds of bounding_box
IMPLIED_ROWS = 1_000_000  # cap on the rows one Fourier-Motzkin step of _implied_by builds


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Rows (coeffs, const) meaning coeffs . x + const >= 0, integer entries."""

    dim: int
    rows: tuple

    @staticmethod
    def make(dim: int, rows) -> "HalfSpaceSystem":
        canon = []
        for coeffs, const in rows:
            coeffs = tuple(int(c) for c in coeffs)
            if len(coeffs) != dim:
                raise ValueError("row width mismatch")
            canon.append((coeffs, int(const)))
        return HalfSpaceSystem(dim, tuple(canon))


@dataclass(frozen=True)
class LatticeBox:
    lo: tuple
    hi: tuple

    def volume(self) -> int:
        out = 1
        for l, h in zip(self.lo, self.hi):
            out *= max(0, h - l + 1)
        return out


def bounding_box(system: HalfSpaceSystem) -> LatticeBox:
    """Exact interval propagation until the per-variable bounds stop moving.

    Each round tightens one variable against each row using the current
    intervals of the others.  Raises when some variable is still
    unbounded at the fixpoint.  Every unbounded system raises, and so do
    some bounded ones: x, y >= 0, 2x - y <= 5, 2y - x <= 5 bounds both
    variables, but each upper bound needs the other's first.  No delta
    system is known to raise that way: the certified closures of every
    reduced word of the longest element in A2, B2, G2, A3, B3 and C3 all
    have finite boxes at 0, rho and 2*rho.
    """
    n = system.dim
    lo = [None] * n
    hi = [None] * n

    def term_upper(j: int, c: int):
        if c > 0:
            return None if hi[j] is None else c * hi[j]
        return None if lo[j] is None else c * lo[j]

    for _ in range(BOX_ROUNDS):
        changed = False
        for coeffs, const in system.rows:
            for j, cj in enumerate(coeffs):
                if cj == 0:
                    continue
                rest = 0
                unbounded = False
                for l, cl in enumerate(coeffs):
                    if l == j or cl == 0:
                        continue
                    u = term_upper(l, cl)
                    if u is None:
                        unbounded = True
                        break
                    rest += u
                if unbounded:
                    continue
                # cj * x_j >= -(const + rest), rounded inward
                if cj > 0:
                    b = -((const + rest) // cj)
                    if lo[j] is None or b > lo[j]:
                        lo[j] = b
                        changed = True
                else:
                    b = (const + rest) // -cj
                    if hi[j] is None or b < hi[j]:
                        hi[j] = b
                        changed = True
        if not changed:
            break
    if any(l is None for l in lo) or any(h is None for h in hi):
        raise ValueError("system does not bound every coordinate")
    return LatticeBox(tuple(lo), tuple(hi))


def lattice_points(system: HalfSpaceSystem) -> list:
    """All integer points of the system, sorted; a depth-first walk over its bounding box.

    At depth d the coordinates before d are fixed and each row carries its
    partial sum over them.  The most a row can still gain from coordinates
    after d is the box maximum of its remaining terms, so a row with a
    positive coefficient raises x_d's lower bound (ceiling division), a
    row with a negative one lowers the upper bound (floor division), and a
    row that misses x_d prunes the branch when even that maximum leaves it
    negative.  At the last coordinate nothing remains, the bounds are
    exact and every value between them is a point.  Values rise at every
    depth, so the points come out sorted.
    """
    box = bounding_box(system)
    n, rows = system.dim, system.rows
    if n == 0:
        return [()] if all(const >= 0 for _, const in rows) else []
    if any(h < l for l, h in zip(box.lo, box.hi)):
        return []
    # steps[d]: x_d's box interval, the rows' coefficients on x_d, and
    # (row, coefficient, reach) for the rows whose coefficient is positive,
    # negative or zero; reach is the most the coordinates after d can add
    # to the row over the box
    reach = [0] * len(rows)
    steps = []
    for d in reversed(range(n)):
        lo, hi = box.lo[d], box.hi[d]
        column = tuple(coeffs[d] for coeffs, _ in rows)
        lifts, caps, misses = [], [], []
        for r, c in enumerate(column):
            (lifts if c > 0 else caps if c < 0 else misses).append((r, c, reach[r]))
        steps.append((lo, hi, column, lifts, caps, misses))
        reach = [t + max(c * lo, c * hi) for t, c in zip(reach, column)]
    steps.reverse()
    last = n - 1
    out = []

    def walk(d: int, prefix: tuple, partial: list) -> None:
        lo, hi, column, lifts, caps, misses = steps[d]
        for r, _, t in misses:
            if partial[r] + t < 0:
                return
        for r, c, t in lifts:
            lo = max(lo, -((partial[r] + t) // c))
        for r, c, t in caps:
            hi = min(hi, (partial[r] + t) // -c)
        if d == last:
            out.extend(prefix + (x,) for x in range(lo, hi + 1))
            return
        for x in range(lo, hi + 1):
            walk(d + 1, prefix + (x,), [s + c * x for s, c in zip(partial, column)])

    walk(0, (), [const for _, const in rows])
    return out


def _row_reduce(coeffs: tuple, const: int):
    g = gcd(*coeffs, const)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const = const // g
    return coeffs, const


def normalize(system: HalfSpaceSystem) -> HalfSpaceSystem:
    """Scale rows to primitive form, dedup, and drop implied rows.

    Redundancy is decided exactly: a row is dropped when the remaining
    rows imply it over the rationals (Fourier-Motzkin in integers on its
    strict negation), so the integer point set never changes.  Raises
    when an elimination step would build more than ``IMPLIED_ROWS`` rows.
    """
    seen = []
    for coeffs, const in system.rows:
        row = _row_reduce(coeffs, const)
        if all(c == 0 for c in row[0]) and row[1] >= 0:
            continue
        if row not in seen:
            seen.append(row)
    kept = list(seen)
    for row in seen:
        others = [r for r in kept if r != row]
        if _implied_by(others, row, system.dim):
            kept = others
    return HalfSpaceSystem.make(system.dim, sorted(kept))


def _implied_by(rows, row, dim: int) -> bool:
    """True when every rational solution of rows satisfies row.

    Decided on the strict negation: rows together with -row(x) > 0 have
    no rational solution exactly when row is implied (infeasible rows
    imply every row).  Fourier-Motzkin eliminates every variable; a
    combined row is strict when either parent is.  A step builds the rows
    free of its variable plus one per positive-negative pair, and each
    step eliminates the remaining variable with the fewest such rows
    (ties to the lowest index); the answer is the same in every order.
    Integer rows combined with integer multipliers stay integer; after
    each eliminated variable the rows are reduced to primitive form and
    deduplicated, strict flag included, which leaves the solution set as
    it is.  The system is infeasible when some final row reads const < 0,
    or const == 0 and strict.  Before a step builds its rows, their count
    is checked against ``IMPLIED_ROWS``; past it the step raises instead
    of exhausting memory.
    """
    coeffs, const = row
    work = [(tuple(c), k, False) for c, k in rows]
    work.append((tuple(-c for c in coeffs), -const, True))
    left = list(range(dim))
    while left:
        steps = []
        for v in left:
            pos = [r for r in work if r[0][v] > 0]
            neg = [r for r in work if r[0][v] < 0]
            steps.append((len(work) - len(pos) - len(neg) + len(pos) * len(neg), v, pos, neg))
        count, v, pos, neg = min(steps, key=lambda step: step[:2])
        left.remove(v)
        combined = [r for r in work if r[0][v] == 0]
        if count > IMPLIED_ROWS:
            raise ValueError(f"eliminating a{v + 1} from {len(work)} rows would build {count} "
                             f"rows, past the cap of {IMPLIED_ROWS}")
        for pv, pc, ps in pos:
            for nv, nc, ns in neg:
                scale_p = -nv[v]
                scale_n = pv[v]
                vec = tuple(scale_p * a + scale_n * b for a, b in zip(pv, nv))
                combined.append((vec, scale_p * pc + scale_n * nc, ps or ns))
        work = list(dict.fromkeys((*_row_reduce(vec, k), strict) for vec, k, strict in combined))
    return any(k < 0 or (k == 0 and strict) for _, k, strict in work)
