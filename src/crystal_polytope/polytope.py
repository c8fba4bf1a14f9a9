"""Integer half-space systems, exact lattice enumeration, and redundancy removal.

Everything here is exact: rows are integer vectors, bounding boxes are
computed by interval propagation with rational division rounded the
safe way, and redundancy removal is rational Fourier-Motzkin (safe for
lattice point sets since it only drops rows implied over the rationals).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .rootdata import WeightVec

BOX_ROUNDS = 100  # cap on the interval propagation rounds of bounding_box


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

    def satisfied(self, point) -> bool:
        return all(sum(c * x for c, x in zip(coeffs, point)) + const >= 0
                   for coeffs, const in self.rows)


@dataclass(frozen=True)
class LatticeBox:
    lo: tuple
    hi: tuple

    def points(self):
        return itertools.product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))

    def volume(self) -> int:
        out = 1
        for l, h in zip(self.lo, self.hi):
            out *= max(0, h - l + 1)
        return out


def bounding_box(system: HalfSpaceSystem) -> LatticeBox:
    """Exact interval propagation until the per-variable bounds stop moving.

    Each round tightens one variable against each row using the current
    intervals of the others.  Raises when some variable is still
    unbounded at the fixpoint; such a system has no finite box.
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
                bound = Fraction(-const - rest, cj)
                if cj > 0:
                    b = ceil(bound)
                    if lo[j] is None or b > lo[j]:
                        lo[j] = b
                        changed = True
                else:
                    b = floor(bound)
                    if hi[j] is None or b < hi[j]:
                        hi[j] = b
                        changed = True
        if not changed:
            break
    if any(l is None for l in lo) or any(h is None for h in hi):
        raise ValueError("system does not bound every coordinate")
    return LatticeBox(tuple(lo), tuple(hi))


def lattice_points(system: HalfSpaceSystem) -> list:
    """All integer points of the system, sorted; brute filter over its bounding box."""
    box = bounding_box(system)
    if any(h < l for l, h in zip(box.lo, box.hi)):
        return []
    return sorted(p for p in box.points() if system.satisfied(p))


def system_from_forms(forms, r: int, lam: WeightVec) -> HalfSpaceSystem:
    """Instantiate restricted affine forms at a concrete weight."""
    rows = []
    for f in forms:
        coeffs = tuple(f.coefficient(p) for p in range(1, r + 1))
        rows.append((coeffs, f.constant_at(lam)))
    return HalfSpaceSystem.make(r, rows)


def _row_reduce(coeffs: tuple, const: int):
    g = gcd(*coeffs, const)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        const = const // g
    return coeffs, const


def normalize(system: HalfSpaceSystem) -> HalfSpaceSystem:
    """Scale rows to primitive form, dedup, and drop implied rows.

    Redundancy is decided exactly: a row is dropped when its minimum
    over the remaining rows' polyhedron is nonnegative (rational
    Fourier-Motzkin), so the integer point set never changes.
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

    Encodes t = row(x), projects x away by Fourier-Motzkin, and checks
    that the projected t-interval sits in t >= 0 (an empty projection
    counts as implied).
    """
    # working rows over variables x_1..x_dim, t: (vec of dim+1 Fractions, const)
    work = []
    for coeffs, const in rows:
        work.append((tuple(Fraction(c) for c in coeffs) + (Fraction(0),), Fraction(const)))
    rc, rconst = row
    plus = tuple(Fraction(c) for c in rc) + (Fraction(-1),)
    work.append((plus, Fraction(rconst)))          # row(x) - t >= 0
    work.append((tuple(-c for c in plus), -Fraction(rconst)))  # t - row(x) >= 0

    for v in range(dim):
        pos = [r for r in work if r[0][v] > 0]
        neg = [r for r in work if r[0][v] < 0]
        zero = [r for r in work if r[0][v] == 0]
        combined = []
        for pv, pc in pos:
            for nv, nc in neg:
                scale_p = -nv[v]
                scale_n = pv[v]
                vec = tuple(scale_p * a + scale_n * b for a, b in zip(pv, nv))
                combined.append((vec, scale_p * pc + scale_n * nc))
        work = zero + combined

    t_lower, t_upper = [], []
    for vec, const in work:
        ct = vec[dim]
        if ct == 0:
            if const < 0:
                return True  # the other rows are already infeasible
            continue
        if ct > 0:
            t_lower.append(Fraction(-const, ct))
        else:
            t_upper.append(Fraction(-const, ct))
    if t_lower and t_upper and max(t_lower) > min(t_upper):
        return True  # projection empty, so the other rows are infeasible
    if not t_lower:
        return False
    return max(t_lower) >= 0
