"""Affine inequality forms and the descent closure that carves the twisted polytope.

Forms are affine functions of the coordinates a_1, a_2, ... with an
affine-in-weight constant: integer coordinate coefficients, integer
coefficients on the weight entries, and an integer absolute constant.
The descent operator at a position rewrites a form against one of two
template forms attached to that position (next or previous occurrence
of the same letter); closing the seed forms under all descent operators
yields the inequality system whose nonnegativity locus is the twisted
polytope, provided every constant stays nonnegative at the chosen
weight (the ampleness check).

Certification is computational: the closure must stabilize within the
round cap, and re-running it with the scan window extended by the rank
must leave the forms unchanged after restriction to the word positions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import HalfSpaceSystem, system_from_forms
from .rootdata import WeightVec
from .zcrystal import SequenceSpec

CLOSURE_ROUNDS = 50  # cap on the descent rounds of one closure


@dataclass(frozen=True)
class AffineForm:
    """coeffs . a + lam_coeffs . weight + const, all integer."""

    coeffs: tuple  # sorted tuple of (position, int), zero entries dropped
    lam_coeffs: tuple  # per weight entry, length = rank
    const: int

    @staticmethod
    def make(coeffs: dict, lam_coeffs, const: int = 0) -> "AffineForm":
        items = tuple(sorted((p, int(c)) for p, c in coeffs.items() if c != 0))
        if any(p < 1 for p, _ in items):
            raise ValueError("positions are 1-based")
        return AffineForm(items, tuple(int(c) for c in lam_coeffs), int(const))

    def coefficient(self, pos: int) -> int:
        for p, c in self.coeffs:
            if p == pos:
                return c
        return 0

    def minus(self, other: "AffineForm", mult: int = 1) -> "AffineForm":
        d = dict(self.coeffs)
        for p, c in other.coeffs:
            d[p] = d.get(p, 0) - mult * c
        lam = tuple(a - mult * b for a, b in zip(self.lam_coeffs, other.lam_coeffs))
        return AffineForm.make(d, lam, self.const - mult * other.const)

    def restrict(self, r: int) -> "AffineForm":
        """Set every coordinate beyond position r to zero."""
        return AffineForm(tuple((p, c) for p, c in self.coeffs if p <= r),
                          self.lam_coeffs, self.const)

    def is_zero(self) -> bool:
        return not self.coeffs and not any(self.lam_coeffs) and self.const == 0

    def constant_at(self, lam: WeightVec) -> int:
        return self.const + sum(c * v for c, v in zip(self.lam_coeffs, lam.coords))

    def eval(self, coords, lam: WeightVec) -> int:
        acc = self.constant_at(lam)
        for p, c in self.coeffs:
            acc += c * (coords[p - 1] if p <= len(coords) else 0)
        return acc

    def sort_key(self):
        return (self.coeffs, self.lam_coeffs, self.const)


def var_form(spec: SequenceSpec, k: int) -> AffineForm:
    return AffineForm.make({k: 1}, (0,) * spec.cartan.rank)


def lambda_form(spec: SequenceSpec, i: int) -> AffineForm:
    """Weight entry i minus the pairing contributions up to (and at) letter i's first slot."""
    first = spec.first_position_of(i)
    coeffs = {first: -1}
    for j in range(1, first):
        coeffs[j] = -spec.cartan.pairing(i, spec.letter(j))
    lam = tuple(1 if t == i else 0 for t in spec.cartan.index_set())
    return AffineForm.make(coeffs, lam)


def plus_form(spec: SequenceSpec, k: int) -> AffineForm:
    """Template toward the next occurrence of the letter at position k."""
    i = spec.letter(k)
    kp = spec.next_same_letter(k)
    coeffs = {k: 1, kp: 1}
    for j in range(k + 1, kp):
        coeffs[j] = spec.cartan.pairing(i, spec.letter(j))
    return AffineForm.make(coeffs, (0,) * spec.cartan.rank)


def minus_form(spec: SequenceSpec, k: int) -> AffineForm:
    """Template toward the previous occurrence, or the weight cap when there is none."""
    i = spec.letter(k)
    km = spec.prev_same_letter(k)
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


def shat(spec: SequenceSpec, psi: AffineForm, k: int) -> AffineForm:
    """Descent of a form at position k; identity when the coefficient vanishes."""
    ck = psi.coefficient(k)
    if ck == 0:
        return psi
    template = plus_form(spec, k) if ck > 0 else minus_form(spec, k)
    return psi.minus(template, ck)


def seed_forms(spec: SequenceSpec, window: int) -> list:
    """Coordinate forms for the window plus one weight form per letter."""
    out = [var_form(spec, k) for k in range(1, window + 1)]
    out.extend(lambda_form(spec, i) for i in spec.cartan.index_set())
    return out


@dataclass(frozen=True)
class XiSet:
    """Closure of the seed forms under descent, with certification flags."""

    spec: SequenceSpec
    window: int
    forms: frozenset
    stabilized: bool
    certified: bool


def _close(spec: SequenceSpec, window: int):
    # Only the forms found last round are descended: older forms' descents are in already.
    forms = set(f for f in seed_forms(spec, window) if not f.is_zero())
    fresh = set(forms)
    for _ in range(CLOSURE_ROUNDS):
        fresh = {out for psi in fresh for k in range(1, window + 1)
                 if not (out := shat(spec, psi, k)).is_zero() and out not in forms}
        if not fresh:
            return forms, True
        forms |= fresh
    return forms, False


def generate_xi(spec: SequenceSpec, window: int) -> XiSet:
    """Close the seeds under descent and certify stability of the restriction.

    Certification re-runs the closure with the window extended by the
    rank; the two closures must restrict to the same form set on the
    base word's positions.  A closure that fails either check is
    returned uncertified rather than rejected.
    """
    r = len(spec.base.letters)
    if window < r:
        raise ValueError("window must cover the base word")
    forms, stabilized = _close(spec, window)
    certified = False
    if stabilized:
        bumped, stab2 = _close(spec, window + spec.cartan.rank)
        if stab2:
            certified = _restricted(forms, r) == _restricted(bumped, r)
    return XiSet(spec, window, frozenset(forms), stabilized, certified)


def ample_check(xi: XiSet, lam: WeightVec) -> bool:
    """Every closure form has nonnegative constant at this weight."""
    if not xi.certified:
        raise ValueError("ampleness is only meaningful for a certified closure")
    if len(lam.coords) != xi.spec.cartan.rank:
        raise ValueError("weight rank mismatch")
    return all(f.constant_at(lam) >= 0 for f in xi.forms)


def _restricted(forms, r: int) -> set:
    """The nonzero restrictions of the forms to the first r positions."""
    return {g for g in (f.restrict(r) for f in forms) if not g.is_zero()}


def delta_forms(xi: XiSet) -> list:
    """Closure forms restricted to the base word's positions, deduplicated."""
    return sorted(_restricted(xi.forms, len(xi.spec.base.letters)), key=lambda f: f.sort_key())


def delta_hrep(xi: XiSet, lam: WeightVec) -> HalfSpaceSystem:
    """Concrete half-space rows (coeffs, const) for the weight-instantiated system.

    Raises when the weight fails the ampleness check; enumeration
    through the crystal sweep is the fallback for such weights.
    """
    if not ample_check(xi, lam):
        raise ValueError(
            "weight fails the ampleness check; fall back to direct crystal enumeration"
        )
    return system_from_forms(delta_forms(xi), len(xi.spec.base.letters), lam)
