"""Affine inequality forms and the descent closure that carves the twisted polytope.

Forms are affine functions of the coordinates a_1, a_2, ... with a
linear-in-weight constant: integer coordinate coefficients and integer
coefficients on the weight entries.  No form carries an absolute
constant: the seeds and templates have none, and a difference of two
forms without one has none.
The descent operator at a position rewrites a form against one
template, the form that joins two consecutive occurrences of the
position's letter: the pair starting at the position when the
coefficient there is positive, the pair ending at it when negative
(Nakashima-Zelevinsky, Adv. Math. 131, 1997).  A closure builds all its
templates once, in one pass over the letter table that remembers the
last position of each letter.
Closing the seed forms under all descent operators yields the
inequality system whose nonnegativity locus is the twisted polytope,
provided every constant stays nonnegative at the chosen weight (the
ampleness check).

Certification is computational: re-running the closure with the scan
window extended by the rank must leave the forms unchanged after
restriction to the word positions.
The closure keeps those restrictions, the delta forms: ampleness reads
them, and each gives one integer row at a weight.  Past the form cap a
closure is refused as diverging.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import HalfSpaceSystem
from .rootdata import WeightVec
from .zcrystal import SequenceSpec

CLOSURE_FORMS = 20_000  # cap on the forms of one closure; past it the closure is refused


@dataclass(frozen=True, order=True)
class AffineForm:
    """coeffs . a + lam_coeffs . weight, all integer; ordered field by field."""

    coeffs: tuple  # sorted tuple of (position, int), zero entries dropped
    lam_coeffs: tuple  # per weight entry, length = rank

    @staticmethod
    def make(coeffs: dict, lam_coeffs) -> "AffineForm":
        items = tuple(sorted((p, int(c)) for p, c in coeffs.items() if c != 0))
        if any(p < 1 for p, _ in items):
            raise ValueError("positions are 1-based")
        return AffineForm(items, tuple(int(c) for c in lam_coeffs))

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
        return AffineForm.make(d, lam)

    def restrict(self, r: int) -> "AffineForm":
        """Set every coordinate beyond position r to zero."""
        return AffineForm(tuple((p, c) for p, c in self.coeffs if p <= r), self.lam_coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs and not any(self.lam_coeffs)

    def constant_at(self, lam: WeightVec) -> int:
        return sum(c * v for c, v in zip(self.lam_coeffs, lam.coords))

    def row(self, r: int) -> tuple:
        """The dense coordinate coefficients on positions 1..r."""
        d = dict(self.coeffs)
        return tuple(d.get(p, 0) for p in range(1, r + 1))


def descent_templates(spec: SequenceSpec, window: int) -> tuple[list, list]:
    """The descent table of the window and the seed forms, from one pass over the letters.

    The template ending at position k joins the previous occurrence km of
    k's letter to k: a_km + a_k plus the pairing-weighted entries strictly
    between them.  With no previous occurrence the pair starts at the
    weight, which enters with coefficient -1 on k's letter; negated, that
    template is the letter's weight seed.  The other seeds are the
    window's coordinate forms.  The template starting at k is the one
    ending at the next occurrence of k's letter.  Every tail period holds
    each letter once, so a pair starting in the window ends at most rank
    positions past it (and every letter occurs by then): the pass reads
    positions 1..window + rank.  Entry k - 1 of the table is (the
    template starting at k, the template ending at k).
    """
    cartan = spec.cartan
    zero = (0,) * cartan.rank
    m = window + cartan.rank
    letters = spec.letter_table(m)
    last = {}  # letter -> the last position seen carrying it
    starting, ending = [None] * m, []
    seeds = [AffineForm.make({k: 1}, zero) for k in range(1, window + 1)]
    for k in range(1, m + 1):
        i = letters[k - 1]
        km = last.get(i, 0)
        coeffs = {j: cartan.pairing(i, letters[j - 1]) for j in range(km + 1, k)}
        coeffs[k] = 1
        if km:
            coeffs[km] = 1
            template = AffineForm.make(coeffs, zero)
            starting[km - 1] = template
        else:
            template = AffineForm.make(coeffs, tuple(-(t == i) for t in cartan.index_set()))
            seeds.append(AffineForm.make({}, zero).minus(template))
        ending.append(template)
        last[i] = k
    return list(zip(starting[:window], ending[:window])), seeds


def shat(table: list, psi: AffineForm, k: int) -> AffineForm:
    """Descent of a form at position k; identity when the coefficient vanishes.

    A positive coefficient descends against the template of the pair
    starting at k, a negative one against the pair ending at k, both read
    from a table of ``descent_templates``.
    """
    ck = psi.coefficient(k)
    if ck == 0:
        return psi
    starting, ending = table[k - 1]
    return psi.minus(starting if ck > 0 else ending, ck)


@dataclass(frozen=True)
class XiSet:
    """Closure of the seed forms under descent, with its certification flag."""

    spec: SequenceSpec
    forms: frozenset
    certified: bool
    delta: tuple  # the nonzero restrictions of the forms to the word positions, sorted


def _cap_error(spec: SequenceSpec, window: int) -> ValueError:
    return ValueError(f"the descent closure of word {list(spec.base.letters)} "
                      f"at window {window} passed {CLOSURE_FORMS} forms")


def _close(spec: SequenceSpec, window: int):
    # Only last round's forms are descended, only at window positions of their support:
    # older forms' descents are in already, and a zero coefficient leaves a form as it is.
    # Every round but the last adds a form, so the form cap also bounds the rounds.
    table, seeds = descent_templates(spec, window)
    forms = set(seeds)
    fresh = set(forms)
    while fresh:
        fresh = {out for psi in fresh for k, _ in psi.coeffs
                 if k <= window and not (out := shat(table, psi, k)).is_zero()
                 and out not in forms}
        forms |= fresh
        if len(forms) > CLOSURE_FORMS:
            raise _cap_error(spec, window)
    return forms


def generate_xi(spec: SequenceSpec, window: int) -> XiSet:
    """Close the seeds under descent and certify stability of the restriction.

    Certification re-runs the closure with the window extended by the
    rank; the two closures must restrict to the same form set on the
    base word's positions.  A closure that fails this check is returned
    uncertified rather than rejected; one that passes the form cap
    raises.
    """
    r = len(spec.base.letters)
    if window < r:
        raise ValueError("window must cover the base word")
    if window + spec.cartan.rank >= CLOSURE_FORMS:
        # the closure starts from window + rank distinct seeds, and its first round
        # adds the descent of a_1, which no seed equals: refuse before building them
        raise _cap_error(spec, window)
    forms = _close(spec, window)
    delta = _restricted(forms, r)
    certified = delta == _restricted(_close(spec, window + spec.cartan.rank), r)
    return XiSet(spec, frozenset(forms), certified, tuple(sorted(delta)))


def ample_check(xi: XiSet, lam: WeightVec) -> bool:
    """The closure is certified and every form has nonnegative constant at this weight.

    The delta forms decide it: a restriction keeps a form's weight
    coefficients, and a form restricted to zero has constant 0.
    """
    if len(lam.coords) != xi.spec.cartan.rank:
        raise ValueError("weight rank mismatch")
    return xi.certified and all(f.constant_at(lam) >= 0 for f in xi.delta)


def _restricted(forms, r: int) -> set:
    """The nonzero restrictions of the forms to the first r positions."""
    return {g for g in (f.restrict(r) for f in forms) if not g.is_zero()}


def delta_system(xi: XiSet, lam: WeightVec) -> HalfSpaceSystem:
    """The delta forms instantiated at a weight: one integer row per form, in form order."""
    r = len(xi.spec.base.letters)
    return HalfSpaceSystem.make(r, [(f.row(r), f.constant_at(lam)) for f in xi.delta])


def delta_hrep(xi: XiSet, lam: WeightVec) -> HalfSpaceSystem:
    """The delta system at a weight, once the closure is certified and the weight ample.

    Raises otherwise; enumeration through the crystal sweep is the
    fallback for such weights.
    """
    if not xi.certified:
        raise ValueError("ampleness is only meaningful for a certified closure")
    if not ample_check(xi, lam):
        raise ValueError(
            "weight fails the ampleness check; fall back to direct crystal enumeration"
        )
    return delta_system(xi, lam)
