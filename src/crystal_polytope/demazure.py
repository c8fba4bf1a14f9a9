"""Finite crystal slices cut out by a word, enumerated two independent ways.

Route one sweeps lowering operators stage by stage through the twisted
crystal: starting from the highest element, stage k closes the set
under the lowering operator of the k-th letter.  Route two enumerates
the word-supported part of the big crystal's image and keeps elements
whose starred eps, the eps of their star partner, stays within the
weight caps.  Both routes land on the same coordinate vectors; the
second never consults the twisted operators, which is what makes the
agreement a real check.  String data is peeled from a slice the caller
has already cut, so one cut serves both the route check and the string
side.

The starred-eps cut is swept safely because starred eps never decreases
under a lowering operator, so along a single-letter sweep the first
violation ends the ray.  Every element the cut decides is reached by
lowering from zero, so it is a member by construction and its partner
is built without a membership check, once per distinct element per
stage.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import _star_of_member, membership, string_param
from .rootdata import CartanMatrix, ReducedWord, WeightVec, is_reduced, num_positive_roots
from .zcrystal import LambdaTwist, SequenceSpec, ZElement, eps, ftilde, twist_ftilde


@dataclass(frozen=True)
class DemazureSet:
    """Coordinate vectors (length = word length) of one finite crystal slice."""

    word: ReducedWord
    lam: WeightVec
    coords: frozenset

    def sorted_coords(self) -> list[tuple[int, ...]]:
        return sorted(self.coords)

    def __len__(self) -> int:
        return len(self.coords)


def _validate(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> None:
    if not is_reduced(cartan, word):
        raise ValueError(f"word {word.letters} is not reduced")
    if len(lam.coords) != cartan.rank:
        raise ValueError("weight rank mismatch")
    if not lam.is_dominant():
        raise ValueError("weight must be dominant")


def enumerate_demazure(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> DemazureSet:
    """Stagewise lowering sweep through the twisted crystal.

    Stage k replaces the current set by the union of the full lowering
    rays (letter = k-th word letter) through its elements.  Elements are
    twisted-crystal elements; their bodies stay supported on the first
    k positions, which the coordinate extraction asserts.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    current = {ZElement.zero()}
    for k in range(1, r + 1):
        i = word[k]
        swept = set(current)
        for x in current:
            t = LambdaTwist(spec, x, lam)
            while True:
                t2 = twist_ftilde(t, i)
                if t2 is None:
                    break
                swept.add(t2.body)
                t = t2
        current = swept
    return DemazureSet(word, lam, frozenset(x.coords(r) for x in current))


def btilde_cut(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> DemazureSet:
    """Word-supported image elements whose starred eps respects the weight caps.

    Sweeps the plain sequence-crystal lowering operators stage by stage,
    starting from zero; a ray is cut at the first element whose star
    partner has eps over the cap at some letter.  Monotonicity of starred
    eps under lowering makes the first violation final along a ray, and
    since a single-letter sweep leaves the starred eps of other letters
    unchanged, no admissible element is missed.  A ray also stops at an
    element the stage already holds: the rest of the ray depends on that
    element alone, and is walked from it, either as a start of the stage
    or by the ray that added it.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    index_set = cartan.index_set()

    def admissible(x: ZElement) -> bool:
        partner = _star_of_member(spec, x)
        return all(eps(spec, partner, i) <= lam[i] for i in index_set)

    current = {ZElement.zero()}
    for k in range(1, r + 1):
        i = word[k]
        swept = set(current)
        for x in current:
            y = x
            while True:
                y = ftilde(spec, y, i)
                if y in swept or not admissible(y):
                    break
                swept.add(y)
        current = swept
    return DemazureSet(word, lam, frozenset(x.coords(r) for x in current))


def string_points(cartan: CartanMatrix, cut: DemazureSet) -> frozenset:
    """String data (peeled along the word) of every element of a given cut slice.

    The slice is taken as given, normally from ``btilde_cut``, and is
    not cut again.  When the word reaches the longest element the peel
    is exhaustive and the residue is checked; for shorter words the
    first coordinates of the string data are reported as-is.
    """
    word = cut.word
    spec = SequenceSpec(cartan, word)
    exhaustive = len(word.letters) == num_positive_roots(cartan)
    out = set()
    for c in cut.coords:
        x = ZElement.from_coords(c)
        assert membership(spec, x)
        out.add(string_param(spec, x, word.letters, require_exhaustive=exhaustive))
    return frozenset(out)
