"""Finite crystal slices cut out by a word, enumerated two independent ways.

Route one sweeps lowering operators stage by stage through the twisted
crystal, the sequence crystal tensored with the one-point crystal of
the weight: starting from the highest element, stage k closes the set
under the lowering operator of the k-th letter.  It steps bare
elements, and the weight enters a step only as its entry at the
step's letter.  Route two enumerates the word-supported part of the
big crystal's image and keeps elements whose starred eps, the eps of
their star partner, stays within the weight caps.  Both routes land on
the same coordinate vectors; the second never consults the twisted
operators, which is what makes the agreement a real check.  String
data is peeled from a slice the caller has already cut, so one cut
serves both the route check and the string side.

The starred-eps cut is swept safely because starred eps never decreases
under a lowering operator, so along a single-letter sweep the first
violation ends the ray.  Every element the cut decides is reached by
lowering from zero, starred eps (0, ..., 0), so the cut carries each
element's starred eps down its ray, one step of the Kashiwara-Saito
rule per lowering step, and never builds a star partner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import string_param
from .rootdata import CartanMatrix, ReducedWord, WeightVec, is_reduced, num_positive_roots
from .zcrystal import SequenceSpec, ZElement, ftilde_starred, twist_ftilde


@dataclass(frozen=True)
class DemazureSet:
    """Coordinate vectors (length = word length) of one finite crystal slice."""

    word: ReducedWord
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
    rays (letter i = k-th word letter) through its elements.  Each
    element stands for itself tensored with the one-point crystal of
    lam, so a step reads only lam_i, and a ray ends where the tensor
    rule hands the step to that factor.  The elements stay supported
    on the first k positions, which the coordinate extraction asserts.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    current = {ZElement.zero()}
    for k in range(1, r + 1):
        i = word[k]
        swept = set(current)
        for x in current:
            while (x := twist_ftilde(spec, x, i, lam[i])) is not None:
                swept.add(x)
        current = swept
    return DemazureSet(word, frozenset(x.coords(r) for x in current))


def btilde_cut(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> DemazureSet:
    """Word-supported image elements whose starred eps respects the weight caps.

    Sweeps the plain sequence-crystal lowering operators stage by stage,
    starting from zero, and carries each element's starred eps (the eps
    of its star partner) with it: ``ftilde_starred`` updates it on the
    scan that places the step (Kashiwara-Saito, Duke Math. J. 89, 1997,
    3.2), so no partner is built.  A ray is cut at the first element
    whose starred eps at the ray's letter is over the cap.  Lowering at i
    leaves the starred eps of every other letter unchanged and every
    start of a stage is admissible, so only the ray's own letter is
    compared.  Monotonicity of starred eps under lowering makes the first
    violation final along a ray, so no admissible element is missed.  A
    ray also stops at an element the stage already holds: the rest of
    the ray depends on that element alone, and is walked from it, either
    as a start of the stage or by the ray that added it.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    current = {ZElement.zero(): (0,) * cartan.rank}  # element -> its starred eps
    for k in range(1, r + 1):
        i = word[k]
        swept = dict(current)
        for y, starred in current.items():
            while True:
                y, starred = ftilde_starred(spec, y, i, starred)
                if y in swept or starred[i - 1] > lam[i]:
                    break
                swept[y] = starred
        current = swept
    return DemazureSet(word, frozenset(x.coords(r) for x in current))


def string_points(cartan: CartanMatrix, cut: DemazureSet) -> frozenset:
    """String data (peeled along the word) of every element of a given cut slice.

    The slice is taken as given, normally from ``btilde_cut``, and is
    not cut again.  The word must reach the longest element: only then
    does the peel along it reach zero on every member, so that string
    data is a chart of the slice.  Along a shorter word the peel stops
    short of zero and merges points, so such a word is refused.

    No separate membership check runs: the exhaustive peel raises
    ``ValueError`` exactly on the non-members.
    """
    word = cut.word
    if len(word.letters) != num_positive_roots(cartan):
        raise ValueError("string points need a reduced word for the longest element")
    spec = SequenceSpec(cartan, word)
    return frozenset(string_param(spec, ZElement.from_coords(c), word.letters)
                     for c in cut.coords)
