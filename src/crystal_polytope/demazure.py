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
operators, which is what makes the agreement a real check.  Each walks
a ray on one kernel scan (``ftilde_ray``) and applies its own stopping
rule to the phi of every step.  String data is peeled from a slice the
caller has already cut, so one cut serves the route check and the
string side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import peel_slice
from .rootdata import CartanMatrix, ReducedWord, WeightVec, is_reduced, num_positive_roots
from .zcrystal import SequenceSpec, ZElement, ftilde_ray


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
    lam, so a ray ends where the tensor rule hands the step to that
    factor, at the first element whose phi_i is at most -lam_i.  The
    elements stay supported on the first k positions (``coords`` checks).
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    current = {ZElement.zero()}
    for k in range(1, r + 1):
        i = word[k]
        swept = set(current)
        for x in current:
            for y, phi in ftilde_ray(spec, x, i):
                if phi <= -lam[i]:
                    break
                swept.add(y)
        current = swept
    return DemazureSet(word, frozenset(x.coords(r) for x in current))


def btilde_cut(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> DemazureSet:
    """Word-supported image elements whose starred eps respects the weight caps.

    Sweeps the plain lowering operators stage by stage from zero (starred eps
    0), carrying each element's starred eps, the eps of its star partner.
    Lowering at i adds 1 to the starred eps at i exactly when phi_i + eps*_i
    is 0, its least value, and leaves the others alone (Kashiwara-Saito, Duke
    Math. J. 89, 1997, 3.2); as every start of a stage is admissible, only
    the ray's letter meets its cap.  Starred eps never falls under lowering,
    so the first element over the cap ends the ray and no admissible element
    is missed.  A ray also stops at an element the stage holds, whose rest is
    walked from it, as a start of the stage or by the ray that added it.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    current = {ZElement.zero(): (0,) * cartan.rank}  # element -> its starred eps
    for k in range(1, r + 1):
        i = word[k]
        swept = dict(current)
        for x, starred in current.items():
            star_i = starred[i - 1]
            for y, phi in ftilde_ray(spec, x, i):
                if phi + star_i == 0:
                    star_i += 1
                if y in swept or star_i > lam[i]:
                    break
                swept[y] = (*starred[:i - 1], star_i, *starred[i:])
        current = swept
    return DemazureSet(word, frozenset(x.coords(r) for x in current))


def require_longest_word(cartan: CartanMatrix, word: ReducedWord) -> None:
    """Refuse a (reduced) word shorter than the longest element, as string points do."""
    if len(word.letters) != num_positive_roots(cartan):
        raise ValueError("string points need a reduced word for the longest element")


def string_points(cartan: CartanMatrix, cut: DemazureSet) -> frozenset:
    """String data (peeled along the word) of every element of a given cut slice.

    The word must reach the longest element: along a shorter word the peel
    stops short of zero and merges points.  The exhaustive peel of the whole
    slice (``peel_slice``) raises ``ValueError`` exactly on non-members.
    """
    require_longest_word(cartan, cut.word)
    spec = SequenceSpec(cartan, cut.word)
    return frozenset(peel_slice(spec, map(ZElement.from_coords, cut.coords),
                                cut.word.letters).values())
