"""Finite crystal slices cut out by a word, enumerated two independent ways.

Route one sweeps lowering operators stage by stage through the twisted
crystal: starting from the highest element, stage k closes the set
under the lowering operator of the k-th letter.  Route two enumerates
the word-supported part of the big crystal's image and keeps elements
whose starred eps stays within the weight caps.  Both routes land on
the same coordinate vectors; the second never consults the twisted
operators, which is what makes the agreement a real check.

The starred-eps cut is swept safely because starred eps never decreases
under a lowering operator, so along a single-letter sweep the first
violation ends the ray.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binfinity import eps_star, membership, string_param
from .rootdata import CartanMatrix, ReducedWord, WeightVec, is_reduced, num_positive_roots
from .zcrystal import LambdaTwist, SequenceSpec, ZElement, ftilde, twist_ftilde


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


@dataclass(frozen=True)
class GradedPointSet:
    """Per-level point sets, level k holding the points for the k-fold weight."""

    word: ReducedWord
    lam: WeightVec
    levels: dict  # k -> frozenset of coordinate vectors


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
    starting from zero; a ray is cut at the first element with
    eps_star exceeding the cap at some letter.  Monotonicity of starred
    eps under lowering makes the first violation final along a ray, and
    since a single-letter sweep leaves the starred eps of other letters
    unchanged, no admissible element is missed.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    r = len(word.letters)
    index_set = cartan.index_set()

    def admissible(x: ZElement) -> bool:
        return all(eps_star(spec, x, i) <= lam[i] for i in index_set)

    current = {ZElement.zero()}
    for k in range(1, r + 1):
        i = word[k]
        swept = set(current)
        for x in current:
            y = x
            while True:
                y = ftilde(spec, y, i)
                if not admissible(y):
                    break
                swept.add(y)
        current = swept
    return DemazureSet(word, lam, frozenset(x.coords(r) for x in current))


def semigroup_points(
    cartan: CartanMatrix, word: ReducedWord, lam: WeightVec, k_max: int
) -> GradedPointSet:
    """Coordinate sets of the slices at the scaled weights k*lam, k = 0..k_max."""
    _validate(cartan, word, lam)
    levels = {k: btilde_cut(cartan, word, lam.scale(k)).coords for k in range(k_max + 1)}
    return GradedPointSet(word, lam, levels)


def string_points(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> frozenset:
    """String data (peeled along the word) of every element of the cut slice.

    When the word reaches the longest element the peel is exhaustive and
    the residue is checked; for shorter words the first coordinates of
    the string data are reported as-is.
    """
    _validate(cartan, word, lam)
    spec = SequenceSpec(cartan, word)
    exhaustive = len(word.letters) == num_positive_roots(cartan)
    out = set()
    for c in btilde_cut(cartan, word, lam).coords:
        x = ZElement.from_coords(c)
        assert membership(spec, x)
        out.add(string_param(spec, x, word.letters, require_exhaustive=exhaustive))
    return frozenset(out)
