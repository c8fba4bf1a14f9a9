"""Cartan matrices, weights in fundamental coordinates, and reduced words.

Conventions:

* ``CartanMatrix.pairing(i, j)`` is the integer obtained by pairing the
  j-th simple root against the i-th simple coroot.  Rows are indexed by
  the coroot, columns by the root, both 1-based.
* A ``WeightVec`` stores a weight by its pairings with the simple
  coroots, so the i-th fundamental weight is the i-th unit vector.
* A ``RootCombo`` stores an element of the root lattice by its
  coefficients on the simple roots.
* A ``ReducedWord`` stores letters in application order: the first
  letter is the first reflection/operator applied.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


@dataclass(frozen=True)
class CartanMatrix:
    """A symmetrizable generalized Cartan matrix with 1-based indexing."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise ValueError("empty Cartan matrix")
        for row in self.rows:
            if len(row) != n:
                raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if self.rows[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if self.rows[i][j] > 0:
                        raise ValueError("off-diagonal entries must be <= 0")
                    if (self.rows[i][j] == 0) != (self.rows[j][i] == 0):
                        raise ValueError("zero pattern must be symmetric")
        if self.symmetrizer() is None:
            raise ValueError("matrix is not symmetrizable")

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pairing(self, i: int, j: int) -> int:
        """Pairing of the j-th simple root with the i-th simple coroot."""
        return self.rows[i - 1][j - 1]

    def index_set(self) -> range:
        return range(1, self.rank + 1)

    def symmetrizer(self) -> tuple[int, ...] | None:
        """Positive integers d with d_i * c_ij == d_j * c_ji, or None.

        Found by propagating ratios along the edges of the Dynkin diagram
        (components are scaled independently, then cleared to integers).
        """
        n = self.rank
        d: list[Fraction | None] = [None] * n
        for start in range(n):
            if d[start] is not None:
                continue
            d[start] = Fraction(1)
            stack = [start]
            while stack:
                i = stack.pop()
                for j in range(n):
                    if i == j or self.rows[i][j] == 0:
                        continue
                    # from d_i * c_ij == d_j * c_ji: d_j = d_i * c_ij / c_ji
                    ratio = Fraction(self.rows[i][j], self.rows[j][i])
                    want = d[i] * ratio
                    if d[j] is None:
                        d[j] = want
                        stack.append(j)
                    elif d[j] != want:
                        return None
        denom_lcm = math.lcm(*(x.denominator for x in d))
        ints = [int(x * denom_lcm) for x in d]
        g = math.gcd(*ints)
        return tuple(x // g for x in ints)


@dataclass(frozen=True)
class WeightVec:
    """A weight recorded by its pairings with the simple coroots."""

    coords: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        """Pairing with the i-th simple coroot (1-based)."""
        return self.coords[i - 1]

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def scale(self, k: int) -> "WeightVec":
        return WeightVec(tuple(k * c for c in self.coords))

    def add(self, other: "WeightVec") -> "WeightVec":
        return WeightVec(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))


def fundamental(rank: int, i: int) -> WeightVec:
    return WeightVec(tuple(1 if k == i else 0 for k in range(1, rank + 1)))


def rho(rank: int) -> WeightVec:
    return WeightVec((1,) * rank)


@dataclass(frozen=True)
class RootCombo:
    """An integer combination of simple roots."""

    coeffs: tuple[int, ...]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i - 1]

    def add(self, other: "RootCombo") -> "RootCombo":
        return RootCombo(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def minus(self, other: "RootCombo") -> "RootCombo":
        return RootCombo(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))


def simple_root(rank: int, i: int) -> RootCombo:
    return RootCombo(tuple(1 if k == i else 0 for k in range(1, rank + 1)))


def root_pairing(cartan: CartanMatrix, root: RootCombo, i: int) -> int:
    """Pairing of a root-lattice element with the i-th simple coroot."""
    return sum(root[j] * cartan.pairing(i, j) for j in cartan.index_set())


def root_to_weight(cartan: CartanMatrix, root: RootCombo) -> WeightVec:
    return WeightVec(tuple(root_pairing(cartan, root, i) for i in cartan.index_set()))


def reflect(cartan: CartanMatrix, i: int, lam: WeightVec) -> WeightVec:
    """Simple reflection of a weight: subtract its i-th pairing times the i-th root."""
    ci = lam[i]
    return WeightVec(tuple(lam[j] - ci * cartan.pairing(j, i) for j in cartan.index_set()))


def reflect_root(cartan: CartanMatrix, i: int, root: RootCombo) -> RootCombo:
    """Simple reflection acting on the root lattice."""
    amount = root_pairing(cartan, root, i)
    return RootCombo(tuple(root[j] - (amount if j == i else 0) for j in cartan.index_set()))


def cartan_builtin(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a finite family, Bourbaki numbering.

    Type C has its long root last: ``pairing(n-1, n) == -2``.  Type B is
    the transpose of that corner.  For rank 2 this makes ``("C", 2)``
    equal ``[[2, -2], [-1, 2]]``.
    """
    family = family.upper()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    n = rank

    def chain() -> list[list[int]]:
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
            if i + 1 < n:
                m[i][i + 1] = -1
                m[i + 1][i] = -1
        return m

    if family == "A":
        if n < 1:
            raise ValueError("type A needs rank >= 1")
        m = chain()
    elif family == "B":
        if n < 2:
            raise ValueError("type B needs rank >= 2")
        m = chain()
        m[n - 1][n - 2] = -2
    elif family == "C":
        if n < 2:
            raise ValueError("type C needs rank >= 2")
        m = chain()
        m[n - 2][n - 1] = -2
    elif family == "D":
        if n < 3:
            raise ValueError("type D needs rank >= 3")
        m = chain()
        # detach node n from the chain and hang it off node n-2
        m[n - 1][n - 2] = 0
        m[n - 2][n - 1] = 0
        m[n - 1][n - 3] = -1
        m[n - 3][n - 1] = -1
    elif family == "E":
        if n not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        # chain 1-3-4-5-...-n with node 2 attached to node 4
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
        chain_nodes = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain_nodes, chain_nodes[1:]):
            m[a - 1][b - 1] = -1
            m[b - 1][a - 1] = -1
        m[2 - 1][4 - 1] = -1
        m[4 - 1][2 - 1] = -1
    elif family == "F":
        if n != 4:
            raise ValueError("type F needs rank 4")
        m = chain()
        m[1][2] = -2
    else:  # G
        if n != 2:
            raise ValueError("type G needs rank 2")
        m = [[2, -3], [-1, 2]]
    return CartanMatrix(tuple(tuple(row) for row in m))


@dataclass(frozen=True)
class ReducedWord:
    """Letters of a Weyl-group word in application order (first letter acts first)."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if any(l < 1 for l in self.letters):
            raise ValueError("letters are 1-based positive indices")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, k: int) -> int:
        """The k-th letter, 1-based."""
        return self.letters[k - 1]

    def reversed(self) -> "ReducedWord":
        return ReducedWord(tuple(reversed(self.letters)))


@functools.cache
def is_reduced(cartan: CartanMatrix, word: ReducedWord | tuple[int, ...]) -> bool:
    """True when the word's length equals the length of its Weyl element.

    Criterion: with letters applied first-to-last, the word stays reduced
    exactly when each next letter's simple root is sent to a positive
    root by the composite of the earlier reflections applied in reverse.
    Decided once per Cartan matrix and word.
    """
    letters = tuple(word)
    if any(not 1 <= l <= cartan.rank for l in letters):
        raise ValueError("letter out of range for this Cartan matrix")
    for k in range(len(letters)):
        root = simple_root(cartan.rank, letters[k])
        for l in range(k - 1, -1, -1):
            root = reflect_root(cartan, letters[l], root)
        if any(c < 0 for c in root.coeffs):
            return False
    return True


@functools.cache
def positive_roots(cartan: CartanMatrix) -> tuple[RootCombo, ...]:
    """All positive roots, generated by closing the simple roots under reflections.

    Only meaningful for finite type; raises if the closure keeps growing
    past a generous cap.  Closed once per Cartan matrix.
    """
    seen: set[tuple[int, ...]] = set()
    frontier = [simple_root(cartan.rank, i) for i in cartan.index_set()]
    for r in frontier:
        seen.add(r.coeffs)
    cap = 10_000
    while frontier:
        nxt = []
        for root in frontier:
            for i in cartan.index_set():
                image = reflect_root(cartan, i, root)
                if all(c >= 0 for c in image.coeffs) and image.coeffs not in seen:
                    seen.add(image.coeffs)
                    nxt.append(image)
        frontier = nxt
        if len(seen) > cap:
            raise ValueError("root system does not close up; is the matrix of finite type?")
    return tuple(RootCombo(c) for c in sorted(seen))


def num_positive_roots(cartan: CartanMatrix) -> int:
    return len(positive_roots(cartan))


def weyl_dim_oracle(cartan: CartanMatrix, lam: WeightVec) -> int:
    """Dimension of the irreducible module of highest weight lam.

    Independent product-formula oracle: the product over positive roots
    of the coroot pairing of lam+rho divided by the one of rho, computed
    with exact rationals via a symmetrizer of the Cartan matrix.
    """
    if not lam.is_dominant():
        raise ValueError("highest weight must be dominant")
    d = cartan.symmetrizer()
    assert d is not None
    n = cartan.rank

    def form_with_root(coords: tuple[int, ...], root: RootCombo) -> int:
        # inner product of a weight (fundamental coords) with a root,
        # normalized so that (weight, alpha_i) = d_i * coords_i
        return sum(coords[i] * d[i] * root.coeffs[i] for i in range(n))

    lam_rho = tuple(c + 1 for c in lam.coords)
    rho_c = (1,) * n
    dim = Fraction(1)
    for root in positive_roots(cartan):
        # each coroot pairing is 2 (weight, root) / (root, root); the factor cancels
        dim *= Fraction(form_with_root(lam_rho, root), form_with_root(rho_c, root))
    if dim.denominator != 1:
        raise ArithmeticError("dimension formula did not produce an integer")
    return int(dim)


def all_reduced_words_longest(cartan: CartanMatrix) -> list[tuple[int, ...]]:
    """Every reduced word for the longest element, in application order.

    Depth-first extension of reduced prefixes; fine at small rank.
    """
    target = num_positive_roots(cartan)
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...]):
        if len(prefix) == target:
            out.append(prefix)
            return
        for i in cartan.index_set():
            cand = prefix + (i,)
            if is_reduced(cartan, cand):
                grow(cand)

    grow(())
    return out


def weight_after_word(cartan: CartanMatrix, word: ReducedWord, lam: WeightVec) -> WeightVec:
    """Apply the word's reflections to a weight, first letter first."""
    cur = lam
    for i in word:
        cur = reflect(cartan, i, cur)
    return cur
