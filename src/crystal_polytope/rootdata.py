"""Cartan matrices, weights in fundamental coordinates, and reduced words.

Conventions:

* ``CartanMatrix.pairing(i, j)`` is the integer obtained by pairing the
  j-th simple root against the i-th simple coroot.  Rows are indexed by
  the coroot, columns by the root, both 1-based.
* A ``WeightVec`` stores a weight by its pairings with the simple
  coroots, so the i-th fundamental weight is the i-th unit vector.
* A root-lattice element is a plain tuple of its coefficients on the
  simple roots.
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


def _reflect(cartan: CartanMatrix, i: int, root: tuple[int, ...]) -> tuple[int, ...]:
    """Simple reflection s_i on root-lattice coefficients: entry i drops by <h_i, root>."""
    amount = sum(c * r for c, r in zip(cartan.rows[i - 1], root))
    return root[:i - 1] + (root[i - 1] - amount,) + root[i:]


@functools.cache
def cartan_builtin(family: str, rank: int) -> CartanMatrix:
    """Cartan matrix of a finite family, Bourbaki numbering, built once per argument pair.

    Type C has its long root last: ``pairing(n-1, n) == -2``.  Type B is
    the transpose of that corner.  For rank 2 this makes ``("C", 2)``
    equal ``[[2, -2], [-1, 2]]``.  Type F has its long roots first:
    ``pairing(3, 2) == -2``.
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
        m[2][1] = -2
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
        root = tuple(int(j == letters[k]) for j in cartan.index_set())
        for l in range(k - 1, -1, -1):
            root = _reflect(cartan, letters[l], root)
        if any(c < 0 for c in root):
            return False
    return True


@functools.cache
def positive_roots(cartan: CartanMatrix) -> tuple[tuple[int, ...], ...]:
    """All positive roots, generated by closing the simple roots under reflections.

    Each root is a tuple of its simple-root coefficients, and the roots
    come sorted.  Only meaningful for finite type; raises if the closure
    keeps growing past a generous cap.  Closed once per Cartan matrix.
    """
    frontier = [tuple(int(j == i) for j in cartan.index_set()) for i in cartan.index_set()]
    seen = set(frontier)
    cap = 10_000
    while frontier:
        nxt = []
        for root in frontier:
            for i in cartan.index_set():
                image = _reflect(cartan, i, root)
                if all(c >= 0 for c in image) and image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
        if len(seen) > cap:
            raise ValueError("root system does not close up; is the matrix of finite type?")
    return tuple(sorted(seen))


def num_positive_roots(cartan: CartanMatrix) -> int:
    return len(positive_roots(cartan))


def weyl_dim_oracle(cartan: CartanMatrix, lam: WeightVec) -> int:
    """Dimension of the irreducible module of highest weight lam.

    Independent product-formula oracle: the product over positive coroots
    of the pairing with lam+rho divided by the one with rho.  The positive
    coroots, in simple-coroot coordinates c, are the positive roots of the
    transposed Cartan matrix, and a coroot pairs with lam+rho to
    sum c_i (lam_i + 1) and with rho to sum c_i.
    """
    if not lam.is_dominant():
        raise ValueError("highest weight must be dominant")
    num = den = 1
    for coroot in positive_roots(CartanMatrix(tuple(zip(*cartan.rows)))):
        num *= sum(c * (l + 1) for c, l in zip(coroot, lam.coords))
        den *= sum(coroot)
    if num % den:
        raise ArithmeticError("dimension formula did not produce an integer")
    return num // den
