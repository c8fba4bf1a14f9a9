"""The crystal of integer sequences attached to an infinite index word.

An index sequence assigns a letter to every position 1, 2, 3, ...; the
crystal elements are finitely supported integer vectors on positions.
For each letter i the local quantities at position k are

    sigma_k(x) = x_k + sum over j > k of pairing(letter(k), letter(j)) * x_j

and the letter-level statistics take the maximum of sigma_k over the
positions carrying that letter (always >= 0 because the zero tail is
included).  The raising operator subtracts 1 at the largest position
attaining the maximum (only when the maximum is positive); the lowering
operator adds 1 at the smallest attaining position.

A dominant-weight twist glues a one-element crystal onto the right-hand
side; the tensor rule then cuts the lowering directions, which is what
makes the twisted crystal finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rootdata import CartanMatrix, ReducedWord, RootCombo, WeightVec, root_to_weight


@dataclass(frozen=True)
class ZElement:
    """Finitely supported integer vector on positions 1, 2, 3, ...

    Canonical form: ``values[p - 1]`` is the entry at position p, dense
    from position 1, with trailing zeros trimmed.
    """

    values: tuple[int, ...]

    @staticmethod
    def from_coords(coords) -> "ZElement":
        """Build from a dense prefix (a_1, a_2, ..., a_m)."""
        values = tuple(coords)
        end = len(values)
        while end and values[end - 1] == 0:
            end -= 1
        return ZElement(values[:end])

    @staticmethod
    def zero() -> "ZElement":
        return ZElement(())

    def get(self, pos: int) -> int:
        return self.values[pos - 1] if 0 < pos <= len(self.values) else 0

    def support_max(self) -> int:
        """Largest position with a nonzero entry; 0 for the zero element."""
        return len(self.values)

    def is_zero(self) -> bool:
        return not self.values

    def coords(self, length: int) -> tuple[int, ...]:
        extra = len(self.values) - length
        if extra > 0:
            p = length + next(k for k, v in enumerate(self.values[length:], 1) if v)
            raise ValueError(f"support reaches position {p} beyond requested length {length}")
        return self.values + (0,) * -extra

    def bump(self, pos: int, delta: int) -> "ZElement":
        if pos < 1:
            raise ValueError("positions are 1-based")
        values = list(self.values) + [0] * (pos - len(self.values))
        values[pos - 1] += delta
        return ZElement.from_coords(values)

    def __repr__(self):
        return f"ZElement{self.values}" if self.values else "ZElement(0)"


@dataclass(frozen=True)
class SequenceSpec:
    """An infinite index word: a base word followed by a deterministic tail.

    The base word is stored in application order.  The tail repeats the
    cyclic pattern 1, 2, ..., n, skipping its first letter when that
    would repeat the base word's last letter, so every letter occurs
    infinitely often and adjacent letters differ.  Rank must be at least
    2 (with a single letter no sequence can avoid immediate repeats).
    """

    cartan: CartanMatrix
    base: ReducedWord

    def __post_init__(self):
        if self.cartan.rank < 2:
            raise ValueError("index sequences need rank >= 2")
        letters = self.base.letters
        if any(not 1 <= l <= self.cartan.rank for l in letters):
            raise ValueError("base word letter out of range")
        for a, b in zip(letters, letters[1:]):
            if a == b:
                raise ValueError("adjacent letters of the base word must differ")

    def letter(self, k: int) -> int:
        """Letter at position k >= 1."""
        if k < 1:
            raise ValueError("positions are 1-based")
        base = self.base.letters
        if k <= len(base):
            return base[k - 1]
        skip = 1 if base and base[-1] == 1 else 0
        return (k - len(base) - 1 + skip) % self.cartan.rank + 1

    def next_same_letter(self, k: int) -> int:
        """Smallest position above k carrying the same letter."""
        target = self.letter(k)
        j = k + 1
        while self.letter(j) != target:
            j += 1
        return j

    def prev_same_letter(self, k: int) -> int:
        """Largest position below k carrying the same letter, or 0."""
        target = self.letter(k)
        for j in range(k - 1, 0, -1):
            if self.letter(j) == target:
                return j
        return 0

    def first_position_of(self, i: int) -> int:
        k = 1
        while self.letter(k) != i:
            k += 1
        return k


def sigma_k(spec: SequenceSpec, x: ZElement, k: int) -> int:
    """x_k plus the pairing-weighted sum of all later entries."""
    i = spec.letter(k)
    acc = x.get(k)
    for pos, val in enumerate(x.values[k:], k + 1):
        acc += spec.cartan.pairing(i, spec.letter(pos)) * val
    return acc


def letter_max(spec: SequenceSpec, x: ZElement, i: int) -> tuple[int, list[int]]:
    """Max of sigma over positions with letter i, and the attaining positions.

    One backward pass keeps the pairing-weighted sum of the entries after
    the current position, so every sigma_k of letter i costs one step.
    The pass scans past the support and the base word, plus one tail
    cycle: beyond the support every sigma_k is zero, and the tail shows
    every letter within any rank + 1 consecutive positions, so this
    window exposes, for each letter, at least one position attaining the
    zero tail value.  The base word must be cleared too: it may omit
    letters entirely, and their first positions sit in the tail.

    The max is always >= 0.  The returned positions are increasing and
    cover the scan window only; when the max is 0 the true attaining set
    is infinite and the list still contains its minimum.
    """
    values = x.values
    m = len(values)
    letter, pairing = spec.letter, spec.cartan.pairing
    best = 0
    hits: list[int] = []
    after = 0
    for k in range(max(m, len(spec.base.letters)) + spec.cartan.rank + 1, 0, -1):
        l = letter(k)
        v = values[k - 1] if k <= m else 0
        if l == i:
            s = v + after
            if s > best:
                best = s
                hits = [k]
            elif s == best:
                hits.append(k)
        after += pairing(i, l) * v
    hits.reverse()
    return best, hits


def eps(spec: SequenceSpec, x: ZElement, i: int) -> int:
    return letter_max(spec, x, i)[0]


def wt(spec: SequenceSpec, x: ZElement) -> RootCombo:
    """Weight as a root-lattice element: minus the letter-weighted entry sums."""
    coeffs = [0] * spec.cartan.rank
    for pos, val in enumerate(x.values, 1):
        coeffs[spec.letter(pos) - 1] -= val
    return RootCombo(tuple(coeffs))


def phi(spec: SequenceSpec, x: ZElement, i: int) -> int:
    w = root_to_weight(spec.cartan, wt(spec, x))
    return eps(spec, x, i) + w[i]


def etilde(spec: SequenceSpec, x: ZElement, i: int) -> ZElement | None:
    """Raise in direction i: subtract 1 at the largest max position; None at the wall."""
    best, hits = letter_max(spec, x, i)
    if best == 0:
        return None
    return x.bump(max(hits), -1)


def ftilde(spec: SequenceSpec, x: ZElement, i: int) -> ZElement:
    """Lower in direction i: add 1 at the smallest max position."""
    _, hits = letter_max(spec, x, i)
    return x.bump(min(hits), +1)


def etilde_max(spec: SequenceSpec, x: ZElement, i: int) -> tuple[ZElement, int]:
    """Apply the raising operator until it vanishes; return result and count."""
    count = 0
    cur = x
    while True:
        nxt = etilde(spec, cur, i)
        if nxt is None:
            return cur, count
        cur = nxt
        count += 1


@dataclass(frozen=True)
class LambdaTwist:
    """A sequence-crystal element tensored with the one-point crystal of lam.

    The right factor r has wt(r) = lam, eps_i(r) = -lam_i, phi_i(r) = 0
    and is annihilated by all operators; the tensor rule below routes
    every operator to the left factor or to the wall.
    """

    spec: SequenceSpec
    body: ZElement
    lam: WeightVec

    def __post_init__(self):
        if self.lam.rank != self.spec.cartan.rank:
            raise ValueError("weight rank does not match Cartan rank")
        if not self.lam.is_dominant():
            raise ValueError("twist weight must be dominant")


def twist_wt(t: LambdaTwist) -> WeightVec:
    return root_to_weight(t.spec.cartan, wt(t.spec, t.body)).add(t.lam)


def twist_eps(t: LambdaTwist, i: int) -> int:
    body_eps = eps(t.spec, t.body, i)
    body_wt = root_to_weight(t.spec.cartan, wt(t.spec, t.body))
    return max(body_eps, -t.lam[i] - body_wt[i])


def twist_phi(t: LambdaTwist, i: int) -> int:
    return max(0, phi(t.spec, t.body, i) + t.lam[i])


def twist_etilde(t: LambdaTwist, i: int) -> LambdaTwist | None:
    """Tensor rule: raise the body when its phi is >= the right factor's eps."""
    if phi(t.spec, t.body, i) >= -t.lam[i]:
        raised = etilde(t.spec, t.body, i)
        if raised is None:
            return None
        return LambdaTwist(t.spec, raised, t.lam)
    return None  # routed to the one-point factor, which the operator kills


def twist_ftilde(t: LambdaTwist, i: int) -> LambdaTwist | None:
    """Tensor rule: lower the body only when its phi strictly beats the right factor's eps."""
    if phi(t.spec, t.body, i) > -t.lam[i]:
        return LambdaTwist(t.spec, ftilde(t.spec, t.body, i), t.lam)
    return None
