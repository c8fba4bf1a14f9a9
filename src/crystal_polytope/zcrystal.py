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

    Canonical form: zero entries are dropped, positions sorted.
    """

    entries: tuple[tuple[int, int], ...]

    @staticmethod
    def from_pairs(pairs) -> "ZElement":
        cleaned = {}
        for pos, val in pairs:
            if pos < 1:
                raise ValueError("positions are 1-based")
            if val != 0:
                cleaned[pos] = cleaned.get(pos, 0) + val
        return ZElement(tuple(sorted((p, v) for p, v in cleaned.items() if v != 0)))

    @staticmethod
    def from_coords(coords) -> "ZElement":
        """Build from a dense prefix (a_1, a_2, ..., a_m)."""
        return ZElement.from_pairs((k + 1, v) for k, v in enumerate(coords))

    @staticmethod
    def zero() -> "ZElement":
        return ZElement(())

    def get(self, pos: int) -> int:
        for p, v in self.entries:
            if p == pos:
                return v
        return 0

    def support_max(self) -> int:
        """Largest position with a nonzero entry; 0 for the zero element."""
        return self.entries[-1][0] if self.entries else 0

    def is_zero(self) -> bool:
        return not self.entries

    def coords(self, length: int) -> tuple[int, ...]:
        dense = [0] * length
        for p, v in self.entries:
            if p <= length:
                dense[p - 1] = v
            elif v != 0:
                raise ValueError(f"support reaches position {p} beyond requested length {length}")
        return tuple(dense)

    def bump(self, pos: int, delta: int) -> "ZElement":
        return ZElement.from_pairs(self.entries + ((pos, delta),))

    def __repr__(self):
        if not self.entries:
            return "ZElement(0)"
        dense = self.coords(self.support_max())
        return f"ZElement{dense}"


@dataclass(frozen=True)
class SequenceSpec:
    """An infinite index word: a base word followed by a deterministic tail.

    The base word is stored in application order.  The tail repeats the
    cyclic pattern 1, 2, ..., n, skipping any letter that would repeat
    its immediate predecessor, so every letter occurs infinitely often
    and adjacent letters differ.  Rank must be at least 2 (with a single
    letter no sequence can avoid immediate repeats).
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
        n = self.cartan.rank
        prev = base[-1] if base else 0
        pos = len(base)
        cycle = 0
        while True:
            cand = cycle % n + 1
            cycle += 1
            if cand == prev:
                continue
            pos += 1
            prev = cand
            if pos == k:
                return cand

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
    for pos, val in x.entries:
        if pos > k:
            acc += spec.cartan.pairing(i, spec.letter(pos)) * val
    return acc


def _scan_window(spec: SequenceSpec, x: ZElement) -> int:
    """Positions to scan: past the support and the base, plus one tail cycle.

    Beyond the support every sigma_k is zero, and the tail shows every
    letter within any rank + 1 consecutive positions, so this window
    exposes, for each letter, at least one position attaining the zero
    tail value.  The base word must be cleared too: it may omit letters
    entirely, and their first positions sit in the tail.
    """
    return max(x.support_max(), len(spec.base.letters)) + spec.cartan.rank + 1


def letter_max(spec: SequenceSpec, x: ZElement, i: int) -> tuple[int, list[int]]:
    """Max of sigma over positions with letter i, and the attaining positions.

    The max is always >= 0.  The returned position list covers the scan
    window only; when the max is 0 the true attaining set is infinite
    and the list still contains its minimum.
    """
    best = 0
    window = _scan_window(spec, x)
    hits: list[int] = []
    for k in range(1, window + 1):
        if spec.letter(k) != i:
            continue
        s = sigma_k(spec, x, k)
        if s > best:
            best = s
            hits = [k]
        elif s == best:
            hits.append(k)
    return best, hits


def eps(spec: SequenceSpec, x: ZElement, i: int) -> int:
    return letter_max(spec, x, i)[0]


def wt(spec: SequenceSpec, x: ZElement) -> RootCombo:
    """Weight as a root-lattice element: minus the letter-weighted entry sums."""
    coeffs = [0] * spec.cartan.rank
    for pos, val in x.entries:
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
