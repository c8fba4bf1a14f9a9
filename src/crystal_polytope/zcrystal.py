"""The crystal of integer sequences attached to an infinite index word.

An index sequence assigns a letter to every position 1, 2, 3, ...; the
crystal elements are finitely supported integer vectors on positions.
An element is its trimmed tuple (``ZElement``, a tuple subclass): entry
k - 1 is the value at position k, with trailing zeros dropped, so the
zero element is the empty tuple and the length is the top of the support.

For each letter i the local quantities at position k are

    sigma_k(x) = x_k + sum over j > k of pairing(letter(k), letter(j)) * x_j

and the letter-level statistics take the maximum of sigma_k over the
positions carrying that letter (always >= 0 because the zero tail is
included).  The raising operator subtracts 1 at the largest position
attaining the maximum (only when the maximum is positive); the lowering
operator adds 1 at the smallest attaining position.

The spec answers letters only, each from one shared table; the kernel
and the inequality layer walk that table themselves.  Every statistic
and every operator rests on one kernel scan: a backward pass over the
support, reading the spec's letter table and one row of the Cartan
matrix, gives the sigmas of letter i and minus the i-th weight
coordinate, so eps and phi share it.  A run of steps at one letter (a
lowering ray, or a raising run) costs one scan too: sigma is linear in
x, so each step moves the scanned values by fixed amounts, in place.

A dominant weight lam twists the crystal: an element x stands for x
tensored with the one-point crystal of lam, whose eps_i is -lam_i and
which every operator kills.  By the tensor rule the twisted operators
act on the bare x and read lam only through the cap lam_i; the rule
cuts the lowering directions, which is what makes the twisted crystal
finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .rootdata import CartanMatrix, ReducedWord


class ZElement(tuple):
    """Finitely supported integer vector on positions 1, 2, 3, ...

    The element is its trimmed tuple: entry p - 1 is the value at
    position p, dense from position 1, with trailing zeros trimmed, so
    ``ZElement()`` is zero, ``len`` is the largest position in the
    support, and equality and hashing are the tuple's own.
    """

    __slots__ = ()

    @staticmethod
    def from_coords(coords) -> "ZElement":
        """Build from a dense prefix (a_1, a_2, ..., a_m)."""
        values = tuple(coords)
        end = len(values)
        while end and values[end - 1] == 0:
            end -= 1
        return ZElement(values[:end])

    def coords(self, length: int) -> tuple[int, ...]:
        extra = len(self) - length
        if extra > 0:
            p = length + next(k for k, v in enumerate(self[length:], 1) if v)
            raise ValueError(f"support reaches position {p} beyond requested length {length}")
        return self + (0,) * -extra

    def bump(self, pos: int, delta: int) -> "ZElement":
        if pos < 1:
            raise ValueError("positions are 1-based")
        values = list(self) + [0] * (pos - len(self))
        values[pos - 1] += delta
        return ZElement.from_coords(values)

    def __repr__(self):
        return f"ZElement{tuple.__repr__(self)}" if self else "ZElement(0)"


@dataclass(frozen=True)
class SequenceSpec:
    """An infinite index word: a base word followed by a deterministic tail.

    The base word is stored in application order.  The tail repeats the
    cyclic pattern 1, 2, ..., n, skipping its first letter when that
    would repeat the base word's last letter, so every letter occurs
    infinitely often and adjacent letters differ.  Rank must be at least
    2 (with a single letter no sequence can avoid immediate repeats).

    The letters are built once: a table holds the base word and whole
    periods of the tail, and grows by periods when a longer support or a
    later position asks for it.  Every letter lookup reads that table.
    """

    cartan: CartanMatrix
    base: ReducedWord
    _period: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _table: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.cartan.rank
        if n < 2:
            raise ValueError("index sequences need rank >= 2")
        letters = self.base.letters
        if any(not 1 <= l <= n for l in letters):
            raise ValueError("base word letter out of range")
        for a, b in zip(letters, letters[1:]):
            if a == b:
                raise ValueError("adjacent letters of the base word must differ")
        skip = 1 if letters and letters[-1] == 1 else 0
        period = tuple((t + skip) % n + 1 for t in range(n))
        object.__setattr__(self, "_period", period)
        object.__setattr__(self, "_table", [*letters, *period])

    def letter_table(self, m: int) -> list[int]:
        """Letters of positions 1..m (entry k - 1 is position k), possibly more.

        The list is shared: callers read it and never change it.
        """
        table = self._table
        while len(table) < m:
            table.extend(self._period)
        return table

    def letter(self, k: int) -> int:
        """Letter at position k >= 1, read from the table."""
        if k < 1:
            raise ValueError("positions are 1-based")
        return self.letter_table(k)[k - 1]


def _scan(spec: SequenceSpec, x: ZElement, i: int) -> tuple[list[int], list[int], int]:
    """The kernel scan: one backward pass over the support of x.

    Returns the positions of letter i in the support (increasing), their
    sigma values, and the pairing-weighted sum of all entries, which is
    minus the i-th coordinate of wt(x).  Every position of letter i past
    the support has sigma 0.
    """
    letters = spec.letter_table(len(x))
    row = spec.cartan.rows[i - 1]
    positions: list[int] = []
    sigmas: list[int] = []
    after = 0
    for k in range(len(x) - 1, -1, -1):
        v = x[k]
        l = letters[k]
        if l == i:
            positions.append(k + 1)
            sigmas.append(v + after)
        after += row[l - 1] * v
    positions.reverse()
    sigmas.reverse()
    return positions, sigmas, after


def letter_max(spec: SequenceSpec, x: ZElement, i: int) -> tuple[int, list[int]]:
    """Max of sigma over positions with letter i, and its positions in the support.

    One kernel scan gives every sigma_k of letter i in the support; past it
    every sigma_k is 0, so the max is >= 0 and, when it is 0, also attained
    by the zero tail, which is not listed.  The positions are increasing.
    """
    positions, sigmas, _ = _scan(spec, x, i)
    best = max([0, *sigmas])
    return best, [p for p, s in zip(positions, sigmas) if s == best]


def etilde(spec: SequenceSpec, x: ZElement, i: int) -> ZElement | None:
    """Raise in direction i: a run of at most one step; None at the wall."""
    positions, sigmas, _ = _scan(spec, x, i)
    raised, count = _raise(x, positions, sigmas, 1)
    return raised if count else None


def ftilde(spec: SequenceSpec, x: ZElement, i: int) -> ZElement:
    """Lower in direction i: add 1 at the smallest max position (a run of one step)."""
    return ftilde_run(spec, x, i, 1)


def _lower(spec: SequenceSpec, i: int, a: int, values: list[int],
           positions: list[int], sigmas: list[int]) -> list[int]:
    """f_i applied a times, in place, to the entries ``values`` and their kernel scan.

    The scan ends in a 0 that stands for the positions of letter i past the
    entries; a step there gives it the next such position, and a new 0
    follows.  A step at the smallest attaining position q adds 1 to x_q:
    sigma_q rises by 1 and each earlier same-letter sigma by 2, on any
    integer vector.
    """
    for _ in range(a):
        q = sigmas.index(max(sigmas))
        if q == len(positions):
            p = len(values) + 1
            while spec.letter(p) != i:
                p += 1
            positions.append(p)
            sigmas.append(0)
        p = positions[q]
        if p > len(values):
            values += [0] * (p - len(values))
        values[p - 1] += 1
        sigmas[q] += 1
        for t in range(q):
            sigmas[t] += 2
    return values


def ftilde_ray(spec: SequenceSpec, x: ZElement, i: int):
    """Endless lowering ray on one kernel scan: f_i y and phi_i(y) for y = x, f_i x, ..."""
    positions, sigmas, paired = _scan(spec, x, i)
    values = list(x)
    sigmas.append(0)
    while True:
        phi = max(sigmas) - paired
        _lower(spec, i, 1, values, positions, sigmas)
        yield ZElement.from_coords(values), phi
        paired += 2


def _raise(x: ZElement, positions: list[int], sigmas: list[int],
           limit: int | None) -> tuple[ZElement, int]:
    """e_i applied to x up to limit times (None: until it vanishes), and the count.

    The lists are the kernel scan of x and are consumed.  A step at the
    largest attaining position q moves sigma_q by -1 and each earlier
    same-letter sigma by -2; the zero tail never attains a positive max.
    """
    values = list(x)
    count = 0
    while count != limit and sigmas and (best := max(sigmas)) > 0:
        q = len(sigmas) - 1 - sigmas[::-1].index(best)
        values[positions[q] - 1] -= 1
        sigmas[q] -= 1
        for t in range(q):
            sigmas[t] -= 2
        count += 1
    return (ZElement.from_coords(values) if count else x), count


def ftilde_run(spec: SequenceSpec, x: ZElement, i: int, a: int) -> ZElement:
    """The lowering operator f_i applied a times, on one kernel scan."""
    positions, sigmas, _ = _scan(spec, x, i)
    sigmas.append(0)
    return ZElement.from_coords(_lower(spec, i, a, list(x), positions, sigmas))


def etilde_max(spec: SequenceSpec, x: ZElement, i: int) -> tuple[ZElement, int]:
    """e_i applied until it vanishes, on one kernel scan; the result and the count."""
    positions, sigmas, _ = _scan(spec, x, i)
    return _raise(x, positions, sigmas, None)


def twist_etilde(spec: SequenceSpec, x: ZElement, i: int, cap: int) -> ZElement | None:
    """Twisted raising, cap = lam_i: raise x when its phi is >= -cap (one scan).

    Otherwise the tensor rule hands the step to the one-point factor,
    which the operator kills.
    """
    positions, sigmas, paired = _scan(spec, x, i)
    if max([0, *sigmas]) - paired >= -cap:
        raised, count = _raise(x, positions, sigmas, 1)
        return raised if count else None
    return None


def twist_ftilde(spec: SequenceSpec, x: ZElement, i: int, cap: int) -> ZElement | None:
    """Twisted lowering, cap = lam_i: lower x only when its phi is > -cap (one scan)."""
    lowered, phi = next(ftilde_ray(spec, x, i))
    return lowered if phi > -cap else None
