"""Membership, the star involution, and string parameterizations.

The image of the big crystal inside the sequence crystal is exactly the
set of elements reachable from zero by lowering operators.  Membership
is decided by greedy raising: repeatedly apply a raising operator with
positive eps (smallest letter first).  A member reaches zero; every
step from a member stays inside the image, and entries of image
elements are never negative, so a negative entry or a stuck nonzero
element refutes membership immediately.

The star involution is read off coordinate-wise: a member's coordinates
are the string data of its star partner along the index sequence, so
the partner is rebuilt by lowering from zero, top position first.
"""

from __future__ import annotations

from .rootdata import num_positive_roots, is_reduced
from .zcrystal import SequenceSpec, ZElement, eps, etilde, etilde_max, ftilde


def membership(spec: SequenceSpec, x: ZElement) -> bool:
    """Greedy raising terminates at zero exactly on image elements."""
    cur = x
    while True:
        if any(v < 0 for _, v in cur.entries):
            return False
        if cur.is_zero():
            return True
        for i in spec.cartan.index_set():
            raised = etilde(spec, cur, i)
            if raised is not None:
                cur = raised
                break
        else:
            return False


def star(spec: SequenceSpec, x: ZElement) -> ZElement:
    """Star partner of a member: lower from zero using the coordinates, top first.

    With coordinates (a_1, ..., a_K) on the index letters, the partner
    is built by a_K lowerings at the top letter, then a_{K-1}, down to
    a_1 lowerings at the first letter.
    """
    if not membership(spec, x):
        raise ValueError("star is only defined on image elements")
    out = ZElement.zero()
    for pos in range(x.support_max(), 0, -1):
        i = spec.letter(pos)
        for _ in range(x.get(pos)):
            out = ftilde(spec, out, i)
    return out


def eps_star(spec: SequenceSpec, x: ZElement, i: int) -> int:
    """Eps of the star partner."""
    return eps(spec, star(spec, x), i)


def string_param(
    spec: SequenceSpec,
    x: ZElement,
    direction: tuple[int, ...],
    require_exhaustive: bool = False,
) -> tuple[int, ...]:
    """Raise to the top along the given letters, recording how far each step went.

    Step t records eps at the t-th letter, then applies the raising
    operator that many times.  With ``require_exhaustive`` the residue
    after the last step must be the zero element.
    """
    out = []
    cur = x
    for i in direction:
        cur, count = etilde_max(spec, cur, i)
        out.append(count)
    if require_exhaustive and not cur.is_zero():
        raise ValueError(f"string peeling left a nonzero residue {cur!r} after letters {direction}")
    return tuple(out)


def _longest_word_string(spec: SequenceSpec, x: ZElement, direction: tuple[int, ...],
                         name: str) -> tuple[int, ...]:
    """String data of a member along a direction word, for a longest-word base."""
    n = num_positive_roots(spec.cartan)
    if len(spec.base.letters) != n or not is_reduced(spec.cartan, spec.base):
        raise ValueError("base word must be a reduced word for the longest element")
    if not membership(spec, x):
        raise ValueError(f"{name} is only defined on image elements")
    return string_param(spec, x, direction, require_exhaustive=True)[:n]


def eta(spec: SequenceSpec, x: ZElement) -> tuple[int, ...]:
    """Coordinates of the star partner: string data along the base word itself.

    Defined when the base word is reduced for the longest element.  On
    members this is an involution, and the result is again a member's
    coordinate vector.
    """
    return _longest_word_string(spec, x, spec.base.letters, "eta")


def eta_opposite(spec: SequenceSpec, x: ZElement) -> tuple[int, ...]:
    """String data along the reversed base word.

    This is the transition from the coordinate chart of the base word to
    the string chart of the opposite word; it is a bijection between the
    two charts (not an involution), and it is the map some closed-form
    tables describe for non-palindromic words.
    """
    return _longest_word_string(spec, x, tuple(reversed(spec.base.letters)), "eta_opposite")
