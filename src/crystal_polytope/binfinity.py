"""Membership, the star involution, and string data of one element or a whole slice.

The image of the big crystal inside the sequence crystal is exactly the
set of elements reachable from zero by lowering operators.  Membership
is decided by greedy raising in runs: raise as far as possible at the
smallest letter with positive eps, then start again from the first
letter.  A member reaches zero: every raising from a member stays inside
the image and lowers the entry sum by one, and entries of image
elements are never negative, so a negative entry or a stuck nonzero
element refutes membership.  A non-member never reaches zero, since
reaching it retraces a lowering path, so the order of the raisings does
not change the verdict.

The star involution is read off coordinate-wise: a member's coordinates
are the string data of its star partner along the index sequence, so
the partner is rebuilt by lowering from zero, top position first, one
lowering run (one kernel scan) per nonzero coordinate.
"""

from __future__ import annotations

from .rootdata import num_positive_roots, is_reduced
from .zcrystal import SequenceSpec, ZElement, etilde_max, ftilde_run


def membership(spec: SequenceSpec, x: ZElement) -> bool:
    """Greedy raising in runs terminates at zero exactly on image elements."""
    cur = x
    while True:
        if any(v < 0 for v in cur.values):
            return False
        if cur.is_zero():
            return True
        for i in spec.cartan.index_set():
            raised, count = etilde_max(spec, cur, i)
            if count:
                cur = raised
                break
        else:
            return False


def star(spec: SequenceSpec, x: ZElement) -> ZElement:
    """Star partner of a member; raises ``ValueError`` on a non-member."""
    if not membership(spec, x):
        raise ValueError("star is only defined on image elements")
    return _star_of_member(spec, x)


def _star_of_member(spec: SequenceSpec, x: ZElement) -> ZElement:
    """Star partner of an element the caller knows to be a member.

    With coordinates (a_1, ..., a_K) on the index letters, the partner
    is built by a_K lowerings at the top letter, then a_{K-1}, down to
    a_1 lowerings at the first letter.
    """
    out = ZElement.zero()
    letters = spec.letter_table(x.support_max())
    for pos in range(x.support_max(), 0, -1):
        a = x.values[pos - 1]
        if a:
            out = ftilde_run(spec, out, letters[pos - 1], a)
    return out


def string_param(spec: SequenceSpec, x: ZElement, direction: tuple[int, ...]) -> tuple[int, ...]:
    """Raise to the top along the given letters, recording how far each step went.

    Step t records eps at the t-th letter, then applies the raising
    operator that many times.  The residue after the last step must be
    the zero element; otherwise ``ValueError`` names it.
    """
    out = []
    cur = x
    for i in direction:
        cur, count = etilde_max(spec, cur, i)
        out.append(count)
    if not cur.is_zero():
        raise ValueError(f"string peeling left a nonzero residue {cur!r} after letters {direction}")
    return tuple(out)


def peel_slice(spec: SequenceSpec, xs, direction: tuple[int, ...]) -> dict:
    """String data along the given letters of every element of xs, by element.

    Members of one i-string meet once raised at i, so step t raises each state
    once.  A nonzero residue raises ``ValueError``, as in ``string_param``.
    """
    states = {x: [(x, ())] for x in xs}  # state -> (element, its string so far)
    for i in direction:
        raised = {}
        for cur, reached in states.items():
            top, count = etilde_max(spec, cur, i)
            raised.setdefault(top, []).extend((x, s + (count,)) for x, s in reached)
        states = raised
    for cur in states.keys() - {ZElement.zero()}:
        raise ValueError(f"string peeling left a nonzero residue {cur!r} after letters {direction}")
    return dict(pair for reached in states.values() for pair in reached)


def _longest_word_string(spec: SequenceSpec, x: ZElement,
                         direction: tuple[int, ...]) -> tuple[int, ...]:
    """String data of a member along a direction word, for a longest-word base.

    The exhaustive peel is the membership check: raising never increases an
    entry and lowering undoes it, so reaching zero retraces a lowering path.
    """
    n = num_positive_roots(spec.cartan)
    if len(spec.base.letters) != n or not is_reduced(spec.cartan, spec.base):
        raise ValueError("base word must be a reduced word for the longest element")
    return string_param(spec, x, direction)


def eta(spec: SequenceSpec, x: ZElement) -> tuple[int, ...]:
    """Coordinates of the star partner: string data along the base word itself.

    Defined when the base word is reduced for the longest element.  On
    members this is an involution, and the result is again a member's
    coordinate vector.
    """
    return _longest_word_string(spec, x, spec.base.letters)


def eta_opposite(spec: SequenceSpec, x: ZElement) -> tuple[int, ...]:
    """String data along the reversed base word.

    This is the transition from the coordinate chart of the base word to
    the string chart of the opposite word; it is a bijection between the
    two charts (not an involution), and it is the map some closed-form
    tables describe for non-palindromic words.
    """
    return _longest_word_string(spec, x, tuple(reversed(spec.base.letters)))
