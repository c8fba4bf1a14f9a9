"""Membership, the star involution, and its coordinate chart transitions."""

import itertools

import pytest

from hypothesis import given, settings, strategies as st

from crystal_polytope import binfinity, zcrystal
from crystal_polytope.binfinity import (_star_of_member, eta, eta_opposite, membership,
                                        peel_slice, star, string_param)
from crystal_polytope.demazure import btilde_cut
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin
from crystal_polytope.zcrystal import SequenceSpec, ZElement, etilde_max, ftilde, ftilde_ray

from reference import eps, greedy_membership

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
SPEC_C2 = SequenceSpec(C2, ReducedWord((1, 2, 1, 2)))


def a2_members(top):
    out = []
    for a in itertools.product(range(top + 1), repeat=3):
        if a[1] >= a[2]:
            out.append(a)
    return out


def c2_members(top):
    out = []
    for a in itertools.product(range(top + 1), repeat=4):
        if 2 * a[1] >= a[2] and a[2] >= 2 * a[3]:
            out.append(a)
    return out


def test_membership_cone_a2_small_box():
    for a in itertools.product(range(4), repeat=3):
        expected = a[1] >= a[2]
        assert membership(SPEC_A2, ZElement.from_coords(a)) == expected, a


def test_membership_cone_c2_small_box():
    for a in itertools.product(range(4), repeat=4):
        expected = 2 * a[1] >= a[2] and a[2] >= 2 * a[3]
        assert membership(SPEC_C2, ZElement.from_coords(a)) == expected, a


def test_membership_rejects_negative_entries():
    assert not membership(SPEC_A2, ZElement.from_coords((1, -1, 0)))


def test_lowering_stays_in_the_image():
    x = ZElement.zero()
    for i in (1, 2, 1, 1, 2):
        x = ftilde(SPEC_A2, x, i)
        assert membership(SPEC_A2, x)


def test_star_is_an_involution_on_members():
    for a in a2_members(3):
        x = ZElement.from_coords(a)
        assert star(SPEC_A2, star(SPEC_A2, x)) == x
    for a in c2_members(2):
        x = ZElement.from_coords(a)
        assert star(SPEC_C2, star(SPEC_C2, x)) == x


def test_star_fixed_and_moved_points():
    assert star(SPEC_A2, ZElement.zero()) == ZElement.zero()
    # (1, 1, 0) and (0, 1, 1) are star partners
    moved = star(SPEC_A2, ZElement.from_coords((1, 1, 0)))
    assert moved.coords(3) == (0, 1, 1)
    assert star(SPEC_A2, moved).coords(3) == (1, 1, 0)


def test_eta_equals_star_coordinates():
    n = 3
    for a in a2_members(3):
        x = ZElement.from_coords(a)
        assert eta(SPEC_A2, x) == star(SPEC_A2, x).coords(n)


def test_eps_star_counts_star_side_raising():
    def eps_star(a, i):
        return eps(SPEC_A2, star(SPEC_A2, ZElement.from_coords(a)), i)

    # (1,1,0) has star partner (0,1,1), whose letter-1 raising count is 1
    assert eps_star((1, 1, 0), 1) == 1
    assert eps_star((1, 1, 0), 2) == 0
    assert eps_star((1, 0, 0), 1) == 1
    assert eps_star((0, 1, 0), 2) == 1


def test_eta_golden_value():
    assert eta(SPEC_A2, ZElement.from_coords((1, 1, 0))) == (0, 1, 1)


def a2_closed_form(a):
    a1, a2, a3 = a
    return (max(a3, a1 - a2 + 2 * a3), a2, min(a1, a2 - a3))


def c2_closed_form(a):
    a1, a2, a3, a4 = a
    return (max(a4, a2 - a3 + 2 * a4),
            max(a3, a1 - 2 * a2 + 2 * a3, a1 + 2 * a4),
            min(a2, a3 - a4),
            min(a1, 2 * a2 - a3, a3 - 2 * a4))


def test_eta_matches_closed_form_a2():
    for a in a2_members(3):
        assert eta(SPEC_A2, ZElement.from_coords(a)) == a2_closed_form(a), a


def test_eta_is_an_involution():
    for a in a2_members(3):
        x = ZElement.from_coords(a)
        assert eta(SPEC_A2, ZElement.from_coords(eta(SPEC_A2, x))) == a
    for a in c2_members(2):
        x = ZElement.from_coords(a)
        assert eta(SPEC_C2, ZElement.from_coords(eta(SPEC_C2, x))) == a


def test_eta_opposite_matches_closed_form_c2():
    for a in c2_members(3):
        assert eta_opposite(SPEC_C2, ZElement.from_coords(a)) == c2_closed_form(a), a


def test_eta_opposite_equals_eta_for_palindromic_words():
    for a in a2_members(3):
        x = ZElement.from_coords(a)
        assert eta_opposite(SPEC_A2, x) == eta(SPEC_A2, x)


def test_chart_transition_is_not_an_involution_for_c2():
    # witness chain: the reversed-word chart transition moves (0,1,2,1)
    # to (1,2,1,0) and that point onward to (1,1,1,1), never back
    first = eta_opposite(SPEC_C2, ZElement.from_coords((0, 1, 2, 1)))
    assert first == (1, 2, 1, 0)
    second = eta_opposite(SPEC_C2, ZElement.from_coords(first))
    assert second == (1, 1, 1, 1)


def test_string_param_records_full_peels():
    x = ZElement.from_coords((1, 1, 0))
    assert string_param(SPEC_A2, x, (1, 2, 1)) == (0, 1, 1)
    with pytest.raises(ValueError, match="residue"):
        string_param(SPEC_A2, x, (1,))


def test_eta_requires_longest_word():
    spec = SequenceSpec(A2, ReducedWord((1, 2)))
    with pytest.raises(ValueError):
        eta(spec, ZElement.zero())


def test_eta_requires_membership():
    with pytest.raises(ValueError):
        eta(SPEC_A2, ZElement.from_coords((0, 0, 1)))


LONGEST = [SPEC_A2, SPEC_C2,
           SequenceSpec(cartan_builtin("G", 2), ReducedWord((1, 2, 1, 2, 1, 2))),
           SequenceSpec(cartan_builtin("A", 3), ReducedWord((1, 2, 1, 3, 2, 1)))]


@st.composite
def longest_spec_and_signed_point(draw):
    spec = draw(st.sampled_from(LONGEST))
    width = len(spec.base.letters) + draw(st.integers(0, spec.cartan.rank))
    coords = draw(st.lists(st.integers(-1, 3), min_size=width, max_size=width))
    return spec, ZElement.from_coords(tuple(coords))


@settings(max_examples=300, deadline=None)
@given(longest_spec_and_signed_point())
def test_eta_rejects_exactly_the_non_members(data):
    spec, x = data
    member = membership(spec, x)
    for chart in (eta, eta_opposite):
        if member:
            assert len(chart(spec, x)) == len(spec.base.letters)
        else:
            with pytest.raises(ValueError):
                chart(spec, x)


@settings(max_examples=300, deadline=None)
@given(longest_spec_and_signed_point())
def test_membership_by_runs_matches_step_by_step_raising(data):
    spec, x = data
    assert membership(spec, x) == greedy_membership(spec, x)


LADDER_WORDS = [("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
                ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
                ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3))]


@st.composite
def prefix_spec_and_lowering_path(draw):
    """A prefix of a ladder word and up to 15 letters to lower by from zero.

    On a proper prefix the path soon leaves the word for the tail positions.
    """
    family, rank, letters = draw(st.sampled_from(LADDER_WORDS))
    r = draw(st.integers(1, len(letters)))
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters[:r]))
    return spec, draw(st.lists(st.integers(1, rank), max_size=15))


@settings(max_examples=300, deadline=None)
@given(prefix_spec_and_lowering_path())
def test_carried_starred_eps_is_the_eps_of_the_star_partner(data):
    spec, path = data
    x, starred = ZElement.zero(), (0,) * spec.cartan.rank
    for i in path:
        # the cut's Kashiwara-Saito step, on the phi the ray yields
        lowered, phi = next(ftilde_ray(spec, x, i))
        if phi + starred[i - 1] == 0:
            starred = (*starred[:i - 1], starred[i - 1] + 1, *starred[i:])
        assert lowered == ftilde(spec, x, i)
        x = lowered
        partner = star(spec, x)
        assert starred == tuple(eps(spec, partner, j) for j in spec.cartan.index_set()), (x, i)


def test_star_partner_costs_one_scan_per_nonzero_coordinate(monkeypatch):
    calls = []
    scan = zcrystal._scan

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(zcrystal, "_scan", counted)
    spec = LONGEST[3]
    # members reached by lowering from zero, with their number of nonzero coordinates
    runs = {(): 0, (1, 1, 1): 1, (2, 1, 2, 3, 3, 2, 1, 1): 5,
            (1, 2, 3, 1, 2, 1, 3, 3, 2, 2, 1, 1, 1): 5}
    for letters, nonzero in runs.items():
        x = ZElement.zero()
        for i in letters:
            x = ftilde(spec, x, i)
        calls.clear()
        partner = _star_of_member(spec, x)
        assert len(calls) == nonzero
        assert star(spec, partner) == x


@pytest.mark.parametrize("family,rank,letters", LADDER_WORDS)
def test_slice_peel_is_the_peel_of_each_element(monkeypatch, family, rank, letters):
    # on the rho slice of every ladder chart (and B3), along its word and the reversed
    # word; every distinct state of every step is raised once
    cartan = cartan_builtin(family, rank)
    lam = WeightVec((1,) * rank)
    runs = []

    def counting(spec, x, i):
        runs.append((x, i))
        return etilde_max(spec, x, i)

    for word in (ReducedWord(letters), ReducedWord(letters).reversed()):
        spec = SequenceSpec(cartan, word)
        xs = [ZElement.from_coords(c) for c in btilde_cut(cartan, word, lam).coords]
        for direction in (word.letters, word.reversed().letters):
            states = set()
            for x in xs:
                for t, i in enumerate(direction):
                    states.add((t, x))
                    x = etilde_max(spec, x, i)[0]
            runs.clear()
            monkeypatch.setattr(binfinity, "etilde_max", counting)
            peeled = peel_slice(spec, xs, direction)
            monkeypatch.undo()
            assert peeled == {x: string_param(spec, x, direction) for x in xs}
            assert len(runs) == len(states) < len(xs) * len(direction)
        with pytest.raises(ValueError, match="residue"):
            peel_slice(spec, [*xs, ZElement.from_coords((0,) * (len(letters) - 1) + (1,))],
                       word.letters)
