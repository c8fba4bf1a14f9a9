"""Finite crystal slices: sweep enumeration, the cut route, string data."""

import random

import pytest

from crystal_polytope import demazure
from crystal_polytope.binfinity import membership, star
from crystal_polytope.demazure import (DemazureSet, btilde_cut, enumerate_demazure,
                                       string_points)
from crystal_polytope.rootdata import (ReducedWord, WeightVec, cartan_builtin,
                                       fundamental, rho, weyl_dim_oracle)
from crystal_polytope.zcrystal import SequenceSpec, ZElement, eps, ftilde
from reference import all_reduced_words_longest

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
W_A2 = ReducedWord((1, 2, 1))
W_C2 = ReducedWord((1, 2, 1, 2))
RHO2 = rho(2)


def test_fundamental_slices_a2():
    assert enumerate_demazure(A2, W_A2, fundamental(2, 1)).coords == frozenset(
        {(0, 0, 0), (1, 0, 0), (1, 1, 0)})
    assert enumerate_demazure(A2, W_A2, fundamental(2, 2)).coords == frozenset(
        {(0, 0, 0), (0, 1, 0), (0, 1, 1)})


def test_slice_sizes_match_dimension_oracle():
    cases = [(A2, W_A2, RHO2, 8), (A2, W_A2, RHO2.scale(2), 27),
             (C2, W_C2, RHO2, 16), (C2, W_C2, fundamental(2, 1), 4),
             (C2, W_C2, fundamental(2, 2), 5)]
    for cartan, word, lam, n in cases:
        assert weyl_dim_oracle(cartan, lam) == n
        assert len(enumerate_demazure(cartan, word, lam)) == n


def test_partial_word_slices_grow_along_the_word():
    assert enumerate_demazure(A2, ReducedWord((1,)), RHO2).coords == frozenset(
        {(0,), (1,)})
    assert enumerate_demazure(A2, ReducedWord((1, 2)), RHO2).coords == frozenset(
        {(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)})
    prefix = enumerate_demazure(A2, ReducedWord((1, 2)), RHO2).coords
    full = enumerate_demazure(A2, W_A2, RHO2).coords
    assert {c + (0,) for c in prefix} <= full


RANK2_WEIGHTS = ((1, 0), (0, 1), (1, 1), (2, 1))


@pytest.mark.parametrize("family,rank,letters,weights", [
    ("A", 2, (1, 2, 1), RANK2_WEIGHTS), ("A", 2, (2, 1, 2), RANK2_WEIGHTS),
    ("C", 2, (1, 2, 1, 2), RANK2_WEIGHTS), ("C", 2, (2, 1, 2, 1), RANK2_WEIGHTS),
    ("G", 2, (1, 2, 1, 2, 1, 2), ((1, 1),)), ("G", 2, (2, 1, 2, 1, 2, 1), ((2, 1),)),
    ("A", 3, (1, 2, 1, 3, 2, 1), ((1, 1, 1),)), ("A", 3, (2, 1, 3, 2, 1, 3), ((1, 0, 1),)),
    ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3), ((1, 1, 1),)),
    ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3), ((1, 1, 1),)),
])
def test_cut_route_agrees_with_sweep_route(family, rank, letters, weights):
    # the cut compares only the ray's own letter; a missed or extra element on
    # any prefix would show here
    cartan = cartan_builtin(family, rank)
    for r in range(1, len(letters) + 1):
        word = ReducedWord(letters[:r])
        for lam in map(WeightVec, weights):
            left = enumerate_demazure(cartan, word, lam)
            right = btilde_cut(cartan, word, lam)
            assert left.coords == right.coords, (letters[:r], lam)


@pytest.mark.parametrize("family,rank,letters", [
    ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
    ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
    ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
])
def test_lowering_leaves_the_starred_eps_of_other_letters_alone(family, rank, letters):
    # eps*_j(f_i b) == eps*_j(b) for i != j (Kashiwara-Saito, Duke Math. J. 89, 1997)
    cartan = cartan_builtin(family, rank)
    spec = SequenceSpec(cartan, ReducedWord(letters))
    slice_ = enumerate_demazure(cartan, ReducedWord(letters), rho(rank)).sorted_coords()
    for coords in random.Random(sum(letters) * rank).sample(slice_, min(40, len(slice_))):
        x = ZElement.from_coords(coords)
        partner = star(spec, x)
        for i in cartan.index_set():
            lowered = star(spec, ftilde(spec, x, i))
            for j in cartan.index_set():
                if j != i:
                    assert eps(spec, lowered, j) == eps(spec, partner, j), (coords, i, j)


def test_cut_route_decides_each_member_once(monkeypatch):
    G2 = cartan_builtin("G", 2)
    C3 = cartan_builtin("C", 3)
    star_of_member, ftilde = demazure._star_of_member, demazure.ftilde

    def forbidden(*args):
        raise AssertionError("the cut route used a twisted operator")

    for cartan, word, lam in ((C2, W_C2, RHO2.scale(2)),
                              (G2, ReducedWord((1, 2, 1, 2, 1, 2)), RHO2),
                              (C3, ReducedWord((1, 2, 1, 3, 2, 1, 3, 2, 3)), rho(3))):
        spec = SequenceSpec(cartan, word)
        partners, lowered = [], 0

        def partner(spec_arg, x):
            partners.append(x)
            return star_of_member(spec_arg, x)

        def lowering(*args):
            nonlocal lowered
            lowered += 1
            return ftilde(*args)

        with monkeypatch.context() as m:
            m.setattr(demazure, "_star_of_member", partner)
            m.setattr(demazure, "ftilde", lowering)
            for name in ("twist_ftilde", "LambdaTwist"):
                m.setattr(demazure, name, forbidden)
            got = btilde_cut(cartan, word, lam).coords
        assert got == enumerate_demazure(cartan, word, lam).coords
        # the partner builder skips the membership check, so it must only
        # ever see members
        assert all(membership(spec, x) for x in partners)
        # elements a stage already holds are not decided again
        assert 0 < len(partners) < lowered, (len(partners), lowered)


def test_sweep_is_word_order_sensitive_but_longest_is_not():
    full_a = enumerate_demazure(A2, W_A2, RHO2).coords
    full_b = enumerate_demazure(A2, ReducedWord((2, 1, 2)), RHO2).coords
    assert len(full_a) == len(full_b) == 8
    for words in (all_reduced_words_longest(A2), all_reduced_words_longest(C2)):
        cartan = A2 if len(words[0]) == 3 else C2
        sizes = {len(enumerate_demazure(cartan, ReducedWord(w), RHO2)) for w in words}
        assert len(sizes) == 1


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        enumerate_demazure(A2, ReducedWord((1, 2, 1, 2)), RHO2)  # not reduced
    with pytest.raises(ValueError):
        enumerate_demazure(A2, W_A2, WeightVec((-1, 0)))  # not dominant
    with pytest.raises(ValueError):
        enumerate_demazure(A2, W_A2, WeightVec((1, 1, 1)))  # rank mismatch


def test_semigroup_levels_scale_the_weight():
    levels = {k: btilde_cut(A2, W_A2, RHO2.scale(k)).coords for k in range(3)}
    assert levels[0] == frozenset({(0, 0, 0)})
    assert len(levels[1]) == 8
    assert len(levels[2]) == 27
    assert levels[1] <= levels[2]  # dilation is monotone here


def test_string_points_a2_rho_golden():
    expected = {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0),
                (0, 1, 1), (0, 2, 1), (1, 2, 1)}
    assert string_points(A2, btilde_cut(A2, W_A2, RHO2)) == frozenset(expected)


def test_string_points_count_matches_slice():
    for cartan, word in ((A2, W_A2), (C2, W_C2), (C2, W_C2.reversed())):
        assert len(string_points(cartan, btilde_cut(cartan, word, RHO2))) == \
            len(enumerate_demazure(cartan, word, RHO2))


def test_string_points_reject_a_non_member_on_a_longest_word():
    # (0, 0, 1) is not in the image for 1,2,1: the exhaustive peel leaves a residue
    cut = DemazureSet(W_A2, RHO2, frozenset({(0, 0, 0), (0, 0, 1)}))
    with pytest.raises(ValueError, match="residue"):
        string_points(A2, cut)


@pytest.mark.parametrize("cartan,letters", [
    (A2, (1, 2, 1)), (C2, (1, 2, 1, 2)), (cartan_builtin("G", 2), (1, 2, 1, 2, 1, 2)),
    (cartan_builtin("A", 3), (1, 2, 1, 3, 2, 1))])
def test_cut_points_of_every_proper_prefix_are_members(cartan, letters):
    # string_points peels prefix cuts without a membership check; this is why
    lam = rho(cartan.rank)
    for r in range(1, len(letters)):
        word = ReducedWord(letters[:r])
        spec = SequenceSpec(cartan, word)
        cut = btilde_cut(cartan, word, lam)
        assert all(membership(spec, ZElement.from_coords(c)) for c in cut.coords), r
