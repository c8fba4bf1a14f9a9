"""Finite crystal slices: sweep enumeration, the cut route, string data."""

import pytest

from crystal_polytope import demazure
from crystal_polytope.binfinity import membership
from crystal_polytope.demazure import btilde_cut, enumerate_demazure, string_points
from crystal_polytope.rootdata import (ReducedWord, WeightVec,
                                       all_reduced_words_longest, cartan_builtin,
                                       fundamental, rho, weyl_dim_oracle)
from crystal_polytope.zcrystal import SequenceSpec

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


def test_cut_route_agrees_with_sweep_route():
    for cartan, letters in ((A2, (1, 2, 1)), (A2, (2, 1, 2)), (A2, (1, 2)),
                            (C2, (1, 2, 1, 2)), (C2, (2, 1, 2, 1)), (C2, (2, 1))):
        word = ReducedWord(letters)
        for lam in (fundamental(2, 1), fundamental(2, 2), RHO2, WeightVec((2, 1))):
            left = enumerate_demazure(cartan, word, lam)
            right = btilde_cut(cartan, word, lam)
            assert left.coords == right.coords, (letters, lam)


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
