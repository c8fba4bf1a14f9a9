"""Finite crystal slices: sweep enumeration, the cut route, string data."""

import pytest

from crystal_polytope import binfinity, demazure, zcrystal
from crystal_polytope.binfinity import membership, star
from crystal_polytope.demazure import (DemazureSet, btilde_cut, enumerate_demazure,
                                       string_points)
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin, weyl_dim_oracle
from crystal_polytope.zcrystal import SequenceSpec, ZElement, ftilde, ftilde_ray
from reference import all_reduced_words_longest, eps, phi

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
W_A2 = ReducedWord((1, 2, 1))
W_C2 = ReducedWord((1, 2, 1, 2))
RHO2 = WeightVec((1, 1))
RHO3 = WeightVec((1, 1, 1))


def test_fundamental_slices_a2():
    assert enumerate_demazure(A2, W_A2, WeightVec((1, 0))).coords == frozenset(
        {(0, 0, 0), (1, 0, 0), (1, 1, 0)})
    assert enumerate_demazure(A2, W_A2, WeightVec((0, 1))).coords == frozenset(
        {(0, 0, 0), (0, 1, 0), (0, 1, 1)})


def test_slice_sizes_match_dimension_oracle():
    cases = [(A2, W_A2, RHO2, 8), (A2, W_A2, RHO2.scale(2), 27),
             (C2, W_C2, RHO2, 16), (C2, W_C2, WeightVec((1, 0)), 4),
             (C2, W_C2, WeightVec((0, 1)), 5)]
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


def starred_eps(spec, x):
    """The oracle: eps of the star partner, letter by letter."""
    partner = star(spec, x)
    return tuple(eps(spec, partner, j) for j in spec.cartan.index_set())


@pytest.mark.parametrize("family,rank,letters", [
    ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
    ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
    ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
])
def test_lowering_moves_the_starred_eps_by_the_kashiwara_saito_rule(family, rank, letters):
    # on B(infinity) phi_i + eps*_i >= 0; f_i raises eps*_i by 1 exactly when
    # that sum is 0 and leaves eps*_j alone for j != i (Kashiwara-Saito, Duke
    # Math. J. 89, 1997, 3.2), which the cut applies to the phi its rays yield;
    # every element of the slice of every prefix at rho, on the prefix's own
    # index sequence, every letter i and every j, j == i included
    cartan = cartan_builtin(family, rank)
    for r in range(1, len(letters) + 1):
        word = ReducedWord(letters[:r])
        spec = SequenceSpec(cartan, word)
        for coords in enumerate_demazure(cartan, word, WeightVec((1,) * rank)).coords:
            x = ZElement.from_coords(coords)
            starred = starred_eps(spec, x)
            for i in cartan.index_set():
                lowered, ray_phi = next(ftilde_ray(spec, x, i))
                assert (lowered, ray_phi) == (ftilde(spec, x, i), phi(spec, x, i))
                total = ray_phi + starred[i - 1]
                assert total >= 0, (letters[:r], coords, i)
                step = 1 if total == 0 else 0
                expected = (*starred[:i - 1], starred[i - 1] + step, *starred[i:])
                assert starred_eps(spec, lowered) == expected, (letters[:r], coords, i)


def counted_rays(monkeypatch):
    """Patch the rays the routes walk; returns [rays started, ray steps consumed]."""
    made = [0, 0]
    ray = demazure.ftilde_ray

    def counting(*args):
        made[0] += 1
        for step in ray(*args):
            made[1] += 1
            yield step

    monkeypatch.setattr(demazure, "ftilde_ray", counting)
    return made


def counted_scans(monkeypatch):
    scans = []
    scan = zcrystal._scan

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(zcrystal, "_scan", counting)
    return scans


# lowering steps the cut takes from its rays on each chart: a ray ends one
# step past the cap or at an element its stage already holds, so the count
# pins the rays
CUT_STEPS = [(C2, W_C2, RHO2.scale(2), 142),
             (cartan_builtin("G", 2), ReducedWord((1, 2, 1, 2, 1, 2)), RHO2, 174),
             (cartan_builtin("C", 3), ReducedWord((1, 2, 1, 3, 2, 1, 3, 2, 3)), RHO3, 1523)]


@pytest.mark.parametrize("cartan,word,lam,steps", CUT_STEPS,
                         ids=["C2 2rho", "G2 rho", "C3 rho"])
def test_cut_route_builds_no_star_partner(monkeypatch, cartan, word, lam, steps):
    expected = enumerate_demazure(cartan, word, lam).coords

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"the cut route called {name}")
        return call

    for name in ("_star_of_member", "star"):
        monkeypatch.setattr(binfinity, name, forbidden(name))
    for name in ("twist_ftilde", "twist_etilde"):
        monkeypatch.setattr(zcrystal, name, forbidden(name))
    made = counted_rays(monkeypatch)
    assert btilde_cut(cartan, word, lam).coords == expected
    assert made[1] == steps


# ray steps the sweep takes on each chart, the refused last step of every ray
# included: the sweep has no early stop, so the count pins its rays
SWEEP_CALLS = [(C2, W_C2, RHO2.scale(2), 179),
               (cartan_builtin("G", 2), ReducedWord((1, 2, 1, 2, 1, 2)), RHO2, 252),
               (cartan_builtin("C", 3), ReducedWord((1, 2, 1, 3, 2, 1, 3, 2, 3)), RHO3, 2139)]


@pytest.mark.parametrize("cartan,word,lam,calls", SWEEP_CALLS,
                         ids=["C2 2rho", "G2 rho", "C3 rho"])
def test_sweep_route_walks_each_ray_to_its_refusal(monkeypatch, cartan, word, lam, calls):
    expected = btilde_cut(cartan, word, lam).coords
    made = counted_rays(monkeypatch)
    assert enumerate_demazure(cartan, word, lam).coords == expected
    assert made[1] == calls


@pytest.mark.parametrize("route", [enumerate_demazure, btilde_cut], ids=["sweep", "cut"])
@pytest.mark.parametrize("cartan,word,lam", [case[:3] for case in CUT_STEPS],
                         ids=["C2 2rho", "G2 rho", "C3 rho"])
def test_each_route_scans_once_per_ray(monkeypatch, route, cartan, word, lam):
    # a ray starts at every element of every stage: the stages' sizes before
    # each letter, summed, are the rays, and each ray is one kernel scan
    stages = [len(route(cartan, ReducedWord(word.letters[:k]), lam)) for k in range(len(word))]
    made = counted_rays(monkeypatch)
    scans = counted_scans(monkeypatch)
    route(cartan, word, lam)
    assert len(scans) == made[0] == sum(stages)


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
    # the peel along a longest word is a chart: no two points of a slice merge
    b3_word = ReducedWord((1, 2, 1, 3, 2, 1, 3, 2, 3))
    for cartan, word in ((A2, W_A2), (C2, W_C2), (C2, W_C2.reversed()),
                         (cartan_builtin("G", 2), ReducedWord((1, 2, 1, 2, 1, 2))),
                         (cartan_builtin("B", 3), b3_word)):
        lam = WeightVec((1,) * cartan.rank)
        assert len(string_points(cartan, btilde_cut(cartan, word, lam))) == \
            len(enumerate_demazure(cartan, word, lam)), word


def test_string_points_reject_a_non_member_on_a_longest_word():
    # (0, 0, 1) is not in the image for 1,2,1: the exhaustive peel leaves a residue
    cut = DemazureSet(W_A2, frozenset({(0, 0, 0), (0, 0, 1)}))
    with pytest.raises(ValueError, match="residue"):
        string_points(A2, cut)


@pytest.mark.parametrize("cartan,letters", [
    (A2, (1, 2, 1)), (C2, (1, 2, 1, 2)), (cartan_builtin("G", 2), (1, 2, 1, 2, 1, 2)),
    (cartan_builtin("A", 3), (1, 2, 1, 3, 2, 1))])
def test_cut_points_of_every_proper_prefix_are_members(cartan, letters):
    # the cut lowers from zero and runs no membership check: its points are members anyway
    lam = WeightVec((1,) * cartan.rank)
    for r in range(1, len(letters)):
        word = ReducedWord(letters[:r])
        spec = SequenceSpec(cartan, word)
        cut = btilde_cut(cartan, word, lam)
        assert all(membership(spec, ZElement.from_coords(c)) for c in cut.coords), r
