"""Root data: Cartan matrices, reduced words, and the dimension oracle."""

import itertools

import pytest

from crystal_polytope.rootdata import (CartanMatrix, ReducedWord, WeightVec, cartan_builtin,
                                       is_reduced, num_positive_roots, positive_roots,
                                       weyl_dim_oracle)
from reference import all_reduced_words_longest, reflect, weyl_dim_symmetrized

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)


def test_builtin_shapes():
    assert A2.rows == ((2, -1), (-1, 2))
    assert C2.rows == ((2, -2), (-1, 2))
    assert cartan_builtin("B", 3).rank == 3
    assert cartan_builtin("G", 2).rank == 2
    with pytest.raises(ValueError):
        cartan_builtin("E", 4)


def test_builtin_matrices_are_built_once():
    assert cartan_builtin("A", 3) is cartan_builtin("A", 3)


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanMatrix(((2, 0), (-1, 2)))  # zero must be symmetric
    with pytest.raises(ValueError):
        CartanMatrix(((1, -1), (-1, 2)))  # diagonal must be 2


def test_symmetrizer_defining_identity():
    for cartan in (A2, C2, cartan_builtin("B", 3), cartan_builtin("G", 2),
                   cartan_builtin("D", 4), cartan_builtin("F", 4)):
        d = cartan.symmetrizer()
        assert d is not None and all(di >= 1 for di in d)
        for i in cartan.index_set():
            for j in cartan.index_set():
                assert d[i - 1] * cartan.pairing(i, j) == d[j - 1] * cartan.pairing(j, i)


def test_symmetrizer_c2_value():
    assert C2.symmetrizer() == (1, 2)
    assert A2.symmetrizer() == (1, 1)


def test_positive_root_counts():
    assert num_positive_roots(A2) == 3
    assert num_positive_roots(C2) == 4
    assert num_positive_roots(cartan_builtin("A", 3)) == 6
    assert num_positive_roots(cartan_builtin("B", 3)) == 9
    assert num_positive_roots(cartan_builtin("G", 2)) == 6
    assert len(positive_roots(C2)) == 4


def _word_matrix(cartan, letters):
    """The word's action on the weight lattice, as a tuple of basis images."""
    cols = []
    for j in cartan.index_set():
        v = WeightVec(tuple(int(k == j) for k in cartan.index_set()))
        for i in letters:
            v = reflect(cartan, i, v)
        cols.append(v.coords)
    return tuple(cols)


def _brute_reduced(cartan, letters):
    """A word is reduced iff no strictly shorter word gives the same element."""
    target = _word_matrix(cartan, letters)
    for short in range(len(letters)):
        for trial in itertools.product(cartan.index_set(), repeat=short):
            if _word_matrix(cartan, trial) == target:
                return False
    return True


def test_is_reduced_against_brute_force():
    for cartan in (A2, C2):
        for length in range(1, num_positive_roots(cartan) + 1):
            for letters in itertools.product(cartan.index_set(), repeat=length):
                assert is_reduced(cartan, letters) == _brute_reduced(cartan, letters), letters


def test_is_reduced_beyond_longest():
    assert not is_reduced(A2, (1, 2, 1, 2))
    assert not is_reduced(C2, (1, 2, 1, 2, 1))


def test_all_reduced_words_longest():
    assert sorted(all_reduced_words_longest(A2)) == [(1, 2, 1), (2, 1, 2)]
    assert sorted(all_reduced_words_longest(C2)) == [(1, 2, 1, 2), (2, 1, 2, 1)]
    # the longest element of the rank-3 symmetric group case has 16 reduced words
    assert len(all_reduced_words_longest(cartan_builtin("A", 3))) == 16


def test_weyl_dim_oracle_golden():
    assert weyl_dim_oracle(A2, WeightVec((1, 0))) == 3
    assert weyl_dim_oracle(A2, WeightVec((0, 1))) == 3
    assert weyl_dim_oracle(A2, WeightVec((1, 1))) == 8
    assert weyl_dim_oracle(A2, WeightVec((1, 1)).scale(2)) == 27
    assert weyl_dim_oracle(C2, WeightVec((1, 0))) == 4
    assert weyl_dim_oracle(C2, WeightVec((0, 1))) == 5
    assert weyl_dim_oracle(C2, WeightVec((1, 1))) == 16
    assert weyl_dim_oracle(C2, WeightVec((2, 0))) == 10
    assert weyl_dim_oracle(C2, WeightVec((0, 2))) == 14
    assert weyl_dim_oracle(C2, WeightVec((1, 1)).scale(2)) == 81
    assert weyl_dim_oracle(cartan_builtin("B", 3), WeightVec((1, 0, 0))) == 7
    assert weyl_dim_oracle(cartan_builtin("B", 3), WeightVec((0, 0, 1))) == 8
    assert weyl_dim_oracle(cartan_builtin("G", 2), WeightVec((1, 0))) == 7
    assert weyl_dim_oracle(cartan_builtin("G", 2), WeightVec((0, 1))) == 14
    assert weyl_dim_oracle(A2, WeightVec((0, 0))) == 1


@pytest.mark.parametrize("family,rank,i,dim", [
    ("F", 4, 1, 52), ("F", 4, 2, 1274), ("F", 4, 3, 273), ("F", 4, 4, 26),
    ("E", 6, 1, 27), ("E", 6, 2, 78), ("E", 7, 1, 133), ("E", 7, 7, 56),
    ("E", 8, 8, 248), ("D", 5, 1, 10), ("D", 5, 5, 16), ("B", 4, 4, 16),
])
def test_fundamental_dimensions_in_bourbaki_numbering(family, rank, i, dim):
    lam = WeightVec(tuple(int(k == i) for k in range(1, rank + 1)))
    assert weyl_dim_oracle(cartan_builtin(family, rank), lam) == dim


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
    ("C", 4), ("D", 4), ("G", 2), ("F", 4), ("E", 6),
])
def test_weyl_dim_oracle_matches_the_symmetrized_formula(family, rank):
    cartan = cartan_builtin(family, rank)
    for coords in itertools.product(range(3), repeat=rank):
        lam = WeightVec(coords)
        assert weyl_dim_oracle(cartan, lam) == weyl_dim_symmetrized(cartan, lam), coords


def test_weight_vec_helpers():
    lam = WeightVec((1, 2))
    assert lam.is_dominant() and lam[1] == 1 and lam[2] == 2
    assert lam.scale(3).coords == (3, 6)
    assert not WeightVec((-1, 0)).is_dominant()


def test_reduced_word_iteration_order():
    word = ReducedWord((1, 2, 1))
    assert list(word) == [1, 2, 1]
    assert word[1] == 1 and word[2] == 2
    assert word.reversed().letters == (1, 2, 1)
    assert ReducedWord((1, 2, 1, 2)).reversed().letters == (2, 1, 2, 1)
