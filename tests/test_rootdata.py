"""Root data: Cartan matrices, reduced words, and the dimension oracle."""

import itertools

import pytest

from crystal_polytope.rootdata import (CartanMatrix, ReducedWord, WeightVec,
                                       all_reduced_words_longest, cartan_builtin,
                                       fundamental, is_reduced, num_positive_roots,
                                       positive_roots, reflect, rho, weight_after_word,
                                       weyl_dim_oracle)

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)


def test_builtin_shapes():
    assert A2.rows == ((2, -1), (-1, 2))
    assert C2.rows == ((2, -2), (-1, 2))
    assert cartan_builtin("B", 3).rank == 3
    assert cartan_builtin("G", 2).rank == 2
    with pytest.raises(ValueError):
        cartan_builtin("E", 4)


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
        v = fundamental(cartan.rank, j)
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
    assert weyl_dim_oracle(A2, fundamental(2, 1)) == 3
    assert weyl_dim_oracle(A2, fundamental(2, 2)) == 3
    assert weyl_dim_oracle(A2, rho(2)) == 8
    assert weyl_dim_oracle(A2, rho(2).scale(2)) == 27
    assert weyl_dim_oracle(C2, fundamental(2, 1)) == 4
    assert weyl_dim_oracle(C2, fundamental(2, 2)) == 5
    assert weyl_dim_oracle(C2, rho(2)) == 16
    assert weyl_dim_oracle(C2, WeightVec((2, 0))) == 10
    assert weyl_dim_oracle(C2, WeightVec((0, 2))) == 14
    assert weyl_dim_oracle(C2, rho(2).scale(2)) == 81
    assert weyl_dim_oracle(cartan_builtin("B", 3), fundamental(3, 1)) == 7
    assert weyl_dim_oracle(cartan_builtin("B", 3), fundamental(3, 3)) == 8
    assert weyl_dim_oracle(cartan_builtin("G", 2), fundamental(2, 1)) == 7
    assert weyl_dim_oracle(cartan_builtin("G", 2), fundamental(2, 2)) == 14
    assert weyl_dim_oracle(A2, WeightVec((0, 0))) == 1


def test_weight_after_longest_word_negates_rho():
    assert weight_after_word(A2, ReducedWord((1, 2, 1)), rho(2)).coords == (-1, -1)
    assert weight_after_word(C2, ReducedWord((1, 2, 1, 2)), rho(2)).coords == (-1, -1)


def test_weight_vec_helpers():
    lam = WeightVec((1, 2))
    assert lam.is_dominant() and lam[1] == 1 and lam[2] == 2
    assert lam.scale(3).coords == (3, 6)
    assert lam.add(WeightVec((1, 0))).coords == (2, 2)
    assert not WeightVec((-1, 0)).is_dominant()


def test_reduced_word_iteration_order():
    word = ReducedWord((1, 2, 1))
    assert list(word) == [1, 2, 1]
    assert word[1] == 1 and word[2] == 2
    assert word.reversed().letters == (1, 2, 1)
    assert ReducedWord((1, 2, 1, 2)).reversed().letters == (2, 1, 2, 1)
