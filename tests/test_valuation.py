"""Polynomials, highest-term valuations, and the unipotent matrix model."""

import random
from fractions import Fraction

import pytest

from crystal_polytope.demazure import btilde_cut, enumerate_demazure
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin, weyl_dim_oracle
from crystal_polytope.valuation import (MultiPoly, ValuationOrder,
                                        builtin_generators, column_minors, parse_poly,
                                        products_closure, restrict_span, section_span,
                                        unipotent_product, value, value_set_of_span)
from reference import (all_products_span, all_reduced_words, chevalley_value,
                       exp_series_product, fraction_value_set, leibniz_minors)

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
W_A2 = ReducedWord((1, 2, 1))
HI = ValuationOrder.HI
TILDE = ValuationOrder.TILDE


def test_parse_and_render_round_trip():
    f = parse_poly("t1*t2 + t3^2", 3)
    assert f.terms == (((0, 0, 2), Fraction(1)), ((1, 1, 0), Fraction(1)))
    assert parse_poly("2*t1 - t1", 2) == parse_poly("t1", 2)
    assert parse_poly("1/2*t1 + 1/2*t1", 1) == parse_poly("t1", 1)
    with pytest.raises(ValueError):
        parse_poly("t5", 3)
    with pytest.raises(ValueError):
        parse_poly("x + 1", 2)
    for text in ("1/0", "t1 + 3/00*t2"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly(text, 2)


def test_poly_arithmetic():
    t1 = MultiPoly.variable(2, 1)
    t2 = MultiPoly.variable(2, 2)
    square = t1.add(t2).mul(t1.add(t2))
    assert square == parse_poly("t1^2 + 2*t1*t2 + t2^2", 2)
    assert t1.sub(t1).is_zero()
    assert square.total_degree() == 2


def test_value_golden_examples():
    f = parse_poly("t1*t2 + t3^2", 3)
    assert value(f, HI) == (-1, -1, 0)
    assert value(f, TILDE) == (-2, 0, 0)


def test_value_listing_order_is_by_variable_rank():
    # the reversed-rank order still reports exponents for t1, t2, t3 in turn
    g = parse_poly("t1^3 + t2", 3)
    assert value(g, HI) == (-3, 0, 0)
    assert value(g, TILDE) == (0, -1, 0)


def test_value_is_a_valuation():
    rng = random.Random(7)

    def rand_poly(nvars):
        terms = MultiPoly.zero(nvars)
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(nvars))
            coeff = Fraction(rng.randint(-3, 3))
            if coeff:
                terms = terms.add(MultiPoly(nvars, ((exps, coeff),)))
        return terms

    for order in (HI, TILDE):
        for _ in range(100):
            f, g = rand_poly(3), rand_poly(3)
            if f.is_zero() or g.is_zero():
                continue
            assert value(f.mul(g), order) == tuple(
                a + b for a, b in zip(value(f, order), value(g, order)))
            s = f.add(g)
            if not s.is_zero():
                key = lambda v: tuple(-x for x in (v if order is HI else v[::-1]))
                assert key(value(s, order)) <= max(key(value(f, order)),
                                                   key(value(g, order)))
    c = MultiPoly.constant(3, 5)
    f = parse_poly("t1*t3 + t2", 3)
    assert value(f.mul(c), HI) == value(f, HI)


def test_chevalley_value_agrees_with_negated_value():
    rng = random.Random(11)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        terms = []
        for _ in range(rng.randint(1, 5)):
            exps = tuple(rng.randint(0, 5) for _ in range(nvars))
            terms.append((exps, Fraction(rng.randint(1, 4))))
        f = MultiPoly.zero(nvars)
        for exps, c in terms:
            f = f.add(MultiPoly(nvars, ((exps, c),)))
        if f.is_zero():
            continue
        assert chevalley_value(f) == tuple(-x for x in value(f, HI))


def test_a2_unipotent_product_entries():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    assert mat[0][0] == MultiPoly.constant(3, 1)
    assert mat[1][0] == parse_poly("t1 + t3", 3)
    assert mat[2][0] == parse_poly("t1*t2", 3)
    assert mat[2][1] == parse_poly("t2", 3)
    assert mat[0][1].is_zero() and mat[0][2].is_zero() and mat[1][2].is_zero()


BUILTIN_CHARTS = [
    ("A", 2, (1, 2, 1)), ("A", 3, (1, 2, 1, 3, 2, 1)),
    ("A", 4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)), ("A", 4, (4, 3, 2, 1)),
    ("C", 2, (1, 2, 1, 2)), ("C", 2, (2, 1, 2, 1)),
]


@pytest.mark.parametrize("family,rank,letters", BUILTIN_CHARTS)
def test_unipotent_product_matches_the_exponential_series(family, rank, letters):
    gens = builtin_generators(cartan_builtin(family, rank))
    for r in range(1, len(letters) + 1):
        word = ReducedWord(letters[:r])
        assert unipotent_product(word, gens) == exp_series_product(word, gens), r


def test_unipotent_product_rejects_a_generator_that_does_not_square_to_zero():
    shift = ((0, 0, 0), (1, 0, 0), (0, 1, 0))  # its square is the corner unit
    with pytest.raises(ValueError):
        unipotent_product(ReducedWord((1,)), {1: shift})


def test_c2_generators_square_to_zero_blocks():
    gens = builtin_generators(C2)
    f1, f2 = gens[1], gens[2]
    assert len(f1) == 4
    # f1 hits (2,1) and (4,3); f2 hits (3,2)
    assert f1[1][0] == 1 and f1[3][2] == 1 and f2[2][1] == 1


def test_column_minors_of_the_first_column():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    levels = column_minors(mat, 1)
    assert levels[0] == {(): MultiPoly.constant(3, 1)}
    assert set(levels[1].values()) == {MultiPoly.constant(3, 1),
                                       parse_poly("t1 + t3", 3), parse_poly("t1*t2", 3)}


@pytest.mark.parametrize("family,rank,letters", [
    ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("A", 3, (1, 2, 1, 3, 2, 1)),
    ("A", 4, (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)), ("A", 4, (4, 3, 4, 2, 3, 1)),
])
def test_column_minors_equal_the_permutation_sums(family, rank, letters):
    # one full-size expansion holds every level
    mat = unipotent_product(ReducedWord(letters), builtin_generators(cartan_builtin(family, rank)))
    levels = column_minors(mat, len(mat))
    assert len(levels) == len(mat) + 1
    for d in range(1, len(mat) + 1):
        assert levels[d] == leibniz_minors(mat, d), d


def test_column_minors_of_dense_matrices_equal_the_permutation_sums():
    # unipotent products are mostly zero; dense entries exercise every sign
    rng = random.Random(7)
    for size in (2, 3, 4):
        for _ in range(5):
            mat = tuple(
                tuple(parse_poly(f"{rng.randint(-3, 3)}*t1 + {rng.randint(-3, 3)}*t2 + "
                                 f"{rng.randint(-3, 3)}", 2) for _ in range(size))
                for _ in range(size))
            for d in range(1, size + 1):
                assert column_minors(mat, d)[d] == leibniz_minors(mat, d), (mat, d)


def test_section_span_value_sets_match_crystal_slices():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    for lam in (WeightVec((1, 0)), WeightVec((0, 1)), WeightVec((1, 1))):
        span = section_span(mat, lam)
        values = value_set_of_span(span, HI)
        exps = {tuple(-x for x in v) for v in values}
        crystal = enumerate_demazure(A2, W_A2, lam).coords
        assert exps == set(crystal), lam


def _longest_type_a(rank: int) -> ReducedWord:
    return ReducedWord(tuple(x for j in range(1, rank + 1) for x in range(j, 0, -1)))


@pytest.mark.parametrize("rank,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)])
def test_section_span_counts_the_weyl_dimension_on_longest_words(rank, k):
    # on a longest word the standard monomials are a basis: one per tableau
    cartan = cartan_builtin("A", rank)
    lam = WeightVec((1,) * rank).scale(k)
    span = section_span(unipotent_product(_longest_type_a(rank), builtin_generators(cartan)), lam)
    assert len(span) == weyl_dim_oracle(cartan, lam)


@pytest.mark.parametrize("rank,k", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_section_span_builds_only_products_of_minors(rank, k):
    mat = unipotent_product(_longest_type_a(rank), builtin_generators(cartan_builtin("A", rank)))
    lam = WeightVec((1,) * rank).scale(k)
    assert set(section_span(mat, lam)) <= set(all_products_span(mat, lam))


def _same_values(span, oracle):
    return all(value_set_of_span(span, order) == value_set_of_span(oracle, order)
               for order in (HI, TILDE))


@pytest.mark.parametrize("rank,weights", [
    (2, [(1, 0), (0, 1), (1, 1), (2, 1), (2, 2)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)]),
])
def test_section_span_values_equal_every_product_on_every_word(rank, weights):
    cartan = cartan_builtin("A", rank)
    for letters in all_reduced_words(cartan):
        mat = unipotent_product(ReducedWord(letters), builtin_generators(cartan))
        for lam in map(WeightVec, weights):
            assert _same_values(section_span(mat, lam), all_products_span(mat, lam)), (letters, lam)


def test_restricted_and_closed_spans_keep_the_values_of_every_product():
    mat = unipotent_product(_longest_type_a(3), builtin_generators(cartan_builtin("A", 3)))
    rho = WeightVec((1, 1, 1))
    span, oracle = section_span(mat, rho), all_products_span(mat, rho)
    for r in range(1, 6):
        assert _same_values(restrict_span(span, r), restrict_span(oracle, r)), r
    for rank, cap in ((2, 3), (3, 2)):
        mat = unipotent_product(_longest_type_a(rank), builtin_generators(cartan_builtin("A", rank)))
        lam = WeightVec((1,) * rank)
        assert _same_values(products_closure(section_span(mat, lam), cap),
                            products_closure(all_products_span(mat, lam), cap)), rank


def test_restricted_span_matches_partial_slices():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    span = section_span(mat, WeightVec((1, 1)))
    for r in (1, 2):
        sub = restrict_span(span, r)
        values = value_set_of_span(sub, HI)
        exps = {tuple(-x for x in v) for v in values}
        crystal = enumerate_demazure(A2, ReducedWord(W_A2.letters[:r]), WeightVec((1, 1))).coords
        assert exps == set(crystal), r


@pytest.mark.parametrize("family,rank,letters,lam", [
    ("A", 2, (1, 2, 1), (1, 1)), ("A", 2, (1, 2, 1), (1, 0)), ("A", 2, (1, 2, 1), (2, 1)),
    ("A", 3, (1, 2, 1, 3, 2, 1), (1, 1, 1)), ("A", 3, (1, 2, 1, 3, 2, 1), (1, 0, 1)),
])
def test_prefix_span_values_equal_the_restricted_span(family, rank, letters, lam):
    # t_k = 0 beyond the prefix turns the word's product into the prefix's own
    gens = builtin_generators(cartan_builtin(family, rank))
    weight = WeightVec(lam)
    span = section_span(unipotent_product(ReducedWord(letters), gens), weight)
    for r in range(1, len(letters)):
        own = section_span(unipotent_product(ReducedWord(letters[:r]), gens), weight)
        assert value_set_of_span(own, HI) == \
            value_set_of_span(restrict_span(span, r), HI), r


def test_products_closure_small():
    t1 = parse_poly("t1", 1)
    closure = products_closure([t1], 2)
    assert set(closure) == {MultiPoly.constant(1, 1),
                            t1, parse_poly("t1^2", 1)}
    # degree-zero generators are dropped: the empty product already covers them
    assert set(products_closure([MultiPoly.constant(1, 5), t1], 2)) == set(closure)


def test_value_set_counts_independent_leading_terms():
    span = [parse_poly("t1", 2), parse_poly("t1 + t2", 2)]
    assert value_set_of_span(span, HI) == frozenset({(-1, 0), (0, -1)})
    dependent = [parse_poly("t1", 2), parse_poly("2*t1", 2)]
    assert value_set_of_span(dependent, HI) == frozenset({(-1, 0)})


def test_value_set_equals_the_fraction_elimination_on_random_spans():
    # few monomials force reductions; leading coefficients other than +-1 take
    # both reduction steps, and parsed rationals bring Fraction coefficients
    rng = random.Random(26)
    coeffs = [c for c in range(-6, 7) if c]

    def mono(e):
        return "*".join(f"t{j + 1}^{x}" for j, x in enumerate(e) if x) or "1"

    for _ in range(300):
        nvars = rng.randint(1, 3)
        pool = sorted({tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(6)})
        span = []
        for _ in range(rng.randint(1, 8)):
            support = rng.sample(pool, rng.randint(1, len(pool)))
            kind = rng.random()
            if kind < 0.3:
                text = " + ".join(f"{rng.choice(coeffs)}/{rng.randint(1, 4)}*{mono(e)}"
                                  for e in support)
                span.append(parse_poly(text, nvars))
            elif kind < 0.5 and len(span) >= 2:
                f, g = rng.sample(span, 2)
                span.append(f.scale(rng.choice(coeffs)).add(g.scale(rng.choice(coeffs))))
            else:
                terms = tuple((e, rng.choice(coeffs)) for e in sorted(support))
                span.append(MultiPoly(nvars, terms))
        for order in (HI, TILDE):
            assert value_set_of_span(span, order) == fraction_value_set(span, order), span


def test_span_path_keeps_int_coefficients():
    mat = unipotent_product(_longest_type_a(3), builtin_generators(cartan_builtin("A", 3)))
    span = section_span(mat, WeightVec((1, 2, 1)))
    for polys in (span, restrict_span(span, 4)):
        assert polys and {type(c) for f in polys for _, c in f.terms} == {int}


def test_a4_rho_value_set_equals_the_cut():
    cartan, word, rho = cartan_builtin("A", 4), _longest_type_a(4), WeightVec((1, 1, 1, 1))
    span = section_span(unipotent_product(word, builtin_generators(cartan)), rho)
    exps = {tuple(-x for x in v) for v in value_set_of_span(span, HI)}
    assert len(exps) == 1024 and exps == set(btilde_cut(cartan, word, rho).coords)
