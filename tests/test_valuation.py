"""Polynomials, highest-term valuations, and the unipotent matrix model."""

import random
from fractions import Fraction

import pytest

from crystal_polytope.demazure import enumerate_demazure
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin, fundamental, rho
from crystal_polytope.valuation import (MultiPoly, PolyMatrix, ValuationOrder,
                                        builtin_generators, chevalley_value,
                                        column_minors, parse_poly, products_closure,
                                        restrict_span, section_span,
                                        unipotent_product, value, value_quot,
                                        value_set_of_span)

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


def test_poly_arithmetic():
    t1 = MultiPoly.variable(2, 1)
    t2 = MultiPoly.variable(2, 2)
    square = t1.add(t2).mul(t1.add(t2))
    assert square == parse_poly("t1^2 + 2*t1*t2 + t2^2", 2)
    assert t1.sub(t1).is_zero()
    assert square.diff(1) == parse_poly("2*t1 + 2*t2", 2)
    assert square.subs_zero(2) == parse_poly("t1^2", 2)
    assert square.total_degree() == 2 and square.var_degree(2) == 2


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


def test_value_quot_subtracts():
    num = parse_poly("t1", 3)
    den = parse_poly("t2", 3)
    assert value_quot(num, den, HI) == (-1, 1, 0)


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
    assert mat.at(1, 1) == MultiPoly.constant(3, 1)
    assert mat.at(2, 1) == parse_poly("t1 + t3", 3)
    assert mat.at(3, 1) == parse_poly("t1*t2", 3)
    assert mat.at(3, 2) == parse_poly("t2", 3)
    assert mat.at(1, 2).is_zero() and mat.at(1, 3).is_zero() and mat.at(2, 3).is_zero()


def test_c2_generators_square_to_zero_blocks():
    gens = builtin_generators(C2)
    f1, f2 = gens[1], gens[2]
    assert len(f1) == 4
    # f1 hits (2,1) and (4,3); f2 hits (3,2)
    assert f1[1][0] == 1 and f1[3][2] == 1 and f2[2][1] == 1


def test_column_minors_of_the_first_column():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    minors = column_minors(mat, 1)
    assert set(minors) == {MultiPoly.constant(3, 1),
                           parse_poly("t1 + t3", 3), parse_poly("t1*t2", 3)}


def test_section_span_value_sets_match_crystal_slices():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    for lam in (fundamental(2, 1), fundamental(2, 2), rho(2)):
        span = section_span(mat, lam)
        values = value_set_of_span(span, HI)
        exps = {tuple(-x for x in v) for v in values}
        crystal = enumerate_demazure(A2, W_A2, lam).coords
        assert exps == set(crystal), lam


def test_restricted_span_matches_partial_slices():
    mat = unipotent_product(W_A2, builtin_generators(A2))
    span = section_span(mat, rho(2))
    for r in (1, 2):
        sub = restrict_span(span, r)
        values = value_set_of_span(sub, HI)
        exps = {tuple(-x for x in v) for v in values}
        crystal = enumerate_demazure(A2, ReducedWord(W_A2.letters[:r]), rho(2)).coords
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


def test_poly_matrix_multiplication():
    one = MultiPoly.constant(1, 1)
    zero = MultiPoly.zero(1)
    t = parse_poly("t1", 1)
    m = PolyMatrix(((one, zero), (t, one)))
    sq = m.mul(m)
    assert sq.at(2, 1) == parse_poly("2*t1", 1)
