"""Inequality generation: seed forms, the descent closure, ampleness."""

import pytest

from crystal_polytope.demazure import enumerate_demazure
from crystal_polytope.inequalities import (CLOSURE_ROUNDS, AffineForm, _close, ample_check,
                                           delta_forms, delta_hrep, generate_xi,
                                           lambda_form, minus_form, plus_form, seed_forms,
                                           shat, var_form)
from crystal_polytope.polytope import lattice_points
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin, rho
from crystal_polytope.zcrystal import SequenceSpec

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
SPEC_C2 = SequenceSpec(C2, ReducedWord((1, 2, 1, 2)))
RHO2 = rho(2)


def form(coeffs, lam=(0, 0), const=0):
    return AffineForm.make(coeffs, tuple(lam), const)


def test_affine_form_algebra():
    f = form({1: 2, 3: -1}, (1, 0), 5)
    assert f.coefficient(1) == 2 and f.coefficient(2) == 0 and f.coefficient(3) == -1
    assert f.eval((1, 1, 1), WeightVec((2, 0))) == 5 + 2 + 2 - 1
    assert f.constant_at(WeightVec((3, 1))) == 8
    g = f.minus(form({1: 1}), 2)
    assert g.coefficient(1) == 0
    assert f.restrict(1).coefficient(3) == 0


def test_variable_and_weight_seed_forms():
    assert var_form(SPEC_A2, 2).coefficient(2) == 1
    lf = lambda_form(SPEC_A2, 1)
    # lambda_1 minus the pairing-weighted entries before the first letter-1 slot
    assert lf.lam_coeffs == (1, 0)
    assert lf.coefficient(1) == -1
    assert lf.coefficient(2) == 0


def test_plus_and_minus_forms_walk_neighbours():
    pf = plus_form(SPEC_A2, 1)
    # a_1 + <alpha_2, h_1> a_2 + a_3 for the base word (1, 2, 1)
    assert (pf.coefficient(1), pf.coefficient(2), pf.coefficient(3)) == (1, -1, 1)
    mf = minus_form(SPEC_A2, 3)
    assert mf.coefficient(1) == 1 and mf.coefficient(2) == -1


def test_descent_leaves_zero_coefficient_positions_alone():
    psi = var_form(SPEC_A2, 2)
    assert shat(SPEC_A2, psi, 1) == psi


def test_descent_idempotence_when_slot_vanishes():
    xi = generate_xi(SPEC_A2, 3)
    for psi in xi.forms:
        for k in range(1, 4):
            once = shat(SPEC_A2, psi, k)
            if once.coefficient(k) == 0:
                assert shat(SPEC_A2, once, k) == once


def test_closure_a2_is_small_and_certified():
    xi = generate_xi(SPEC_A2, 3)
    assert xi.stabilized and xi.certified
    restricted = delta_forms(xi)
    expected = {
        form({1: 1}),
        form({1: -1}, (1, 0)),
        form({2: 1}),
        form({3: 1}),
        form({3: -1}, (0, 1)),
        form({2: 1, 3: -1}),
        form({1: 1, 2: -1}, (0, 1)),
    }
    assert set(restricted) == expected


def test_closure_c2_restricted_forms():
    xi = generate_xi(SPEC_C2, 4)
    assert xi.certified
    restricted = set(delta_forms(xi))
    assert len(restricted) == 12
    assert form({2: 2, 3: -1}) in restricted
    assert form({3: 1, 4: -2}) in restricted
    assert form({1: 1}) in restricted
    assert form({4: 1}) in restricted


def test_closure_restriction_is_window_insensitive():
    base = set(delta_forms(generate_xi(SPEC_C2, 4)))
    wider = set(delta_forms(generate_xi(SPEC_C2, 7)))
    assert base == wider


def naive_close(spec, window):
    """Every round descends every form found so far."""
    forms = {f for f in seed_forms(spec, window) if not f.is_zero()}
    for _ in range(CLOSURE_ROUNDS):
        fresh = {shat(spec, psi, k) for psi in forms for k in range(1, window + 1)}
        fresh = {f for f in fresh if not f.is_zero()} - forms
        if not fresh:
            return forms, True
        forms |= fresh
    return forms, False


@pytest.mark.parametrize("family,rank,letters", [
    ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
    ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
    ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3))])
def test_closure_descends_only_fresh_forms_to_the_same_result(family, rank, letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    for window in (len(letters), len(letters) + rank):
        assert _close(spec, window) == naive_close(spec, window)


def test_window_below_word_length_rejected():
    with pytest.raises(ValueError):
        generate_xi(SPEC_A2, 2)


def test_ample_check_golden():
    xi = generate_xi(SPEC_A2, 3)
    assert ample_check(xi, RHO2)
    assert ample_check(xi, WeightVec((0, 0)))
    assert ample_check(xi, WeightVec((3, 0)))
    xi_c = generate_xi(SPEC_C2, 4)
    assert ample_check(xi_c, RHO2)


def test_ample_check_requires_certified_closure():
    xi = generate_xi(SPEC_A2, 3)
    broken = type(xi)(spec=xi.spec, window=xi.window, forms=xi.forms,
                      stabilized=True, certified=False)
    with pytest.raises(ValueError):
        ample_check(broken, RHO2)


def test_delta_hrep_rejects_non_ample_data():
    xi = generate_xi(SPEC_A2, 3)
    poisoned = frozenset(set(xi.forms) | {form({1: 1}, (0, 0), -1)})
    broken = type(xi)(spec=xi.spec, window=xi.window, forms=poisoned,
                      stabilized=True, certified=True)
    with pytest.raises(ValueError, match="enumeration"):
        delta_hrep(broken, RHO2)


def test_every_generated_form_is_nonnegative_on_slice_points():
    for spec, cartan, word, r in ((SPEC_A2, A2, ReducedWord((1, 2, 1)), 3),
                                  (SPEC_C2, C2, ReducedWord((1, 2, 1, 2)), 4)):
        xi = generate_xi(spec, r)
        points = enumerate_demazure(cartan, word, RHO2).coords
        for psi in delta_forms(xi):
            for point in points:
                assert psi.eval(point, RHO2) >= 0, (psi, point)


def test_hrep_lattice_points_match_slice():
    xi = generate_xi(SPEC_A2, 3)
    pts = lattice_points(delta_hrep(xi, RHO2))
    crystal = enumerate_demazure(A2, ReducedWord((1, 2, 1)), RHO2)
    assert pts == crystal.sorted_coords()
