"""Inequality generation: seed forms, the descent closure, ampleness."""

import dataclasses

import pytest

import reference
from crystal_polytope import inequalities
from crystal_polytope.demazure import enumerate_demazure
from crystal_polytope.inequalities import (AffineForm, _close, ample_check, delta_hrep,
                                           delta_system, descent_templates, generate_xi, shat)
from crystal_polytope.polytope import lattice_points
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin
from crystal_polytope.zcrystal import SequenceSpec

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
SPEC_C2 = SequenceSpec(C2, ReducedWord((1, 2, 1, 2)))
RHO2 = WeightVec((1, 1))


def form(coeffs, lam=(0, 0)):
    return AffineForm.make(coeffs, tuple(lam))


def test_affine_form_algebra():
    f = form({1: 2, 3: -1}, (1, 0))
    assert f.coefficient(1) == 2 and f.coefficient(2) == 0 and f.coefficient(3) == -1
    assert f.row(3) == (2, 0, -1) and f.row(2) == (2, 0) and f.row(4) == (2, 0, -1, 0)
    assert f.constant_at(WeightVec((3, 1))) == 3
    g = f.minus(form({1: 1}), 2)
    assert g.coefficient(1) == 0
    assert f.restrict(1).coefficient(3) == 0


def test_variable_and_weight_seed_forms():
    _, seeds = descent_templates(SPEC_A2, 3)
    assert seeds[:3] == [form({k: 1}) for k in (1, 2, 3)] and len(seeds) == 5
    [lf] = [f for f in seeds if f.lam_coeffs == (1, 0)]
    # lambda_1 minus the pairing-weighted entries before the first letter-1 slot
    assert lf.coefficient(1) == -1
    assert lf.coefficient(2) == 0


def test_plus_and_minus_forms_walk_neighbours():
    table, _ = descent_templates(SPEC_A2, 3)
    pf = table[0][0]  # the pair starting at position 1
    # a_1 + <alpha_2, h_1> a_2 + a_3 for the base word (1, 2, 1)
    assert (pf.coefficient(1), pf.coefficient(2), pf.coefficient(3)) == (1, -1, 1)
    mf = table[2][1]  # the pair ending at position 3
    assert mf == pf


def test_descent_leaves_zero_coefficient_positions_alone():
    table, _ = descent_templates(SPEC_A2, 3)
    psi = form({2: 1})
    assert shat(table, psi, 1) == psi


def test_descent_idempotence_when_slot_vanishes():
    xi = generate_xi(SPEC_A2, 3)
    table, _ = descent_templates(SPEC_A2, 3)
    for psi in xi.forms:
        for k in range(1, 4):
            once = shat(table, psi, k)
            if once.coefficient(k) == 0:
                assert shat(table, once, k) == once


def test_closure_a2_is_small_and_certified():
    xi = generate_xi(SPEC_A2, 3)
    assert xi.certified
    restricted = xi.delta
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
    restricted = set(xi.delta)
    assert len(restricted) == 12
    assert form({2: 2, 3: -1}) in restricted
    assert form({3: 1, 4: -2}) in restricted
    assert form({1: 1}) in restricted
    assert form({4: 1}) in restricted


def test_closure_restriction_is_window_insensitive():
    base = set(generate_xi(SPEC_C2, 4).delta)
    wider = set(generate_xi(SPEC_C2, 7).delta)
    assert base == wider


def naive_close(spec, window):
    """Every round descends every form found so far, until a round finds none."""
    table, seeds = descent_templates(spec, window)
    forms = {f for f in seeds if not f.is_zero()}
    while True:
        fresh = {shat(table, psi, k) for psi in forms for k in range(1, window + 1)}
        fresh = {f for f in fresh if not f.is_zero()} - forms
        if not fresh:
            return forms
        forms |= fresh


CHARTS = [
    ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
    ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
    ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3))]


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_closure_descends_only_fresh_forms_to_the_same_result(family, rank, letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    for window in (len(letters), len(letters) + rank):
        assert _close(spec, window) == naive_close(spec, window)


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_closure_descends_only_at_nonzero_coefficients(monkeypatch, family, rank, letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    seen = []

    def checked(table, psi, k):
        seen.append(psi.coefficient(k))
        return shat(table, psi, k)

    monkeypatch.setattr(inequalities, "shat", checked)
    generate_xi(spec, len(letters))
    assert seen and 0 not in seen


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_delta_is_the_sorted_restriction_of_the_closure(family, rank, letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    r = len(letters)
    for window in (r, r + rank):
        xi = generate_xi(spec, window)
        restricted = {f.restrict(r) for f in xi.forms} - {AffineForm.make({}, (0,) * rank)}
        assert xi.delta == tuple(sorted(restricted))


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_ample_check_on_delta_matches_every_closure_form(family, rank, letters):
    # a restriction keeps the weight coefficients, and a form restricted to zero
    # has constant 0, so the delta forms give the verdict of the whole closure
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    for window in (len(letters), len(letters) + 2):
        xi = generate_xi(spec, window)
        for lam in ((0,) * rank, (1,) * rank, (2,) + (0,) * (rank - 1),
                    (0,) * (rank - 1) + (3,)):
            weight = WeightVec(lam)
            assert ample_check(xi, weight) == (
                xi.certified and all(f.constant_at(weight) >= 0 for f in xi.forms))


def test_closure_past_the_form_cap_is_refused(monkeypatch):
    assert inequalities.CLOSURE_FORMS == 20_000
    monkeypatch.setattr(inequalities, "CLOSURE_FORMS", 10)
    with pytest.raises(ValueError, match=r"word \[1, 2, 1, 2\] at window 4 passed 10 forms"):
        generate_xi(SPEC_C2, 4)


def test_window_past_the_form_cap_is_refused_before_any_template(monkeypatch):
    # window + rank seeds, and the first round adds one: the cap must refuse these
    def no_templates(spec, window):
        raise AssertionError(f"templates built at window {window}")

    monkeypatch.setattr(inequalities, "descent_templates", no_templates)
    cap = inequalities.CLOSURE_FORMS
    for window in (cap - 2, cap, 10 ** 9):
        with pytest.raises(ValueError, match=rf"word \[1, 2, 1\] at window {window} passed {cap} forms"):
            generate_xi(SPEC_A2, window)
    with pytest.raises(AssertionError, match=f"templates built at window {cap - 3}"):
        generate_xi(SPEC_A2, cap - 3)


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_single_template_matches_the_two_template_descent(family, rank, letters):
    cartan = cartan_builtin(family, rank)
    spec = SequenceSpec(cartan, ReducedWord(letters))
    for window in (len(letters), len(letters) + rank):
        table, seeds = descent_templates(spec, window)
        caps = [reference.lambda_form(spec, i) for i in cartan.index_set()]
        assert sorted(seeds[window:]) == sorted(caps)
        for k in range(1, window + 1):
            assert table[k - 1] == (reference.plus_form(spec, k), reference.minus_form(spec, k))
        for psi in generate_xi(spec, window).forms:
            for k in range(1, window + 1):
                assert shat(table, psi, k) == reference.descent(spec, psi, k), (psi, k)


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_closure_matches_one_built_on_the_reference_templates(monkeypatch, family, rank,
                                                              letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    for window in (len(letters), len(letters) + rank):
        xi = generate_xi(spec, window)
        with monkeypatch.context() as m:
            m.setattr(inequalities, "descent_templates", reference.descent_table)
            ref = generate_xi(spec, window)
        assert (xi.forms, xi.certified) == (ref.forms, ref.certified)


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_one_pass_templates_match_the_reference_on_every_reduced_word(family):
    # every window position has a pair-starting template: the pass reads rank
    # positions past the window, and every tail period holds each letter once
    cartan = cartan_builtin(family, 3)
    for letters in reference.all_reduced_words_longest(cartan):
        spec = SequenceSpec(cartan, ReducedWord(letters))
        for window in range(len(letters), len(letters) + 4):
            table, seeds = descent_templates(spec, window)
            ref_table, ref_seeds = reference.descent_table(spec, window)
            assert len(table) == window and None not in (start for start, _ in table)
            assert table == ref_table, (letters, window)
            assert sorted(seeds) == sorted(ref_seeds), (letters, window)


@pytest.mark.parametrize("family,rank,letters", CHARTS)
def test_one_template_pass_per_closure(monkeypatch, family, rank, letters):
    spec = SequenceSpec(cartan_builtin(family, rank), ReducedWord(letters))
    window = len(letters) + rank
    passes = []

    def counted(spec, window):
        passes.append(window)
        return descent_templates(spec, window)

    def no_lookup(self, k):
        raise AssertionError("the closure reads letters from the table pass only")

    monkeypatch.setattr(inequalities, "descent_templates", counted)
    monkeypatch.setattr(SequenceSpec, "letter", no_lookup)
    xi = generate_xi(spec, window)
    assert xi.certified and passes == [window, window + rank]


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


def test_ample_check_is_false_on_an_uncertified_closure():
    xi = generate_xi(SPEC_A2, 3)
    broken = dataclasses.replace(xi, certified=False)
    assert ample_check(xi, RHO2) and not ample_check(broken, RHO2)
    with pytest.raises(ValueError, match="certified closure"):
        delta_hrep(broken, RHO2)


def test_delta_hrep_rejects_non_ample_data():
    xi = generate_xi(SPEC_A2, 3)
    poisoned = tuple(sorted(set(xi.delta) | {form({1: 1}, (-1, 0))}))  # constant -1 at rho
    broken = dataclasses.replace(xi, delta=poisoned)
    assert not ample_check(broken, RHO2)
    with pytest.raises(ValueError, match="enumeration"):
        delta_hrep(broken, RHO2)


def test_delta_system_instantiates_each_delta_form_at_the_weight():
    xi = generate_xi(SPEC_C2, 4)
    for lam in (RHO2, WeightVec((3, 1))):
        system = delta_system(xi, lam)
        assert system.dim == 4
        assert system.rows == tuple(
            (tuple(f.coefficient(p) for p in range(1, 5)), f.constant_at(lam))
            for f in xi.delta)
    assert delta_hrep(xi, RHO2) == delta_system(xi, RHO2)


def test_every_generated_form_is_nonnegative_on_slice_points():
    for spec, cartan, word, r in ((SPEC_A2, A2, ReducedWord((1, 2, 1)), 3),
                                  (SPEC_C2, C2, ReducedWord((1, 2, 1, 2)), 4)):
        xi = generate_xi(spec, r)
        points = enumerate_demazure(cartan, word, RHO2).coords
        for psi in xi.delta:
            for point in points:
                value = psi.constant_at(RHO2) + sum(c * point[p - 1] for p, c in psi.coeffs)
                assert value >= 0, (psi, point)


def test_hrep_lattice_points_match_slice():
    xi = generate_xi(SPEC_A2, 3)
    pts = lattice_points(delta_hrep(xi, RHO2))
    crystal = enumerate_demazure(A2, ReducedWord((1, 2, 1)), RHO2)
    assert pts == crystal.sorted_coords()
