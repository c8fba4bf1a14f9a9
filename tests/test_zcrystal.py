"""Sequence crystal: local data, operators, and the weight-twisted variant."""

from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin
from crystal_polytope import zcrystal
from crystal_polytope.zcrystal import (SequenceSpec, ZElement, etilde, etilde_max, ftilde,
                                       ftilde_ray, ftilde_run, letter_max, twist_etilde,
                                       twist_ftilde)
from reference import eps, lowering_step, phi, raising_step, sigma_k, twisted_statistics, wt

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
SPEC_C2 = SequenceSpec(C2, ReducedWord((1, 2, 1, 2)))


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec(A2, ReducedWord((1, 1, 2)))  # adjacent repeat
    with pytest.raises(ValueError):
        SequenceSpec(A2, ReducedWord((1, 3)))  # letter out of range


def test_tail_letters_cover_every_index():
    seen = {SPEC_A2.letter(k) for k in range(1, 20)}
    assert seen == {1, 2}
    for k in range(1, 19):
        assert SPEC_A2.letter(k) != SPEC_A2.letter(k + 1)


def test_sigma_and_eps_by_hand():
    # base word (1, 2, 1); x = (1, 1, 0) has sigma_1 = 1 - 1 = 0, sigma_2 = 1
    x = ZElement.from_coords((1, 1, 0))
    assert sigma_k(SPEC_A2, x, 1) == 0
    assert sigma_k(SPEC_A2, x, 2) == 1
    assert eps(SPEC_A2, x, 1) == 0
    assert eps(SPEC_A2, x, 2) == 1


def test_lowering_from_zero_walks_the_word():
    zero = ZElement.zero()
    assert ftilde(SPEC_A2, zero, 1).coords(3) == (1, 0, 0)
    assert ftilde(SPEC_A2, zero, 2).coords(3) == (0, 1, 0)
    one = ftilde(SPEC_A2, zero, 1)
    assert ftilde(SPEC_A2, one, 1).coords(3) == (2, 0, 0)
    assert ftilde(SPEC_A2, one, 2).coords(3) == (1, 1, 0)
    two = ftilde(SPEC_A2, ftilde(SPEC_A2, zero, 2), 1)
    assert two.coords(3) == (0, 1, 1)


def test_raising_null_at_the_top():
    x = ZElement.from_coords((1, 1, 0))
    assert etilde(SPEC_A2, x, 1) is None  # eps_1 = 0
    assert etilde(SPEC_A2, x, 2).coords(3) == (1, 0, 0)


def test_etilde_max_counts():
    x = ZElement.from_coords((2, 0, 0))
    top, count = etilde_max(SPEC_A2, x, 1)
    assert count == eps(SPEC_A2, x, 1) == 2
    assert top.is_zero()
    # a letter-2 box shields one of the letter-1 boxes: (2,1,0) has eps_1 = 1
    assert eps(SPEC_A2, ZElement.from_coords((2, 1, 0)), 1) == 1


def test_weight_accumulates_negated_roots():
    # one box in a letter-1 slot and one in a letter-2 slot: wt = -(alpha_1 + alpha_2)
    x = ZElement.from_coords((1, 1, 0))
    assert wt(SPEC_A2, x) == (-1, -1)
    assert wt(SPEC_A2, ZElement.from_coords((1, 0, 1))) == (-2, 0)


BUILTINS = [cartan_builtin("A", 2), cartan_builtin("A", 3),
            cartan_builtin("C", 2), cartan_builtin("B", 2), cartan_builtin("G", 2)]


@st.composite
def spec_point_letter(draw):
    cartan = draw(st.sampled_from(BUILTINS))
    length = draw(st.integers(min_value=1, max_value=6))
    letters = [draw(st.integers(1, cartan.rank))]
    for _ in range(length - 1):
        nxt = draw(st.integers(1, cartan.rank))
        if nxt == letters[-1]:
            nxt = 1 + (nxt % cartan.rank)
        if nxt == letters[-1]:
            continue
        letters.append(nxt)
    spec = SequenceSpec(cartan, ReducedWord(tuple(letters)))
    width = draw(st.integers(1, 8))
    coords = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width))
    x = ZElement.from_coords(tuple(coords))
    i = draw(st.integers(1, cartan.rank))
    return spec, x, i


@settings(max_examples=150, deadline=None)
@given(spec_point_letter())
def test_axiom_phi_eps_weight(data):
    # the kernel's one scan reads phi_i = eps_i + <h_i, wt x> of the oracles:
    # the twisted lowering moves x exactly at the caps above -phi_i
    spec, x, i = data
    assert twist_ftilde(spec, x, i, 1 - phi(spec, x, i)) is not None
    assert twist_ftilde(spec, x, i, -phi(spec, x, i)) is None


def shifted(root: tuple, i: int, delta: int) -> tuple:
    """Root coefficients plus delta times the i-th simple root."""
    return tuple(c + delta * (j == i) for j, c in enumerate(root, 1))


@settings(max_examples=150, deadline=None)
@given(spec_point_letter())
def test_axiom_raising_shifts(data):
    spec, x, i = data
    raised = etilde(spec, x, i)
    assert (raised is None) == (eps(spec, x, i) == 0)
    if raised is not None:
        assert wt(spec, raised) == shifted(wt(spec, x), i, +1)
        assert eps(spec, raised, i) == eps(spec, x, i) - 1
        assert phi(spec, raised, i) == phi(spec, x, i) + 1
        assert ftilde(spec, raised, i) == x


@settings(max_examples=150, deadline=None)
@given(spec_point_letter())
def test_axiom_lowering_shifts(data):
    spec, x, i = data
    lowered = ftilde(spec, x, i)
    assert wt(spec, lowered) == shifted(wt(spec, x), i, -1)
    assert eps(spec, lowered, i) == eps(spec, x, i) + 1
    assert phi(spec, lowered, i) == phi(spec, x, i) - 1
    assert etilde(spec, lowered, i) == x


@settings(max_examples=150, deadline=None)
@given(spec_point_letter(), st.integers(0, 3), st.integers(0, 3))
def test_twist_tensor_formulas(data, l1, l2):
    # the tensor rule's statistics obey phi = eps + wt; the operators route by
    # the same rule: the body moves when its phi beats (lowering) or meets
    # (raising) the one-point factor's eps, -lam_i, and otherwise the factor
    # takes the step and kills it
    spec, x, i = data
    lam = WeightVec((l1, l2) + (1,) * (spec.cartan.rank - 2))
    twisted_weight, twisted_eps, twisted_phi = twisted_statistics(spec, x, i, lam)
    assert twisted_phi == twisted_eps + twisted_weight[i]
    body_phi = phi(spec, x, i)
    assert twist_ftilde(spec, x, i, lam[i]) == (ftilde(spec, x, i) if body_phi > -lam[i] else None)
    assert twist_etilde(spec, x, i, lam[i]) == (etilde(spec, x, i) if body_phi >= -lam[i] else None)


@settings(max_examples=150, deadline=None)
@given(spec_point_letter(), st.integers(0, 3), st.integers(0, 3))
def test_twist_operator_pairing(data, l1, l2):
    spec, x, i = data
    lam = WeightVec((l1, l2) + (1,) * (spec.cartan.rank - 2))
    weight, eps_x, phi_x = twisted_statistics(spec, x, i, lam)
    lowered = twist_ftilde(spec, x, i, lam[i])
    assert (lowered is None) == (phi_x == 0)
    if lowered is not None:
        assert twist_etilde(spec, lowered, i, lam[i]) == x
        weight_down, eps_down, phi_down = twisted_statistics(spec, lowered, i, lam)
        assert weight_down.coords == tuple(
            weight[j] - spec.cartan.pairing(j, i)
            for j in spec.cartan.index_set())
        assert eps_down == eps_x + 1
        assert phi_down == phi_x - 1
    raised = twist_etilde(spec, x, i, lam[i])
    if raised is not None:
        assert twist_ftilde(spec, raised, i, lam[i]) == x
        _, eps_up, phi_up = twisted_statistics(spec, raised, i, lam)
        assert eps_up == eps_x - 1
        assert phi_up == phi_x + 1


def tail_by_steps(base, n, count):
    """The tail rule one step at a time: cycle 1..n, skipping a repeat of the predecessor."""
    out = []
    prev = base[-1] if base else 0
    cycle = 0
    while len(out) < count:
        cand = cycle % n + 1
        cycle += 1
        if cand != prev:
            out.append(cand)
            prev = cand
    return out


@st.composite
def base_word(draw):
    """Rank 2-4 and a base word ending in any letter, or the empty word (last == 0)."""
    n = draw(st.integers(2, 4))
    last = draw(st.integers(0, n))
    letters = []
    if last:
        for _ in range(draw(st.integers(0, 5))):
            nxt = draw(st.integers(1, n))
            if not letters or nxt != letters[-1]:
                letters.append(nxt)
        if letters and letters[-1] == last:
            letters.pop()
        letters.append(last)
    return n, tuple(letters)


@settings(max_examples=150, deadline=None)
@given(base_word())
def test_letter_matches_the_tail_rule_step_by_step(data):
    n, base = data
    spec = SequenceSpec(cartan_builtin("A", n), ReducedWord(base))
    expected = list(base) + tail_by_steps(base, n, 60)
    assert [spec.letter(k) for k in range(1, 61)] == expected[:60]


@settings(max_examples=150, deadline=None)
@given(spec_point_letter())
def test_letter_max_is_the_brute_force_max_of_sigma(data):
    # the attaining positions are listed in the support only: the zero tail
    # attains a zero max at infinitely many positions
    spec, x, i = data
    sigmas = {k: sigma_k(spec, x, k) for k in range(1, x.support_max() + 1)
              if spec.letter(k) == i}
    best = max([0, *sigmas.values()])
    assert letter_max(spec, x, i) == (best, [k for k, s in sigmas.items() if s == best])


LADDER_SPECS = [
    SequenceSpec(cartan_builtin(family, rank), ReducedWord(word)) for family, rank, word in (
        ("A", 2, (1, 2, 1)), ("C", 2, (1, 2, 1, 2)), ("G", 2, (1, 2, 1, 2, 1, 2)),
        ("A", 3, (1, 2, 1, 3, 2, 1)), ("B", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)),
        ("C", 3, (1, 2, 1, 3, 2, 1, 3, 2, 3)))]


@st.composite
def ladder_signed_point_letter(draw):
    """A ladder chart, signed entries in [-1, 3] up to rank positions past the base, a letter."""
    spec = draw(st.sampled_from(LADDER_SPECS))
    width = len(spec.base.letters) + draw(st.integers(0, spec.cartan.rank))
    coords = draw(st.lists(st.integers(-1, 3), min_size=width, max_size=width))
    return spec, ZElement.from_coords(tuple(coords)), draw(st.integers(1, spec.cartan.rank))


@settings(max_examples=300, deadline=None)
@given(ladder_signed_point_letter(), st.integers(0, 5))
def test_lowering_run_is_repeated_lowering(data, a):
    spec, x, i = data
    expected, steps = x, []
    for _ in range(a):
        lowered = lowering_step(spec, expected, i)
        steps.append((lowered, phi(spec, expected, i)))
        expected = lowered
    assert ftilde_run(spec, x, i, a) == expected
    # the ray yields each step and the phi of the element it starts from
    assert list(islice(ftilde_ray(spec, x, i), a)) == steps
    if a == 1:
        assert ftilde(spec, x, i) == expected


@settings(max_examples=300, deadline=None)
@given(ladder_signed_point_letter())
def test_raising_run_is_repeated_raising(data):
    spec, x, i = data
    assert etilde(spec, x, i) == raising_step(spec, x, i)
    expected, count = x, 0
    while (raised := raising_step(spec, expected, i)) is not None:
        expected, count = raised, count + 1
    assert etilde_max(spec, x, i) == (expected, count)


@pytest.mark.parametrize("call", [
    lambda s, x: etilde(s, x, 1), lambda s, x: etilde_max(s, x, 1),
    lambda s, x: ftilde(s, x, 1), lambda s, x: ftilde_run(s, x, 1, 5),
    lambda s, x: list(islice(ftilde_ray(s, x, 1), 5)),
    lambda s, x: twist_etilde(s, x, 1, 1), lambda s, x: twist_ftilde(s, x, 1, 1)],
    ids=["etilde", "etilde_max", "ftilde", "ftilde_run", "ftilde_ray", "twist_etilde",
         "twist_ftilde"])
def test_each_statistic_and_operator_scans_once(monkeypatch, call):
    # eps, phi and the step all come from one kernel scan, and so do the five
    # steps of a run or a ray; (0, 1, 1) has eps_1 = 1 and phi_1 = 0, so at the
    # cap rho_1 = 1 every operator here moves it
    scans = []
    original = zcrystal._scan

    def counted(*args):
        scans.append(args)
        return original(*args)

    monkeypatch.setattr(zcrystal, "_scan", counted)
    call(SPEC_A2, ZElement.from_coords((0, 1, 1)))
    assert len(scans) == 1

