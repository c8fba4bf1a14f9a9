"""Acceptance battery: eleven desk-scale cross-validation criteria.

Each test prints one [PASS]/[FAIL] line through the capture-disabled
channel so the verdicts are visible in any pytest run.  Criteria with a
stated wall-clock budget assert it.
"""

import itertools
import random
import time
from fractions import Fraction

from crystal_polytope.binfinity import eta, eta_opposite, membership
from crystal_polytope.demazure import btilde_cut, enumerate_demazure, string_points
from crystal_polytope.inequalities import ample_check, delta_forms, delta_hrep, generate_xi
from crystal_polytope.polytope import (HalfSpaceSystem, bounding_box, lattice_points,
                                       system_from_forms, _implied_by)
from crystal_polytope.rootdata import (ReducedWord, WeightVec, cartan_builtin,
                                       fundamental, is_reduced, num_positive_roots,
                                       rho, root_to_weight, simple_root, weyl_dim_oracle)
from crystal_polytope.valuation import (MultiPoly, ValuationOrder, builtin_generators,
                                        chevalley_value, parse_poly, restrict_span,
                                        section_span, unipotent_product, value,
                                        value_set_of_span)
from crystal_polytope.zcrystal import (LambdaTwist, SequenceSpec, ZElement, eps,
                                       etilde, ftilde, phi, twist_eps, twist_etilde,
                                       twist_ftilde, twist_phi, twist_wt, wt)

A2 = cartan_builtin("A", 2)
C2 = cartan_builtin("C", 2)
W_A2 = ReducedWord((1, 2, 1))
W_C2 = ReducedWord((1, 2, 1, 2))
SPEC_A2 = SequenceSpec(A2, W_A2)
SPEC_C2 = SequenceSpec(C2, W_C2)
RHO2 = rho(2)
OM1 = fundamental(2, 1)
OM2 = fundamental(2, 2)


def report(capsys, number, ok, elapsed, label):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d} "
              f"({elapsed:6.2f}s): {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_01_a2_image_box(capsys):
    start = time.monotonic()
    ok = True
    for a in itertools.product(range(5), repeat=3):
        expected = all(v >= 0 for v in a) and a[1] >= a[2]
        if membership(SPEC_A2, ZElement.from_coords(a)) != expected:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(capsys, 1, ok and elapsed < 1.0, elapsed,
           "type A rank 2 image on [0,4]^3 is the cone a2 >= a3 >= 0 slice")


def test_criterion_02_c2_image_box(capsys):
    start = time.monotonic()
    ok = True
    for a in itertools.product(range(5), repeat=4):
        expected = all(v >= 0 for v in a) and 2 * a[1] >= a[2] and a[2] >= 2 * a[3]
        if membership(SPEC_C2, ZElement.from_coords(a)) != expected:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(capsys, 2, ok and elapsed < 1.0, elapsed,
           "type C rank 2 image on [0,4]^4 is the cone 2a2 >= a3 >= 2a4 slice")


def _a2_closed_form(a):
    a1, a2, a3 = a
    return (max(a3, a1 - a2 + 2 * a3), a2, min(a1, a2 - a3))


def _c2_closed_form(a):
    a1, a2, a3, a4 = a
    return (max(a4, a2 - a3 + 2 * a4),
            max(a3, a1 - 2 * a2 + 2 * a3, a1 + 2 * a4),
            min(a2, a3 - a4),
            min(a1, 2 * a2 - a3, a3 - 2 * a4))


def test_criterion_03_star_chart_closed_forms(capsys):
    start = time.monotonic()
    ok = True
    for a in itertools.product(range(5), repeat=3):
        if not (a[1] >= a[2]):
            continue
        x = ZElement.from_coords(a)
        got = eta(SPEC_A2, x)
        if got != _a2_closed_form(a) or eta(SPEC_A2, ZElement.from_coords(got)) != a:
            ok = False
            break
    if ok:
        for a in itertools.product(range(5), repeat=4):
            if not (2 * a[1] >= a[2] and a[2] >= 2 * a[3]):
                continue
            x = ZElement.from_coords(a)
            # the tabulated closed form lives in the reversed-word string
            # chart for this non-palindromic word; the involution is eta
            if eta_opposite(SPEC_C2, x) != _c2_closed_form(a):
                ok = False
                break
            got = eta(SPEC_C2, x)
            if eta(SPEC_C2, ZElement.from_coords(got)) != a:
                ok = False
                break
    elapsed = time.monotonic() - start
    report(capsys, 3, ok, elapsed,
           "closed piecewise-linear forms reproduced on box members; eta is an involution")


def _display_a2(lam):
    l1, l2 = lam[1], lam[2]
    return HalfSpaceSystem.make(3, [
        ((1, 0, 0), 0), ((-1, 0, 0), l1),
        ((0, 0, 1), 0), ((0, 0, -1), l2),
        ((0, 1, -1), 0), ((1, -1, 0), l2),
    ])


def _display_c2(lam):
    l1, l2 = lam[1], lam[2]
    return HalfSpaceSystem.make(4, [
        ((1, 0, 0, 0), 0), ((-1, 0, 0, 0), l1),
        ((0, 1, 0, 0), 0), ((1, -1, 0, 0), l2),
        ((0, 0, 1, 0), 0), ((0, 1, -1, 0), l2), ((0, 2, -1, 0), 0),
        ((0, 0, 0, 1), 0), ((0, 0, 0, -2), 2 * l2), ((0, 0, 1, -2), 0),
    ])


def _box_rows(*systems):
    boxes = [bounding_box(s) for s in systems]
    dim = systems[0].dim
    lo = tuple(min(b.lo[j] for b in boxes) for j in range(dim))
    hi = tuple(max(b.hi[j] for b in boxes) for j in range(dim))
    rows = []
    for j in range(dim):
        unit = tuple(1 if k == j else 0 for k in range(dim))
        rows.append((unit, -lo[j]))
        rows.append((tuple(-u for u in unit), hi[j]))
    return rows


def _systems_equivalent(left, right):
    box = _box_rows(left, right)
    for row in right.rows:
        if not _implied_by(list(left.rows) + box, row, left.dim):
            return False
    for row in left.rows:
        if not _implied_by(list(right.rows) + box, row, left.dim):
            return False
    return True


def test_criterion_04_hrep_matches_displays(capsys):
    start = time.monotonic()
    ok = True
    weights = [OM1, OM2, RHO2, RHO2.scale(2)]
    xi_a = generate_xi(SPEC_A2, 3)
    xi_c = generate_xi(SPEC_C2, 4)
    for lam in weights:
        computed = delta_hrep(xi_a, lam)
        display = _display_a2(lam)
        if lattice_points(computed) != lattice_points(display):
            ok = False
        if not _systems_equivalent(computed, display):
            ok = False
        computed = delta_hrep(xi_c, lam)
        display = _display_c2(lam)
        if lattice_points(computed) != lattice_points(display):
            ok = False
        if not _systems_equivalent(computed, display):
            ok = False
    elapsed = time.monotonic() - start
    report(capsys, 4, ok, elapsed,
           "inequality systems match the tabulated displays at omega1, omega2, rho, 2*rho")


def _all_reduced_words(cartan):
    words = []
    for length in range(1, num_positive_roots(cartan) + 1):
        for letters in itertools.product(cartan.index_set(), repeat=length):
            if is_reduced(cartan, letters):
                words.append(letters)
    return words


def test_criterion_05_lattice_equals_crystal(capsys):
    start = time.monotonic()
    ok = True
    golden_counts = {(A2.rows, (1, 1)): 8, (A2.rows, (2, 2)): 27, (C2.rows, (1, 1)): 16}
    for cartan in (A2, C2):
        n = num_positive_roots(cartan)
        for letters in _all_reduced_words(cartan):
            word = ReducedWord(letters)
            spec = SequenceSpec(cartan, word)
            xi = generate_xi(spec, len(letters))
            for coords in itertools.product(range(3), repeat=2):
                lam = WeightVec(coords)
                swept = enumerate_demazure(cartan, word, lam)
                cut = btilde_cut(cartan, word, lam)
                if swept.coords != cut.coords:
                    ok = False
                if xi.certified and ample_check(xi, lam):
                    pts = lattice_points(delta_hrep(xi, lam))
                    if pts != swept.sorted_coords():
                        ok = False
                if len(letters) == n:
                    if len(swept) != weyl_dim_oracle(cartan, lam):
                        ok = False
                    expected = golden_counts.get((cartan.rows, coords))
                    if expected is not None and len(swept) != expected:
                        ok = False
    elapsed = time.monotonic() - start
    report(capsys, 5, ok and elapsed < 10.0, elapsed,
           "slice = cut = lattice points for every reduced word and weight up to 2")


def test_criterion_06_semigroup_levels(capsys):
    start = time.monotonic()
    ok = True
    for cartan, word, spec, r in ((A2, W_A2, SPEC_A2, 3), (C2, W_C2, SPEC_C2, 4)):
        forms = delta_forms(generate_xi(spec, r))
        for k in range(4):
            lam = RHO2.scale(k)
            level = btilde_cut(cartan, word, lam).coords
            if sorted(level) != lattice_points(system_from_forms(forms, r, lam)):
                ok = False
    elapsed = time.monotonic() - start
    report(capsys, 6, ok, elapsed,
           "dilation levels k <= 3 at rho equal the scaled-system lattice points")


def _display_string_a2(lam):
    l1, l2 = lam[1], lam[2]
    return HalfSpaceSystem.make(3, [
        ((0, 0, 1), 0), ((0, 0, -1), l1),
        ((0, 1, -1), 0), ((0, -1, 1), l2),
        ((1, 0, 0), 0), ((-1, 1, -2), l1),
    ])


def _display_string_c2(lam):
    l1, l2 = lam[1], lam[2]
    return HalfSpaceSystem.make(4, [
        ((0, 0, 0, 1), 0), ((0, 0, 0, -1), l1),
        ((0, 0, 1, -1), 0), ((0, 0, -1, 1), l2),
        ((0, 1, -1, 0), 0), ((0, -1, 2, -2), l1),
        ((1, 0, 0, 0), 0), ((-1, 1, -2, 1), l2),
    ])


def test_criterion_07_string_side(capsys):
    start = time.monotonic()
    ok = True
    strung_a = string_points(A2, btilde_cut(A2, W_A2, RHO2))
    if strung_a != frozenset(lattice_points(_display_string_a2(RHO2))):
        ok = False
    strung_c = string_points(C2, btilde_cut(C2, W_C2.reversed(), RHO2))
    if strung_c != frozenset(lattice_points(_display_string_c2(RHO2))):
        ok = False
    for spec, cartan, word, xi_window, strung in (
            (SPEC_A2, A2, W_A2, 3, strung_a), (SPEC_C2, C2, W_C2, 4, strung_c)):
        xi = generate_xi(spec, xi_window)
        delta_points = lattice_points(delta_hrep(xi, RHO2))
        image = {eta_opposite(spec, ZElement.from_coords(p)) for p in delta_points}
        if image != set(strung) or len(image) != len(delta_points):
            ok = False
    elapsed = time.monotonic() - start
    report(capsys, 7, ok, elapsed,
           "string data at rho matches the displays; the chart transition is a bijection")


def _random_poly(rng, nvars, max_deg=5, max_terms=5):
    f = MultiPoly.zero(nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(-4, 4)
        if c:
            f = f.add(MultiPoly(nvars, ((exps, Fraction(c)),)))
    return f


def test_criterion_08_valuation_axioms(capsys):
    start = time.monotonic()
    ok = True
    f = parse_poly("t1*t2 + t3^2", 3)
    if value(f, ValuationOrder.HI) != (-1, -1, 0):
        ok = False
    if value(f, ValuationOrder.TILDE) != (-2, 0, 0):
        ok = False
    rng = random.Random(20260816)
    checked = 0
    while checked < 1000 and ok:
        nvars = rng.randint(1, 4)
        g, h = _random_poly(rng, nvars), _random_poly(rng, nvars)
        if g.is_zero() or h.is_zero():
            continue
        for order in (ValuationOrder.HI, ValuationOrder.TILDE):
            key = lambda v: tuple(-x for x in (v if order is ValuationOrder.HI
                                               else v[::-1]))
            if value(g.mul(h), order) != tuple(
                    a + b for a, b in zip(value(g, order), value(h, order))):
                ok = False
            s = g.add(h)
            if not s.is_zero():
                if key(value(s, order)) > max(key(value(g, order)),
                                              key(value(h, order))):
                    ok = False
            c = rng.randint(1, 7)
            if value(g.scale(Fraction(c)), order) != value(g, order):
                ok = False
        checked += 1
    count = 0
    while count < 200 and ok:
        nvars = rng.randint(1, 4)
        g = _random_poly(rng, nvars)
        if g.is_zero():
            continue
        if chevalley_value(g) != tuple(-x for x in value(g, ValuationOrder.HI)):
            ok = False
        count += 1
    elapsed = time.monotonic() - start
    report(capsys, 8, ok and elapsed < 5.0, elapsed,
           "valuation golden values, 1000 axiom cases, 200 derivative cross-checks")


def test_criterion_09_value_sets_match_slices(capsys):
    start = time.monotonic()
    ok = True
    mat = unipotent_product(W_A2, builtin_generators(A2))
    for lam in (OM1, OM2, RHO2):
        span = section_span(mat, lam)
        values = value_set_of_span(span, ValuationOrder.HI)
        exps = {tuple(-x for x in v) for v in values}
        if exps != set(enumerate_demazure(A2, W_A2, lam).coords):
            ok = False
        for r in (1, 2):
            sub = restrict_span(span, r)
            values = value_set_of_span(sub, ValuationOrder.HI)
            exps = {tuple(-x for x in v) for v in values}
            prefix = ReducedWord(W_A2.letters[:r])
            if exps != set(enumerate_demazure(A2, prefix, lam).coords):
                ok = False
    elapsed = time.monotonic() - start
    report(capsys, 9, ok and elapsed < 10.0, elapsed,
           "valuation images of section spans equal embedded slices, prefixes included")


def test_criterion_10_ampleness(capsys):
    start = time.monotonic()
    ok = True
    for spec, r in ((SPEC_A2, 3), (SPEC_C2, 4)):
        xi = generate_xi(spec, r)
        if not (xi.stabilized and xi.certified):
            ok = False
        for coords in itertools.product(range(4), repeat=2):
            if not ample_check(xi, WeightVec(coords)):
                ok = False
    elapsed = time.monotonic() - start
    report(capsys, 10, ok, elapsed,
           "certified closures are ample at every dominant weight with entries <= 3")


BUILTIN_POOL = [cartan_builtin("A", 2), cartan_builtin("A", 3),
                cartan_builtin("C", 2), cartan_builtin("B", 2),
                cartan_builtin("G", 2)]


def _random_case(rng):
    cartan = rng.choice(BUILTIN_POOL)
    length = rng.randint(1, 6)
    letters = [rng.randint(1, cartan.rank)]
    while len(letters) < length:
        nxt = rng.randint(1, cartan.rank)
        if nxt != letters[-1]:
            letters.append(nxt)
    spec = SequenceSpec(cartan, ReducedWord(tuple(letters)))
    width = rng.randint(1, 8)
    x = ZElement.from_coords(tuple(rng.randint(0, 4) for _ in range(width)))
    i = rng.randint(1, cartan.rank)
    return spec, x, i


def _check_untwisted(spec, x, i):
    weight = root_to_weight(spec.cartan, wt(spec, x))
    if phi(spec, x, i) != eps(spec, x, i) + weight[i]:
        return False
    raised = etilde(spec, x, i)
    if (raised is None) != (eps(spec, x, i) == 0):
        return False
    if raised is not None:
        if wt(spec, raised) != wt(spec, x).add(simple_root(spec.cartan.rank, i)):
            return False
        if eps(spec, raised, i) != eps(spec, x, i) - 1:
            return False
        if phi(spec, raised, i) != phi(spec, x, i) + 1:
            return False
        if ftilde(spec, raised, i) != x:
            return False
    lowered = ftilde(spec, x, i)
    if wt(spec, lowered) != wt(spec, x).minus(simple_root(spec.cartan.rank, i)):
        return False
    if eps(spec, lowered, i) != eps(spec, x, i) + 1:
        return False
    if phi(spec, lowered, i) != phi(spec, x, i) - 1:
        return False
    if etilde(spec, lowered, i) != x:
        return False
    return True


def _check_twisted(spec, x, i, lam):
    t = LambdaTwist(spec, x, lam)
    if twist_phi(t, i) != twist_eps(t, i) + twist_wt(t)[i]:
        return False
    lowered = twist_ftilde(t, i)
    if (lowered is None) != (twist_phi(t, i) == 0):
        return False
    if lowered is not None:
        if twist_etilde(lowered, i) != t:
            return False
        if twist_eps(lowered, i) != twist_eps(t, i) + 1:
            return False
        if twist_phi(lowered, i) != twist_phi(t, i) - 1:
            return False
        shift = tuple(twist_wt(t)[j] - spec.cartan.pairing(j, i)
                      for j in spec.cartan.index_set())
        if twist_wt(lowered).coords != shift:
            return False
    raised = twist_etilde(t, i)
    if raised is not None:
        if twist_ftilde(raised, i) != t:
            return False
        if twist_eps(raised, i) != twist_eps(t, i) - 1:
            return False
        if twist_phi(raised, i) != twist_phi(t, i) + 1:
            return False
    return True


def test_criterion_11_crystal_axiom_sweep(capsys):
    start = time.monotonic()
    rng = random.Random(11235813)
    ok = True
    for case in range(10_000):
        spec, x, i = _random_case(rng)
        if case % 2 == 0:
            if not _check_untwisted(spec, x, i):
                ok = False
                break
        else:
            lam = WeightVec(tuple(rng.randint(0, 3)
                                  for _ in range(spec.cartan.rank)))
            if not _check_twisted(spec, x, i, lam):
                ok = False
                break
    elapsed = time.monotonic() - start
    report(capsys, 11, ok, elapsed,
           "10^4 randomized operator cases satisfy the crystal axioms, twisted included")
