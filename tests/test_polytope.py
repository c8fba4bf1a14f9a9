"""Half-space systems: boxes, lattice points, normalization, implication."""

import pytest

from crystal_polytope.inequalities import delta_forms, delta_hrep, generate_xi
from crystal_polytope.polytope import (HalfSpaceSystem, bounding_box, lattice_points,
                                       normalize, system_from_forms, _implied_by)
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin, rho
from crystal_polytope.zcrystal import SequenceSpec

A2 = cartan_builtin("A", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
RHO2 = rho(2)


def a2_rho_system():
    xi = generate_xi(SPEC_A2, 3)
    return delta_hrep(xi, RHO2)


def test_bounding_box_of_the_rho_polytope():
    box = bounding_box(a2_rho_system())
    assert box.lo == (0, 0, 0)
    assert box.hi == (1, 2, 1)


@pytest.mark.parametrize("family,rank,word,window,scale", [
    ("A", 2, (1, 2, 1), 3, 1), ("A", 2, (1, 2, 1), 3, 2),
    ("C", 2, (1, 2, 1, 2), 4, 1), ("C", 2, (1, 2, 1, 2), 4, 2),
    ("G", 2, (1, 2, 1, 2, 1, 2), 6, 1), ("G", 2, (1, 2, 1, 2, 1, 2), 6, 2),
    ("A", 3, (1, 2, 1, 3, 2, 1), 8, 1),
])
def test_bounding_box_is_the_lattice_extent(family, rank, word, window, scale):
    # interval propagation already gives the tight box, so no LP is needed for it
    cartan = cartan_builtin(family, rank)
    xi = generate_xi(SequenceSpec(cartan, ReducedWord(word)), window)
    system = delta_hrep(xi, rho(rank).scale(scale))
    box = bounding_box(system)
    pts = lattice_points(system)
    assert box.lo == tuple(map(min, zip(*pts)))
    assert box.hi == tuple(map(max, zip(*pts)))


def test_bounding_box_requires_bounded_systems():
    open_cone = HalfSpaceSystem.make(2, [((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(ValueError):
        bounding_box(open_cone)


def test_lattice_points_sorted_and_complete():
    pts = lattice_points(a2_rho_system())
    assert pts == sorted(pts)
    assert len(pts) == 8
    assert (1, 2, 1) in pts
    assert (1, 0, 1) not in pts  # violates a_2 >= a_3


def test_lattice_points_of_a_unit_cube():
    cube = HalfSpaceSystem.make(2, [((1, 0), 0), ((-1, 0), 1),
                                    ((0, 1), 0), ((0, -1), 1)])
    assert lattice_points(cube) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_system_from_forms_matches_direct_eval():
    xi = generate_xi(SPEC_A2, 3)
    forms = delta_forms(xi)
    system = system_from_forms(forms, 3, RHO2)
    for point in ((0, 0, 0), (1, 2, 1), (1, 0, 1), (0, 2, 0)):
        direct = all(f.eval(point, RHO2) >= 0 for f in forms)
        assert system.satisfied(point) == direct


def test_normalize_scales_and_dedups():
    system = HalfSpaceSystem.make(2, [((2, 0), 4), ((1, 0), 2), ((0, 3), 0)])
    cleaned = normalize(system)
    assert cleaned.rows == (((0, 1), 0), ((1, 0), 2))


def test_normalize_drops_trivial_rows():
    system = HalfSpaceSystem.make(1, [((0,), 5), ((1,), 0)])
    assert normalize(system).rows == (((1,), 0),)


def test_normalize_remove_redundant():
    # x >= 0, x <= 1, and the implied x + 5 >= 0
    system = HalfSpaceSystem.make(1, [((1,), 0), ((-1,), 1), ((1,), 5)])
    cleaned = normalize(system)
    assert cleaned.rows == (((-1,), 1), ((1,), 0))


def test_implied_by_basic_cases():
    rows = [((1,), 0)]  # x >= 0
    assert _implied_by(rows, ((1,), 1), 1)       # x + 1 >= 0
    assert not _implied_by(rows, ((1,), -1), 1)  # x - 1 >= 0 fails at x = 0
    assert not _implied_by(rows, ((-1,), 0), 1)  # -x >= 0 fails at x = 1
    infeasible = [((1,), 0), ((-1,), -1)]  # x >= 0 and x <= -1
    assert _implied_by(infeasible, ((-1,), -100), 1)


def test_implied_by_combines_rows():
    rows = [((1, 0), 0), ((0, 1), 0)]  # x >= 0, y >= 0
    assert _implied_by(rows, ((1, 1), 0), 2)      # x + y >= 0
    assert not _implied_by(rows, ((1, -1), 0), 2)  # x - y can be negative
