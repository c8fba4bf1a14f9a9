"""Half-space systems: boxes, lattice points, normalization, implication."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from crystal_polytope import polytope
from crystal_polytope.demazure import enumerate_demazure
from crystal_polytope.inequalities import delta_hrep, delta_system, generate_xi
from crystal_polytope.polytope import (HalfSpaceSystem, bounding_box, lattice_points,
                                       normalize, _implied_by)
from crystal_polytope.rootdata import ReducedWord, WeightVec, cartan_builtin
from crystal_polytope.zcrystal import SequenceSpec
from reference import brute_lattice_points, implied_by_projection

A2 = cartan_builtin("A", 2)
SPEC_A2 = SequenceSpec(A2, ReducedWord((1, 2, 1)))
RHO2 = WeightVec((1, 1))


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
    system = delta_hrep(xi, WeightVec((1,) * rank).scale(scale))
    box = bounding_box(system)
    pts = lattice_points(system)
    assert box.lo == tuple(map(min, zip(*pts)))
    assert box.hi == tuple(map(max, zip(*pts)))


def test_bounding_box_requires_bounded_systems():
    open_cone = HalfSpaceSystem.make(2, [((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(ValueError):
        bounding_box(open_cone)
    with pytest.raises(ValueError):
        lattice_points(open_cone)


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


def test_lattice_points_in_dimension_zero():
    # the one point () is in the system exactly when every constant is nonnegative
    assert lattice_points(HalfSpaceSystem.make(0, [])) == [()]
    assert lattice_points(HalfSpaceSystem.make(0, [((), 0), ((), 3)])) == [()]
    assert lattice_points(HalfSpaceSystem.make(0, [((), 3), ((), -1)])) == []


def test_lattice_points_of_empty_systems():
    # 2x = 1 leaves an empty box; x + y = 1 with x = y leaves the box [0, 1]^2
    # with the rational point (1/2, 1/2) and no lattice point
    halves = HalfSpaceSystem.make(1, [((2,), -1), ((-2,), 1)])
    assert bounding_box(halves).volume() == 0
    assert lattice_points(halves) == []
    diagonal = HalfSpaceSystem.make(2, [((1, 1), -1), ((-1, -1), 1), ((1, -1), 0), ((-1, 1), 0),
                                        ((1, 0), 0), ((0, 1), 0)])
    assert bounding_box(diagonal).volume() == 4
    assert lattice_points(diagonal) == []


@st.composite
def bounded_systems(draw):
    """A box lo <= x <= hi cut by random rows, which may leave no box or no point."""
    dim = draw(st.integers(0, 5))
    rows = []
    for j in range(dim):
        unit = tuple(int(i == j) for i in range(dim))
        lo = draw(st.integers(-2, 2))
        hi = lo + draw(st.integers(0, 3))
        rows += [(unit, -lo), (tuple(-c for c in unit), hi)]
    cut = st.tuples(st.tuples(*[st.integers(-3, 3)] * dim), st.integers(-4, 8))
    rows += draw(st.lists(cut, max_size=6))
    return HalfSpaceSystem.make(dim, draw(st.permutations(rows)))


@settings(max_examples=400, deadline=None)
@given(bounded_systems())
def test_lattice_points_match_the_box_filter(system):
    assert lattice_points(system) == brute_lattice_points(system)


def test_delta_system_matches_direct_eval():
    xi = generate_xi(SPEC_A2, 3)
    system = delta_system(xi, RHO2)
    # the rho polytope sits in [0, 1] x [0, 2] x [0, 1]
    direct = [p for p in itertools.product(range(-1, 4), repeat=3)
              if all(f.constant_at(RHO2) + sum(c * p[k - 1] for k, c in f.coeffs) >= 0
                     for f in xi.delta)]
    assert len(direct) == 8
    assert brute_lattice_points(system) == direct


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


# normalize(delta_hrep(...)) rows at the default window, as the CLI prints them
NORMALIZED_ROWS = {
    ("C", (1, 2, 1, 2), 1): (
        ((-1, 0, 0, 0), 1), ((0, 0, 0, -1), 1), ((0, 0, 0, 1), 0), ((0, 0, 1, -2), 0),
        ((0, 1, -1, 0), 1), ((0, 2, -1, 0), 0), ((1, -1, 0, 0), 1), ((1, 0, 0, 0), 0),
    ),
    ("G", (1, 2, 1, 2, 1, 2), 2): (
        ((-1, 0, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 0, -1), 2), ((0, 0, 0, 0, 0, 1), 0),
        ((0, 0, 0, 0, 1, -3), 0), ((0, 0, 0, 1, -1, 0), 2), ((0, 0, 0, 3, -2, 0), 0),
        ((0, 0, 1, -2, 0, 0), 2), ((0, 0, 2, -3, 0, 0), 0), ((0, 2, -1, 0, 0, 0), 2),
        ((0, 3, -1, 0, 0, 0), 0), ((1, -1, 0, 0, 0, 0), 2), ((1, 0, 0, 0, 0, 0), 0),
    ),
}


@pytest.mark.parametrize("family,word,scale", sorted(NORMALIZED_ROWS))
def test_normalized_delta_hrep_rows_are_pinned(family, word, scale):
    xi = generate_xi(SequenceSpec(cartan_builtin(family, 2), ReducedWord(word)), len(word))
    system = normalize(delta_hrep(xi, WeightVec((1, 1)).scale(scale)))
    assert system.rows == NORMALIZED_ROWS[family, word, scale]


def test_implied_by_basic_cases():
    rows = [((1,), 0)]  # x >= 0
    assert _implied_by(rows, ((1,), 1), 1)       # x + 1 >= 0
    assert not _implied_by(rows, ((1,), -1), 1)  # x - 1 >= 0 fails at x = 0
    assert not _implied_by(rows, ((-1,), 0), 1)  # -x >= 0 fails at x = 1
    infeasible = [((1,), 0), ((-1,), -1)]  # x >= 0 and x <= -1
    assert _implied_by(infeasible, ((-1,), -100), 1)
    # equality is allowed: the strict negation of a row tight at x = 0 or 1 is infeasible
    pinned = [((1,), 0), ((-1,), 0)]  # x = 0
    assert _implied_by(pinned, ((-1,), 0), 1)
    assert not _implied_by(pinned, ((1,), -1), 1)
    assert _implied_by([((-1,), 1)], ((-1,), 1), 1)
    assert not _implied_by([((-1,), 1), ((1,), 0)], ((-1,), 0), 1)
    assert _implied_by([], ((0,), 0), 1)
    assert not _implied_by([], ((0,), -1), 1)


def test_implied_by_combines_rows():
    rows = [((1, 0), 0), ((0, 1), 0)]  # x >= 0, y >= 0
    assert _implied_by(rows, ((1, 1), 0), 2)      # x + y >= 0
    assert not _implied_by(rows, ((1, -1), 0), 2)  # x - y can be negative


def test_implied_by_refuses_an_elimination_step_past_the_row_cap(monkeypatch):
    assert polytope.IMPLIED_ROWS == 1_000_000
    rows = [((1, 0), 0), ((0, 1), 0)]  # x >= 0, y >= 0
    # eliminating x keeps y >= 0 and pairs x >= 0 with the negation -x - y > 0: 2 rows
    monkeypatch.setattr(polytope, "IMPLIED_ROWS", 2)
    assert _implied_by(rows, ((1, 1), 0), 2)
    monkeypatch.setattr(polytope, "IMPLIED_ROWS", 1)
    with pytest.raises(ValueError, match=r"^eliminating a1 from 3 rows would build 2 rows, "
                                         r"past the cap of 1$"):
        _implied_by(rows, ((1, 1), 0), 2)
    with pytest.raises(ValueError, match="past the cap of 1"):
        normalize(HalfSpaceSystem.make(2, [*rows, ((1, 1), 0)]))


def test_implied_by_matches_the_projection_on_random_systems():
    rng = random.Random(20261018)
    implied = 0
    for _ in range(3000):
        dim = rng.randint(1, 4)

        def random_row():
            return tuple(rng.randint(-3, 3) for _ in range(dim)), rng.randint(-4, 4)

        rows = [random_row() for _ in range(rng.randint(0, 6))]
        row = random_row()
        want = implied_by_projection(rows, row, dim)
        assert _implied_by(rows, row, dim) == want, (rows, row, dim)
        implied += want
    assert 0 < implied < 3000


# the rank-2 delta-hrep systems of the benchmark's polytope-dilate workload
DILATED = [("A", (1, 2, 1), k) for k in (1, 4, 16, 32)] + \
    [("C", (1, 2, 1, 2), k) for k in (1, 2, 4, 8, 10)] + \
    [("G", (1, 2, 1, 2, 1, 2), k) for k in (1, 2)]


@pytest.mark.parametrize("family,word,scale", DILATED)
def test_implied_by_matches_the_projection_inside_normalize(monkeypatch, family, word, scale):
    xi = generate_xi(SequenceSpec(cartan_builtin(family, 2), ReducedWord(word)), len(word))
    system = delta_hrep(xi, WeightVec((1, 1)).scale(scale))
    calls = []

    def checked(rows, row, dim):
        got = _implied_by(rows, row, dim)
        assert got == implied_by_projection(rows, row, dim), (rows, row)
        calls.append(got)
        return got

    monkeypatch.setattr(polytope, "_implied_by", checked)
    normalize(system)
    assert any(calls) and not all(calls)


C3_WORD = (1, 2, 1, 3, 2, 1, 3, 2, 3)
# normalize(delta_hrep(...)) rows on C3 at rho, default window, as the CLI prints them
C3_RHO_ROWS = (
    ((-1, 0, 0, 0, 0, 0, 0, 0, 0), 1), ((0, 0, -1, 0, 0, 0, 0, 0, 0), 1),
    ((0, 0, 0, 0, 0, 0, 0, 0, -1), 1), ((0, 0, 0, 0, 0, 0, 0, 0, 1), 0),
    ((0, 0, 0, 0, 0, 0, 0, 1, -2), 0), ((0, 0, 0, 0, 0, 0, 1, -1, 0), 1),
    ((0, 0, 0, 0, 0, 0, 2, -1, 0), 0), ((0, 0, 0, 0, 0, 1, 0, -1, 0), 0),
    ((0, 0, 0, 0, 1, -1, -1, 0, 0), 1), ((0, 0, 0, 0, 1, -1, 0, 0, 0), 0),
    ((0, 0, 0, 0, 1, 0, -2, 0, 0), 0), ((0, 0, 0, 1, 0, -1, 0, 0, 0), 1),
    ((0, 0, 0, 2, -1, 0, 0, 0, 0), 0), ((0, 0, 1, 0, 0, 0, -1, 0, 0), 1),
    ((0, 0, 1, 0, 0, 0, 0, 0, 0), 0), ((0, 0, 1, 1, -1, 0, 0, 0, 0), 1),
    ((0, 1, -1, 0, 0, 0, 0, 0, 0), 0), ((0, 1, 0, -1, 0, 0, 0, 0, 0), 1),
    ((1, -1, 0, 0, 0, 0, 0, 0, 0), 1), ((1, 0, 0, 0, 0, 0, 0, 0, 0), 0),
)


def test_normalized_delta_hrep_rows_at_rank_three():
    cartan = cartan_builtin("C", 3)
    xi = generate_xi(SequenceSpec(cartan, ReducedWord(C3_WORD)), len(C3_WORD))
    system = normalize(delta_hrep(xi, WeightVec((1, 1, 1))))
    assert system.rows == C3_RHO_ROWS
    slice_ = enumerate_demazure(cartan, ReducedWord(C3_WORD), WeightVec((1, 1, 1)))
    assert len(slice_) == 512
    assert lattice_points(system) == slice_.sorted_coords()
