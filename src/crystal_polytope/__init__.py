"""Exact integer/rational combinatorics of crystal bases and their polytopes.

Everything here is exact: weights and roots live in integer coordinate
vectors, inequality systems carry integer coefficients, and polynomial
computations use ``fractions.Fraction``.  No floats anywhere.

Word convention used throughout: a reduced word is stored in application
order.  ``word = (j_1, ..., j_r)`` means the lowering operator indexed
``j_1`` acts first, ``j_2`` second, and so on.  The same order indexes the
coordinates ``a_1, ..., a_r`` of every point set and inequality system
produced here, and the variables ``t_1, ..., t_r`` on the valuation side
(the factor carrying ``t_1`` sits rightmost in the unipotent product).
"""

from .rootdata import CartanMatrix, WeightVec, RootCombo, ReducedWord, cartan_builtin, weyl_dim_oracle
from .zcrystal import SequenceSpec, ZElement, LambdaTwist
from .binfinity import membership, star, string_param, eta, eta_opposite
from .demazure import DemazureSet, enumerate_demazure, btilde_cut, string_points
from .inequalities import AffineForm, XiSet, generate_xi, ample_check, delta_forms, delta_hrep
from .polytope import HalfSpaceSystem, LatticeBox, bounding_box, lattice_points, normalize
from .valuation import (ValuationOrder, MultiPoly, PolyMatrix, parse_poly, value,
                        value_quot, chevalley_value, builtin_generators,
                        unipotent_product, column_minors, section_span,
                        restrict_span, products_closure, value_set_of_span)

__all__ = [
    "CartanMatrix",
    "WeightVec",
    "RootCombo",
    "ReducedWord",
    "cartan_builtin",
    "weyl_dim_oracle",
    "SequenceSpec",
    "ZElement",
    "LambdaTwist",
    "membership",
    "star",
    "string_param",
    "eta",
    "eta_opposite",
    "DemazureSet",
    "enumerate_demazure",
    "btilde_cut",
    "string_points",
    "AffineForm",
    "XiSet",
    "generate_xi",
    "ample_check",
    "delta_forms",
    "delta_hrep",
    "HalfSpaceSystem",
    "LatticeBox",
    "bounding_box",
    "lattice_points",
    "normalize",
    "ValuationOrder",
    "MultiPoly",
    "PolyMatrix",
    "parse_poly",
    "value",
    "value_quot",
    "chevalley_value",
    "builtin_generators",
    "unipotent_product",
    "column_minors",
    "section_span",
    "restrict_span",
    "products_closure",
    "value_set_of_span",
]
