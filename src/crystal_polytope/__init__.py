"""Exact integer/rational combinatorics of crystal bases and their polytopes.

Everything here is exact: weights and roots live in integer coordinate
vectors, inequality systems carry integer coefficients, and polynomial
coefficients stay Python ints on the span path, with ``fractions.Fraction``
only where parsed input brings it.  No floats anywhere.

Word convention used throughout: a reduced word is stored in application
order.  ``word = (j_1, ..., j_r)`` means the lowering operator indexed
``j_1`` acts first, ``j_2`` second, and so on.  The same order indexes the
coordinates ``a_1, ..., a_r`` of every point set and inequality system
produced here, and the variables ``t_1, ..., t_r`` on the valuation side
(the factor carrying ``t_1`` sits rightmost in the unipotent product).
"""
