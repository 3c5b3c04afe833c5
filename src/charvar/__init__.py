"""Exact counting for conjugation actions on tuples of invertible matrices.

The package computes, as explicit polynomials in q, the number of
isomorphism classes of d-dimensional representations of a free group on m
generators over F_q: all orbits, the completely reducible ones, and the
absolutely irreducible / absolutely indecomposable ones.  Everything is
exact (integers and rationals only), built from a small truncated
power-series kernel with plethystic exponentials, and cross-checked by
brute-force enumeration over small finite fields and symmetric groups.
"""

from .arith import (IdentityError, SizeGuardError, divisors, factorize,
                    is_prime, mobius, partitions, totient)
from .combinatorics import (
    census_series_checks, connected_tuples, connected_weight_poly,
    connected_weight_series, hall_subgroup_counts, inversions,
    limit_transform, q_factorial, subgroup_counts,
)
from .counting import (
    CharVarTable, IntegralityError, TableRow,
    abs_ind_counts, abs_ind_series, abs_irr_counts, abs_irr_series,
    build_table, centralizer_weight, class_weight_series, default_dmax,
    e_polynomial, euler_characteristics, orbit_counts, orbit_series,
    rep_counts, rep_series, s_positive, uv_str,
)
from .fforacle import (
    CensusRow, OracleCensus, gl_enumerate, gl_order, orbit_census,
    is_absolutely_indecomposable, is_absolutely_irreducible, perm_rep_census,
)
from .plethystic import Exp, Log, Pow, irreducible_poly_count, pow_product
from .qpoly import (
    ExactDivisionError, PoleError, QPoly, expand_in_s, limit_at_1, poly_str,
    q, ratio,
)
from .tseries import TSeries
from .verify import CheckResult, all_passed, run_verification

__version__ = "0.1.0"

__all__ = [
    "CensusRow", "CharVarTable", "CheckResult", "ExactDivisionError", "Exp",
    "IdentityError", "IntegralityError", "Log", "OracleCensus", "PoleError",
    "Pow", "QPoly", "SizeGuardError", "TSeries",
    "TableRow", "abs_ind_counts", "abs_ind_series", "abs_irr_counts",
    "abs_irr_series", "all_passed", "build_table", "census_series_checks",
    "centralizer_weight", "class_weight_series", "connected_tuples",
    "connected_weight_poly", "connected_weight_series", "default_dmax",
    "divisors", "e_polynomial", "euler_characteristics", "expand_in_s",
    "factorize", "gl_enumerate", "gl_order", "hall_subgroup_counts",
    "inversions", "irreducible_poly_count", "is_absolutely_indecomposable",
    "is_absolutely_irreducible", "is_prime", "limit_at_1",
    "limit_transform", "mobius", "orbit_census", "orbit_counts",
    "orbit_series", "partitions", "perm_rep_census", "poly_str",
    "pow_product", "q", "q_factorial", "ratio",
    "rep_counts", "rep_series", "run_verification", "s_positive",
    "subgroup_counts", "totient", "uv_str",
]
