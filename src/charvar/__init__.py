"""Exact counting for conjugation actions on tuples of invertible matrices.

The package computes, as explicit polynomials in q, the number of
isomorphism classes of d-dimensional representations of a free group on m
generators over F_q: all orbits, the completely reducible ones, and the
absolutely irreducible / absolutely indecomposable ones.  Everything is
exact (integers and rationals only), built from a small truncated
power-series kernel with plethystic exponentials, and cross-checked by
brute-force enumeration over small finite fields and symmetric groups.

_HOMES files each public name under the module that defines it, imported
on the name's first read (PEP 562), so importing the package loads none.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "arith": ("IdentityError", "SizeGuardError", "divisors", "factorize",
              "is_prime", "mobius", "partitions", "totient"),
    "combinatorics": ("census_series_checks", "connected_tuples",
                      "connected_weight_poly", "connected_weight_series",
                      "hall_subgroup_counts", "inversions", "limit_transform",
                      "q_factorial", "subgroup_counts"),
    "counting": ("CharVarTable", "IntegralityError", "TableRow",
                 "abs_ind_counts", "abs_ind_series", "abs_irr_counts",
                 "abs_irr_series", "build_table", "centralizer_weight",
                 "class_weight_series", "default_dmax", "e_polynomial",
                 "euler_characteristics", "orbit_counts", "orbit_series",
                 "rep_counts", "rep_series", "s_positive", "uv_str"),
    "fforacle": ("CensusRow", "OracleCensus", "gl_enumerate", "gl_order",
                 "orbit_census", "is_absolutely_indecomposable",
                 "is_absolutely_irreducible", "perm_rep_census"),
    "plethystic": ("Exp", "Log", "Pow", "irreducible_poly_count",
                   "pow_product"),
    "qpoly": ("ExactDivisionError", "PoleError", "QPoly", "expand_in_s",
              "limit_at_1", "poly_str", "q", "ratio"),
    "tseries": ("TSeries",),
    "verify": ("CheckResult", "all_passed", "run_verification"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)   # later reads skip this
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
