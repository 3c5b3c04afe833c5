"""Cross-check suite: every identity the library promises, tested exactly.

Each item recomputes one relation by two independent routes and compares
with zero tolerance.  The command line `verify` subcommand renders the
resulting list; library callers can inspect it directly.  Items that need
more structure than the requested rank allows, that require m >= 2, or
that a size guard stops, are skipped: they verified nothing, so they count
neither as passed nor as failed.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .arith import SizeGuardError, _exceeds, _require, divisors, mobius, totient
from .combinatorics import (
    census_series_checks, connected_weight_poly, connected_weight_series,
    hall_subgroup_counts, limit_transform, subgroup_counts,
)
from .counting import (
    _twisted_inverse, abs_ind_counts, abs_ind_series, abs_irr_counts,
    class_weight_series, default_dmax, e_polynomial, euler_characteristics,
    orbit_counts, orbit_series, rep_counts, rep_series, s_positive,
)
from .fforacle import gl_order, orbit_census
from .plethystic import Exp, Log, irreducible_poly_count, pow_product, Pow
from .qpoly import ONE, QPoly, q
from .tseries import TSeries

__all__ = ["CheckResult", "all_passed", "rank_two_closed_forms",
           "run_verification"]

_HALF = Fraction(1, 2)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False       # verified nothing; then passed is False


def all_passed(checks) -> bool:
    """True when no item failed; skipped items do not fail."""
    return all(c.passed or c.skipped for c in checks)


def rank_two_closed_forms(m: int) -> dict:
    """Directly built rank-1 and rank-2 formulas, for m >= 2.

    Keys: "rank1" for the common d = 1 count, "irr2" and "full2" for the
    two d = 2 counts, "pgl2" for the quotient E-polynomial at d = 2.
    """
    s = q - 1
    u = q + 1
    core = q ** (m - 1) * s ** (m - 1) * (u ** (m - 1) - ONE)
    pgl = core + q * (u ** (m - 1) + s ** (m - 1)) * _HALF
    return {
        "rank1": s ** m,
        "irr2": s ** m * (core - u ** (m - 1) * _HALF
                          + s ** (m - 1) * _HALF),
        "full2": s ** m * pgl,
        "pgl2": pgl,
    }


def _check_rank_one(m, dmax):
    expected = (q - 1) ** m
    for counts in (rep_counts, abs_irr_counts, abs_ind_counts, orbit_counts):
        _require(counts(m, 1)[1] == expected, counts.__name__)
    return "all four d = 1 counts equal (q-1)^m"


def _check_rank_two(m, dmax):
    if dmax < 2:
        return "skipped: needs dmax >= 2"
    if m == 1:
        # one generator: conjugacy classes of 2x2 matrices
        _require(abs_irr_counts(1, 2)[2] == QPoly(()))
        _require(abs_ind_counts(1, 2)[2] == q - 1)
        _require(orbit_counts(1, 2)[2] == q ** 2 - 1)
        return "single-generator degenerate values confirmed"
    forms = rank_two_closed_forms(m)
    _require(abs_irr_counts(m, 2)[2] == forms["irr2"])
    _require(rep_counts(m, 2)[2] == forms["full2"])
    _require(e_polynomial(m, 2, group="PGL") == forms["pgl2"])
    return "series pipeline matches the direct rank-2 formulas"


def _check_semisimple_split(m, dmax):
    if dmax < 2:
        return "skipped: needs dmax >= 2"
    irr1 = abs_irr_counts(m, 1)[1]
    lhs = rep_counts(m, 2)[2]
    rhs = abs_irr_counts(m, 2)[2] + (irr1.adams(2) + irr1 * irr1) * _HALF
    _require(lhs == rhs)
    return "d = 2 count splits into irreducibles plus sums of lines"


def _check_exp_structure(m, dmax):
    # the pipeline builds A and M as Exp of the irreducible and
    # indecomposable series; rebuild both as plethystic powers of the
    # defining series and compare
    order = dmax
    _require(rep_series(m, order) == Pow(_twisted_inverse(m, order), 1 - q))
    _require(orbit_series(m, order) == Pow(class_weight_series(m, order), q - 1))
    return f"both count series are Exp of their building blocks to t^{order}"


def _check_plethystic_roundtrip(m, dmax):
    order = dmax
    f = rep_series(m, order)
    w = abs_ind_series(m, order)
    _require(Exp(Log(f)) == f)
    _require(Log(Exp(w)) == w)
    return "Exp and Log invert each other on the pipeline series"


def _check_power_product(m, dmax):
    order = min(dmax + 2, 8)
    f = TSeries(order, [q ** n for n in range(order + 1)])
    _require(Pow(f, ONE - q) == pow_product(f))
    for n in range(1, 11):
        total = sum((d * irreducible_poly_count(d) for d in divisors(n)),
                    QPoly(()))
        _require(total == q ** n - 1)
        _require(s_positive(n * irreducible_poly_count(n)))
    return "product over Adams twists matches Pow(f, 1-q); counts positive"


def _check_connected_inversion(m, dmax):
    if m == 1:
        return "skipped: needs m >= 2"
    bound = 1
    while bound < 5 and not _exceeds(range(1, bound + 2), m - 1, 20_000):
        bound += 1
    series = connected_weight_series(m, bound)
    for n in range(1, bound + 1):
        _require(series.coeff(n) == connected_weight_poly(n, m))
    return f"enumeration matches series inversion for n <= {bound}"


def _check_subgroup_routes(m, dmax):
    nmax = 8
    _require(subgroup_counts(m, nmax) == hall_subgroup_counts(m, nmax))
    return f"series route equals the recursive route for n <= {nmax}"


def _check_subgroup_limits(m, dmax):
    if m == 1:
        return "skipped: needs m >= 2"
    nmax = 4
    counts = subgroup_counts(m, nmax)
    expected = [Fraction(counts[n - 1], n) for n in range(1, nmax + 1)]
    _require(limit_transform(m, nmax) == expected)
    return f"character limits reproduce subgroup counts for n <= {nmax}"


def _check_census(m, dmax):
    bound = 1
    # verify's own budget in the census guard's form, m * ((bound + 1)!)**2
    while bound < 4 and m * factorial(bound + 1) ** 2 <= 20_000:
        bound += 1
    results = census_series_checks(bound, m)
    _require(all(results.values()), str(results))
    return f"exponential identities hold in the census up to n = {bound}"


def _check_ff_oracle(m, p, dmax):
    verified = []
    for d in range(1, min(dmax, 3) + 1):
        try:
            census = orbit_census(d, p, m)
        except SizeGuardError as exc:
            if not verified:
                return f"skipped: size guard at d = {d}: {exc}"
            break
        _require(census.orbits == orbit_counts(m, d)[d].evaluate(p))
        _require(census.abs_irr == abs_irr_counts(m, d)[d].evaluate(p))
        _require(census.abs_ind == abs_ind_counts(m, d)[d].evaluate(p))
        verified.append(d)
    return f"brute force agrees at d in {verified}"


def _check_euler(m, dmax):
    if m < 2:
        return "skipped: needs m >= 2"
    for d in range(1, min(dmax, 6) + 1):
        chi, chi_irr = euler_characteristics(m, d)
        _require(chi == totient(d) * d ** (m - 2))
        _require(chi_irr == mobius(d) * d ** (m - 2))
    return f"limits match the arithmetic formulas for d <= {min(dmax, 6)}"


def _check_quotient_epoly(m, dmax):
    if m < 2:
        return "skipped: needs m >= 2"
    scale = (q - 1) ** m
    for d in range(1, dmax + 1):
        for variant in ("full", "irr"):
            gl = e_polynomial(m, d, group="GL", variant=variant)
            pgl = e_polynomial(m, d, group="PGL", variant=variant)
            _require(pgl * scale == gl)
    return f"quotient E-polynomials scale back exactly for d <= {dmax}"


def _check_integrality(m, dmax):
    for counts in (rep_counts, abs_irr_counts, abs_ind_counts, orbit_counts):
        for p in counts(m, dmax)[1:]:
            _require(p.is_integral)
    return "all coefficients are integers (certified during construction)"


def _check_s_positivity(m, dmax):
    top = min(dmax, 6)
    counts = rep_counts(m, top)
    for d in range(1, top + 1):
        _require(s_positive(counts[d]), f"A_{d} is not in N[q-1]")
    return f"A_d lies in N[q-1] for d <= {top}"


def run_verification(m: int, dmax: int = None, primes=(2, 3)) -> list:
    """Run every consistency item and return the CheckResult list."""
    if m < 1:
        raise ValueError("need m >= 1")
    if dmax is None:
        dmax = default_dmax(m)
    if dmax < 1:
        raise ValueError("need dmax >= 1")
    for p in primes:
        try:
            gl_order(1, p)           # ValueError unless p is prime
        except SizeGuardError:
            pass                     # its oracle item skips by size guard
    items = [
        ("rank-1 counts", _check_rank_one),
        ("rank-2 closed forms", _check_rank_two),
        ("semisimple decomposition", _check_semisimple_split),
        ("exponential structure", _check_exp_structure),
        ("plethystic roundtrip", _check_plethystic_roundtrip),
        ("power product formula", _check_power_product),
        ("connected tuple inversion", _check_connected_inversion),
        ("subgroup count routes", _check_subgroup_routes),
        ("subgroup count limits", _check_subgroup_limits),
        ("permutation census", _check_census),
        ("Euler characteristics", _check_euler),
        ("quotient E-polynomials", _check_quotient_epoly),
        ("integrality", _check_integrality),
        ("s-positivity", _check_s_positivity),
    ]
    items += [(f"finite field oracle p={p}",
               lambda m, dmax, p=p: _check_ff_oracle(m, p, dmax))
              for p in primes]
    return [_run(name, fn, m, dmax) for name, fn in items]


def _run(name, fn, m, dmax) -> CheckResult:
    try:
        detail = fn(m, dmax)
    except SizeGuardError as exc:
        detail = f"skipped: {exc}"
    except ArithmeticError as exc:
        return CheckResult(name, False, str(exc))
    skipped = detail.startswith("skipped:")
    return CheckResult(name, not skipped, detail, skipped)
