"""Counting polynomials of GL_d- and PGL_d-character varieties of free groups.

For the free group on m generators and a finite field with q elements, the
generating series built here count, per dimension d:

    rep_series      isomorphism classes of semisimple d-dimensional
                    representations (coefficient A_d of the JSON tables),
    abs_irr_series  absolutely irreducible classes,
    abs_ind_series  absolutely indecomposable classes,
    orbit_series    all conjugation orbits on m-tuples of invertible
                    matrices (coefficient M_d).

The absolutely irreducible counts are (1-q) Log of the series with
t^d-coefficient prod_{i<=d}(q^i-1)^(m-1), after series inversion and a
triangular q-power twist; the absolutely indecomposable counts are (q-1)
Log of the partition-indexed centralizer weights r_lambda.  A semisimple
representation is a sum of absolutely irreducible ones and an orbit a sum
of absolutely indecomposable ones, so A = Exp of the irreducible series
and M = Exp of the indecomposable series.  All four have integer
coefficients, which is enforced, not assumed.  Specializing q = uv gives
E-polynomials of the corresponding complex character varieties; exact
limits at q = 1 of the PGL_d E-polynomials give their Euler
characteristics.  The semisimple counts are certified nonnegative in the
basis of powers of s = q-1.

The t^d-coefficient of each series does not depend on the truncation
order, so each is built once per m: a call with a smaller order returns a
truncation of the longest series built so far, and a larger order builds
the series again at that order and keeps it in place of the old one.
That wrapper is also the one check of m >= 1 and dmax >= 0 for all six
series and everything built on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps
from typing import NamedTuple, Optional, Tuple

from .plethystic import Exp, Log
from .qpoly import (
    QPoly, ONE, ZERO, _div_by_s_power, _dot, _poly_str, expand_in_s, q,
)
from .tseries import TSeries


class IntegralityError(ArithmeticError):
    """A counting polynomial came out with non-integer coefficients."""


def default_dmax(m: int) -> int:
    """Default table depth: 6 for m <= 3, 4 for larger m."""
    return 6 if m <= 3 else 4


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError("the free group needs at least one generator (m >= 1)")


def _one_series_per_m(build):
    """Check (m, order), then cache build(m, order) once per m; smaller
    orders are truncations."""
    longest = {}

    @wraps(build)
    def series(m: int, order: int) -> TSeries:
        _check_m(m)
        if order < 0:
            raise ValueError("need dmax >= 0")
        have = longest.get(m)
        if have is None or have.order < order:
            have = longest[m] = build(m, order)
        return have.truncate(order)
    return series


@_one_series_per_m
def qpochhammer_series(m: int, order: int) -> TSeries:
    """Series with t^d-coefficient (prod_{i=1..d}(q^i - 1))^(m-1)."""
    poch = ONE
    coeffs = [ONE]
    for d in range(1, order + 1):
        poch = poch * (q ** d - 1)
        coeffs.append(poch ** (m - 1))
    return TSeries(order, coeffs)


def _twisted_inverse(m: int, order: int) -> TSeries:
    # invert, then scale t^d by q^((m-1) binom(d,2)); the t^d-coefficient
    # becomes a polynomial of degree (m-1) d^2 related to |GL_d|^(m-1)
    return qpochhammer_series(m, order).inverse().qpower_twist(m)


def _certified_integral(f: TSeries, what: str) -> TSeries:
    for d, c in enumerate(f.coeffs):
        if not c.is_integral:
            raise IntegralityError(
                f"{what}: coefficient of t^{d} is not an integer polynomial: {c}")
    return f


@_one_series_per_m
def abs_irr_series(m: int, order: int) -> TSeries:
    """Sum over d >= 1 of the absolutely irreducible counts times t^d."""
    return _certified_integral(
        Log(_twisted_inverse(m, order)) * (1 - q), "absolutely irreducible counts")


@_one_series_per_m
def rep_series(m: int, order: int) -> TSeries:
    """Sum over d of A_d(q) t^d: semisimple representation counts."""
    return _certified_integral(Exp(abs_irr_series(m, order)), "semisimple counts")


@lru_cache(maxsize=None)
def centralizer_weight(lam: Tuple[int, ...]) -> QPoly:
    """The partition weight r_lambda = prod_n q^(lambda_n^2) (q^-1)_(lambda_n - lambda_n+1).

    With (q^-1)_k = (1 - q^-1)...(1 - q^-k); the q-powers always clear the
    denominators, so the result is an honest polynomial.

    >>> centralizer_weight((1,)) == q - 1
    True
    >>> centralizer_weight((2,)) == q * (q - 1) * (q ** 2 - 1)
    True
    """
    out = ONE
    for n, part in enumerate(lam):
        k = part - (lam[n + 1] if n + 1 < len(lam) else 0)
        # q^(part^2) (q^-1)_k = q^(part^2 - k(k+1)/2) * prod_{j<=k} (q^j - 1)
        out = out * q ** (part * part - k * (k + 1) // 2)
        for j in range(1, k + 1):
            out = out * (q ** j - 1)
    return out


@_one_series_per_m
def class_weight_series(m: int, order: int) -> TSeries:
    """Sum over partitions of r_lambda^(m-1) t^(size of lambda).

    The t^d-coefficient is the number of conjugacy-class-tuples weighted by
    centralizer orders; (q-1) Log of it counts the absolutely indecomposable
    orbits on m-tuples of invertible d x d matrices.  This is the Hua-type
    sum of J.-Y. Hua, Counting representations of quivers over finite
    fields, J. Algebra 226 (2000).

    r_lambda is a product of one factor f(a, a - b) per part a, where b is
    the next part (0 after the last), so the sum runs as a transfer
    recurrence over (largest part a, size s) instead of partition by
    partition:

        G(0, 0) = 1,
        G(a, s) = sum_{b <= min(a, s - a)} f(a, a - b)^(m-1) G(b, s - a),

    where G(a, s) sums r_lambda^(m-1) over the partitions of s with largest
    part a, and the t^s-coefficient is sum_a G(a, s).  That takes about
    order^3/12 polynomial products.  No weight is a product of its own:

        f(a, k)^(m-1) = q^((m-1)(a^2 - k(k+1)/2)) P_k^(m-1),

    with P_k = prod_{j<=k}(q^j - 1), and P_k^(m-1) is the t^k-coefficient
    of qpochhammer_series, so each weight is a shift of one of those.
    """
    poch = qpochhammer_series(m, order).coeffs
    # table[a][s] = G(a, s), kept only for s <= order - a: a later part
    # a' >= a reads G(a, s) at s = s' - a' <= order - a.  G(0, s) = 0, s > 0.
    table = [[ONE] + [ZERO] * order]
    coeffs = [ONE] + [ZERO] * order
    for a in range(1, order + 1):
        weights = []
        for b in range(min(a, order - a) + 1):
            k = a - b
            weights.append(poch[k].shift((m - 1) * (a * a - k * (k + 1) // 2)))
        row = [ZERO] * (order - a + 1)
        table.append(row)
        for s in range(a, order + 1):
            rest = s - a
            acc = _dot((weights[b], table[b][rest])
                       for b in range(1 if rest else 0, min(a, rest) + 1))
            if s <= order - a:
                row[s] = acc
            coeffs[s] = coeffs[s] + acc
    return TSeries(order, coeffs)


@_one_series_per_m
def abs_ind_series(m: int, order: int) -> TSeries:
    """Sum over d >= 1 of the absolutely indecomposable counts times t^d."""
    return _certified_integral(
        Log(class_weight_series(m, order)) * (q - 1),
        "absolutely indecomposable counts")


@_one_series_per_m
def orbit_series(m: int, order: int) -> TSeries:
    """Sum over d of M_d(q) t^d: all conjugation orbits on m-tuples."""
    return _certified_integral(Exp(abs_ind_series(m, order)), "orbit counts")


def rep_counts(m: int, dmax: int) -> list:
    """[A_0..A_dmax] as integer polynomials."""
    return list(rep_series(m, dmax).coeffs)


def abs_irr_counts(m: int, dmax: int) -> list:
    return list(abs_irr_series(m, dmax).coeffs)


def abs_ind_counts(m: int, dmax: int) -> list:
    return list(abs_ind_series(m, dmax).coeffs)


def orbit_counts(m: int, dmax: int) -> list:
    return list(orbit_series(m, dmax).coeffs)


# -- E-polynomials and Euler characteristics ---------------------------------


def e_polynomial(m: int, d: int, group: str = "GL",
                 variant: str = "full") -> QPoly:
    """E-polynomial of the character variety, in the product variable uv.

    The counting polynomials depend on u, v only through uv, so the result
    is returned as a QPoly whose variable stands for the product uv (render
    with uv_str).  group "GL" gives the count itself; "PGL" divides by
    (q-1)^m exactly, which needs m >= 2.  variant "full" uses the
    semisimple count, "irr" the absolutely irreducible one.
    """
    _check_m(m)
    if group not in ("GL", "PGL"):
        raise ValueError(f"unknown group {group!r}")
    if variant not in ("full", "irr"):
        raise ValueError(f"unknown variant {variant!r}")
    if group == "PGL" and m < 2:
        raise ValueError("PGL E-polynomials need m >= 2")
    least = 1 if group == "PGL" else 0
    if d < least:
        raise ValueError(f"need d >= {least}")
    series = rep_series(m, d) if variant == "full" else abs_irr_series(m, d)
    p = series.coeff(d)
    return _div_by_s_power(p, m) if group == "PGL" else p


def uv_str(p: QPoly) -> str:
    """Render a polynomial in the product variable as monomials in u, v.

    >>> uv_str(q ** 2 - 2 * q + 1)
    'u^2*v^2 - 2*u*v + 1'
    """
    return _poly_str(p, lambda k: "u*v" if k == 1 else f"u^{k}*v^{k}")


def euler_characteristics(m: int, d: int):
    """(chi, chi_irr) of the PGL_d character varieties, m >= 2.

    The q -> 1 limits of A_d/(q-1)^m and of the absolutely irreducible
    analogue; (q-1)^m divides both exactly, so each limit is the value at
    u = v = 1 of the PGL E-polynomial.
    """
    if m < 2:
        raise ValueError("Euler characteristics need m >= 2")
    return tuple(e_polynomial(m, d, "PGL", variant).evaluate(1)
                 for variant in ("full", "irr"))


# -- positivity certification -------------------------------------------------


def _nonnegative_ints(coeffs) -> bool:
    return all(isinstance(c, int) and c >= 0 for c in coeffs)


def s_positive(p: QPoly) -> bool:
    """True when p lies in N[q-1]: nonnegative integers in the s-basis."""
    return _nonnegative_ints(expand_in_s(p))


# -- assembled tables ----------------------------------------------------------


class TableRow(NamedTuple):
    d: int
    rep_count: QPoly            # A_d
    abs_irr: QPoly              # absolutely irreducible count
    abs_ind: QPoly              # absolutely indecomposable count
    orbits: QPoly               # M_d
    chi_pgl: Optional[Fraction]
    chi_pgl_irr: Optional[Fraction]
    s_coeffs: tuple
    positive: bool

    def to_json_dict(self) -> dict:
        """One row of the JSON table: exact numbers as decimal strings."""
        return {
            "d": self.d,
            "A": [str(c) for c in self.rep_count.coeffs],
            "A_irr": [str(c) for c in self.abs_irr.coeffs],
            "A_ind": [str(c) for c in self.abs_ind.coeffs],
            "M": [str(c) for c in self.orbits.coeffs],
            "chi_pgl": None if self.chi_pgl is None else str(self.chi_pgl),
            "chi_pgl_irr":
                None if self.chi_pgl_irr is None else str(self.chi_pgl_irr),
            "s_coeffs_A": [str(c) for c in self.s_coeffs],
            "positive": self.positive,
        }


class CharVarTable(NamedTuple):
    m: int
    dmax: int
    rows: tuple


def build_table(m: int, dmax: int = None) -> CharVarTable:
    """Full table for d = 1..dmax; coefficient lists are the JSON contract."""
    if dmax is None:
        dmax = default_dmax(m)
    reps = rep_series(m, dmax)
    irrs = abs_irr_series(m, dmax)
    inds = abs_ind_series(m, dmax)
    orbs = orbit_series(m, dmax)
    rows = []
    for d in range(1, dmax + 1):
        a = reps.coeff(d)
        cs = tuple(expand_in_s(a))
        if m >= 2:
            chi, chi_irr = euler_characteristics(m, d)
        else:
            chi = chi_irr = None
        rows.append(TableRow(
            d=d,
            rep_count=a,
            abs_irr=irrs.coeff(d),
            abs_ind=inds.coeff(d),
            orbits=orbs.coeff(d),
            chi_pgl=chi,
            chi_pgl_irr=chi_irr,
            s_coeffs=cs,
            positive=_nonnegative_ints(cs),
        ))
    return CharVarTable(m=m, dmax=dmax, rows=tuple(rows))


__all__ = [
    "IntegralityError", "CharVarTable", "TableRow",
    "default_dmax", "qpochhammer_series", "rep_series", "abs_irr_series",
    "abs_ind_series", "orbit_series", "class_weight_series",
    "centralizer_weight", "rep_counts", "abs_irr_counts", "abs_ind_counts",
    "orbit_counts", "e_polynomial", "uv_str", "euler_characteristics",
    "s_positive", "build_table",
]
