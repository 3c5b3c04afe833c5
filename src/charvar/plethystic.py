"""Plethystic calculus on truncated series.

The operators here act on TSeries with QPoly coefficients:

    psi_n   : q -> q^n, t -> t^n                       (Adams operation)
    Psi     = sum_{n>=1} psi_n / n
    Psi_inv = sum_{n>=1} mu(n) psi_n / n
    Exp     = exp . Psi          (plethystic exponential)
    Log     = Psi_inv . log      (plethystic logarithm)
    Pow(f, g)        = Exp(g * Log(f))
    pow_scalar(f, g) = exp(g * log(f))   (ordinary scalar power)

Exp and Log are mutually inverse bijections between series with zero
constant term and series with constant term 1, and Exp(f+g) = Exp(f)Exp(g).

Every operator runs on numerators, n times the t^n-coefficient, so that
no recurrence divides.  For f with constant term 1, g with zero constant
term, mu the Moebius function and psi_d the Adams operation on a
coefficient:

    H_n = n f_n - sum_{k<n} H_k f_{n-k}        H = t f'/f, n [t^n] log f
    L_n = sum_{d|n} mu(d) psi_d(H_{n/d})       n [t^n] Log f
    P_n = sum_{d|n} psi_d((n/d) g_{n/d})       n [t^n] Psi g
    n e_n = sum_{k=1..n} P_k e_{n-k}           e = exp of sum P_n t^n / n

Exp feeds the P_n of g to the last recurrence, Pow(f, c) the numbers
sum_{d|n} psi_d(c L_{n/d}), pow_scalar(f, c) the numbers c H_n; Log and
psi_inv divide the Moebius-weighted sums by n, series_log and psi the
unweighted ones.  Each coefficient is divided by n once, at the end, by
QPoly's `/ n`.  The recurrences only add and multiply, so integer inputs
give integer numerators; the counting pipeline feeds in integer
polynomials and every Log and Pow it takes is integral, so n divides each
numerator, `/ n` keeps its int coefficients and the whole computation
stays in int.  Only a coefficient that is not integral becomes
Fraction-valued.

Pow(f, 1-q) also has a product expansion over Adams images,

    Pow(f, 1-q) = prod_{d>=1} psi_d(f)^(-Phi_d(q)),

where Phi_d(q) = (1/d) sum_{e|d} mu(d/e) (q^e - 1) counts monic irreducible
degree-d polynomials over a field with q elements that have nonzero
constant term.  pow_product implements the right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .arith import divisors, mobius
from .qpoly import QPoly, ZERO, ONE, _dot, q
from .tseries import TSeries

ScalarLike = Union[int, Fraction, QPoly]


def _require_zero_constant(f: TSeries, who: str) -> None:
    if f.constant:
        raise ValueError(f"{who} needs a series with zero constant term")


def _require_unit_constant(f: TSeries, who: str) -> None:
    if f.constant != ONE:
        raise ValueError(f"{who} needs a series with constant term 1")


def _index_times(f: TSeries) -> list:
    # [n f_n]: numerators of a series whose t^n-coefficient is f_n
    return [c * n for n, c in enumerate(f.coeffs)]


def _over_index(nums: list) -> TSeries:
    # the series with t^n-coefficient nums[n] / n and zero constant term
    order = len(nums) - 1
    return TSeries(order, [ZERO] + [nums[n] / n for n in range(1, order + 1)])


def _adams_sum(nums: list, mobius_weighted: bool) -> list:
    """[0, S_1, ..., S_N] with S_n = sum_{d|n} w(d) psi_d(nums[n/d]).

    w is the Moebius function when mobius_weighted, else 1; psi_d is
    q -> q^d on a coefficient.  nums[0] is ignored.
    """
    order = len(nums) - 1
    out = [ZERO] * (order + 1)
    for k in range(1, order + 1):
        c = nums[k]
        if not c:
            continue
        for d in range(1, order // k + 1):
            w = mobius(d) if mobius_weighted else 1
            if w > 0:
                out[k * d] = out[k * d] + c.adams(d)
            elif w < 0:
                out[k * d] = out[k * d] - c.adams(d)
    return out


def _log_numerators(f: TSeries, who: str) -> list:
    """[0, H_1, ..., H_N] with H_n = n f_n - sum_{k<n} H_k f_{n-k}.

    H = t f'/f, so H_n = n [t^n] log f; the recurrence never divides.
    """
    _require_unit_constant(f, who)
    c = f.coeffs
    h = [ZERO] * (f.order + 1)
    for n in range(1, f.order + 1):
        h[n] = c[n] * n - _dot((h[k], c[n - k]) for k in range(1, n))
    return h


def _exp_of_numerators(nums: list) -> TSeries:
    """exp of the series with t^n-coefficient nums[n] / n, n >= 1.

    Recurrence n e_n = sum_{k=1..n} nums[k] e_{n-k}, from t e' = N e with
    N = sum_n nums[n] t^n; the only division is the exact one by n per
    coefficient.
    """
    order = len(nums) - 1
    e = [ONE] + [ZERO] * order
    for n in range(1, order + 1):
        e[n] = _dot((nums[k], e[n - k]) for k in range(1, n + 1)) / n
    return TSeries(order, e)


def psi(f: TSeries) -> TSeries:
    """Psi = sum_{n>=1} psi_n/n applied to a series without constant term."""
    _require_zero_constant(f, "Psi")
    return _over_index(_adams_sum(_index_times(f), False))


def psi_inv(f: TSeries) -> TSeries:
    """Inverse of Psi: sum_{n>=1} mu(n) psi_n / n."""
    _require_zero_constant(f, "Psi_inv")
    return _over_index(_adams_sum(_index_times(f), True))


def series_exp(f: TSeries) -> TSeries:
    """Ordinary exp of a series with zero constant term."""
    _require_zero_constant(f, "series_exp")
    return _exp_of_numerators(_index_times(f))


def series_log(f: TSeries) -> TSeries:
    """Ordinary log of a series with constant term 1."""
    return _over_index(_log_numerators(f, "series_log"))


def Exp(f: TSeries) -> TSeries:
    """Plethystic exponential exp . Psi."""
    _require_zero_constant(f, "Exp")
    return _exp_of_numerators(_adams_sum(_index_times(f), False))


def Log(g: TSeries) -> TSeries:
    """Plethystic logarithm Psi_inv . log; inverse of Exp."""
    return _over_index(_adams_sum(_log_numerators(g, "Log"), True))


def pow_scalar(f: TSeries, g: ScalarLike) -> TSeries:
    """Ordinary power f^g = exp(g log f) for a scalar exponent g."""
    return _exp_of_numerators([h * g for h in _log_numerators(f, "pow_scalar")])


def Pow(f: TSeries, g: ScalarLike) -> TSeries:
    """Plethystic power Pow(f, g) = Exp(g Log(f))."""
    logs = _adams_sum(_log_numerators(f, "Pow"), True)
    return _exp_of_numerators(_adams_sum([c * g for c in logs], False))


def irreducible_poly_count(d: int) -> QPoly:
    """Phi_d(q) = (1/d) sum_{e|d} mu(d/e)(q^e - 1), as an exact polynomial.

    Counts monic irreducible degree-d polynomials with nonzero constant
    term over a field with q elements; coefficients may be non-integral
    rationals (d * Phi_d always has integer coefficients).

    >>> irreducible_poly_count(1) == q - 1
    True
    >>> irreducible_poly_count(2) == (q * q - q) * Fraction(1, 2)
    True
    """
    if d < 1:
        raise ValueError("irreducible_poly_count needs d >= 1")
    acc = ZERO
    for e in divisors(d):
        mu = mobius(d // e)
        if mu:
            acc = acc + (q ** e - 1) * mu
    return acc / d


def pow_product(f: TSeries) -> TSeries:
    """Product expansion prod_{d=1..order} psi_d(f)^(-Phi_d), truncated.

    Factors with d larger than the truncation order differ from 1 only
    beyond the order, so the product stops at d = f.order.
    """
    _require_unit_constant(f, "pow_product")
    acc = TSeries(f.order, [1])
    for d in range(1, f.order + 1):
        acc = acc * pow_scalar(f.adams(d), -irreducible_poly_count(d))
    return acc
