"""Truncated formal power series in t over exact q-coefficients.

A TSeries carries its truncation order explicitly: it represents an element
of Q[q][[t]] modulo t^(order+1).  Binary operations truncate to the smaller
order, so precision can only shrink, never silently extend.  Every
coefficient is a QPoly; int and Fraction scalars are taken as constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .arith import binom2
from .qpoly import QPoly, ZERO, ONE, _dot


def _as_coeff(c) -> QPoly:
    if isinstance(c, QPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return QPoly((c,))
    raise TypeError(f"cannot use {c!r} as a series coefficient")


class TSeries:
    """Power series sum c_d t^d, d = 0..order, with exact coefficients.

    >>> f = TSeries.from_terms(3, {0: 1, 1: -1})      # 1 - t, order 3
    >>> f.inverse().coeffs == (ONE, ONE, ONE, ONE)    # geometric series
    True
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [_as_coeff(c) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the order allows")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    @staticmethod
    def from_terms(order: int, terms: dict) -> "TSeries":
        cs = [ZERO] * (order + 1)
        for d, c in terms.items():
            if d <= order:
                cs[d] = _as_coeff(c)
        return TSeries(order, cs)

    @staticmethod
    def one(order: int) -> "TSeries":
        return TSeries.from_terms(order, {0: 1})

    def coeff(self, d: int) -> QPoly:
        """Coefficient of t^d (zero beyond the truncation order)."""
        return self.coeffs[d] if d <= self.order else ZERO

    @property
    def constant(self) -> QPoly:
        return self.coeffs[0]

    def truncate(self, order: int) -> "TSeries":
        if order >= self.order:
            return self
        return TSeries(order, self.coeffs[: order + 1])

    def map_coeffs(self, fn: Callable[[QPoly], QPoly]) -> "TSeries":
        return TSeries(self.order, tuple(fn(c) for c in self.coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    # -- ring structure ------------------------------------------------------

    def __neg__(self) -> "TSeries":
        return self.map_coeffs(lambda c: -c)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = TSeries.from_terms(self.order, {0: other})
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(n, tuple(self.coeffs[d] + other.coeffs[d]
                                for d in range(n + 1)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = TSeries.from_terms(self.order, {0: other})
        if not isinstance(other, TSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            c = _as_coeff(other)
            return self.map_coeffs(lambda x: x * c)
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TSeries(n, [_dot((a[i], b[k - i]) for i in range(k + 1))
                           for k in range(n + 1)])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TSeries":
        if n < 0:
            return self.inverse() ** (-n)
        result = TSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "TSeries":
        """Multiplicative inverse; requires constant term 1.

        Standard recurrence b_0 = 1, b_k = -sum_{j=1..k} c_j b_{k-j}.
        """
        if self.coeffs[0] != ONE:
            raise ValueError("series inverse needs constant term 1")
        c = self.coeffs
        b = [ONE] + [ZERO] * self.order
        for k in range(1, self.order + 1):
            b[k] = -_dot((c[j], b[k - j]) for j in range(1, k + 1))
        return TSeries(self.order, b)

    # -- substitutions ---------------------------------------------------------

    def adams(self, n: int) -> "TSeries":
        """The n-th Adams operation: q -> q^n and t -> t^n jointly."""
        if n < 1:
            raise ValueError("adams operation needs n >= 1")
        if n == 1:
            return self
        out = [ZERO] * (self.order + 1)
        for j in range(self.order // n + 1):
            out[j * n] = self.coeffs[j].adams(n)
        return TSeries(self.order, out)

    def qpower_twist(self, m: int) -> "TSeries":
        """Scale the t^d coefficient by q^((m-1)*binom(d,2)), m >= 1."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return TSeries(self.order, [c.shift((m - 1) * binom2(d))
                                    for d, c in enumerate(self.coeffs)])

    def __str__(self):
        parts = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            term = f"({c})" if d == 0 else f"({c})*t^{d}"
            parts.append(term)
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.order + 1})"

    def __repr__(self):
        return f"TSeries({self})"

