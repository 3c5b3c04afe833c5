"""Truncated formal power series in t over exact q-coefficients.

A TSeries carries its truncation order explicitly: it stores order + 1
coefficients and represents an element of Q[q][[t]] modulo t^(order+1).
Binary operations truncate to the smaller order, so precision can only
shrink, never silently extend.  Every coefficient is a QPoly; a scalar c
is taken as the constant QPoly((c,)), so QPoly's rule on exact
coefficients is the one rule here too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .qpoly import QPoly, ZERO, ONE, _dot


class TSeries:
    """Power series sum c_d t^d, d = 0..order, with exact coefficients.

    >>> f = TSeries.from_terms(3, {0: 1, 1: -1})      # 1 - t, order 3
    >>> f.inverse().coeffs == (ONE, ONE, ONE, ONE)    # geometric series
    True
    """

    __slots__ = ("coeffs",)

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [c if isinstance(c, QPoly) else QPoly((c,)) for c in coeffs]
        if len(cs) > order + 1:
            raise ValueError("more coefficients than the order allows")
        cs.extend([ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TSeries is immutable")

    @staticmethod
    def from_terms(order: int, terms: dict) -> "TSeries":
        """The series sum c t^d over the {d: c} terms; terms past the order
        are dropped, and a negative d raises ValueError."""
        cs = [ZERO] * (order + 1)
        for d, c in terms.items():
            if d < 0:
                raise ValueError(f"a power series has no term t^{d}")
            if d <= order:
                cs[d] = c
        return TSeries(order, cs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> QPoly:
        """Coefficient of t^d (zero for d < 0 and beyond the order)."""
        return self.coeffs[d] if 0 <= d <= self.order else ZERO

    @property
    def constant(self) -> QPoly:
        return self.coeffs[0]

    def truncate(self, order: int) -> "TSeries":
        if order >= self.order:
            return self
        return TSeries(order, self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            other = TSeries.from_terms(self.order, {0: other})
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TSeries(n, tuple(self.coeffs[d] + other.coeffs[d]
                                for d in range(n + 1)))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return TSeries(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, TSeries):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return TSeries(n, [_dot((a[i], b[k - i]) for i in range(k + 1))
                           for k in range(n + 1)])

    __rmul__ = __mul__

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
        return TSeries(self.order, [c.shift((m - 1) * (d * (d - 1) // 2))
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

