"""Exact polynomials in q.

Dense univariate polynomials over the rationals, and two change-of-basis
tools used throughout the counting machinery: expansion in powers of
s = q - 1, and exact limits at q = 1 of a quotient of two polynomials
whose singularity there is removable.

Coefficients are ints or fractions.Fraction (anything else, a float or a
string, raises TypeError), stored as plain ints whenever the value is an
integer.  Everything here is exact; no floating point is used anywhere.

The counting pipeline spends nearly all of its time multiplying and adding
integer polynomials, so the int case is the fast path:

- normalising a coefficient tests ``type(c) is int`` before any Fraction
  work (an isinstance check against Fraction goes through the abc
  machinery and costs several times more), so sums and scalar multiples
  of int polynomials pay one type test per coefficient;
- negation, q -> q^n, shift (times q^k), division by an int that
  divides every coefficient and the product of two int polynomials give a
  canonical result by construction, so a trusted constructor, private to
  this module, builds it and only strips trailing zeros; every other
  result involving a Fraction is normalised as before, so an integral
  Fraction still comes out as an int;
- the series kernels spend their time in sums of products, which _dot
  forms as one packed Kronecker sum when every factor has int
  coefficients: one slot width for the whole sum, each factor packed once
  for it into a big integer and the packing kept on the QPoly (only the
  last width's), the packed products added as integers and the sum
  unpacked once.  A sum with any Fraction coefficient multiplies pair by
  pair instead; that is the one fallback.  A product of two int
  polynomials whose shorter factor has at least _KRONECKER_MIN_TERMS
  terms is the one-pair _dot; shorter int factors and every factor with a
  Fraction coefficient use the schoolbook product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from operator import add, methodcaller
from typing import Callable, Iterable, Union

Scalar = Union[int, Fraction]


class ExactDivisionError(ArithmeticError):
    """Division that was required to be exact left a nonzero remainder."""


class PoleError(ArithmeticError):
    """Evaluation or limit taken at a genuine pole."""


def _norm(c: Scalar) -> Scalar:
    # collapse integral Fractions to int; keeps hashing and repr canonical
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _coefficient(c) -> Scalar:
    # an exact coefficient in canonical form; bool and other int subclasses
    # become plain ints, and anything inexact (float, str, ...) is refused
    if isinstance(c, Fraction):
        return _norm(c)
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"cannot use {c!r} as a QPoly coefficient")


def _all_int(cs) -> bool:
    # exact type: bool and other int subclasses take the normalising path
    return set(map(type, cs)) <= {int}


def _trusted(cs: list) -> "QPoly":
    """QPoly from coefficients already in canonical form; strips zeros only."""
    while cs and cs[-1] == 0:
        cs.pop()
    p = object.__new__(QPoly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


# Shortest factor, in terms, for which an int product is the one-pair _dot
# (Kronecker substitution) instead of the schoolbook loop.
# Measured on CPython 3.11, 2-vCPU x86-64: on dense random factors the big
# multiply wins from about 12 terms; the schoolbook loop skips zero terms,
# which favours it on sparse factors such as q^j - 1; the polys and verify
# commands ran equally fast, within noise, for thresholds from 8 to 24.
_KRONECKER_MIN_TERMS = 16


def _schoolbook_mul(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


# Kronecker substitution.  An int polynomial c is packed as the integer
# c(2^(8 width)): one slot of width bytes per coefficient.  If every
# coefficient of a result lies strictly inside +-2^(8 width - 1) ("half"),
# adding half to every slot makes all its slots nonnegative and below
# 2^(8 width), so the slots are written and read as plain bytes, without
# carries.  Packing is linear, so the packed product of two polynomials is
# the product of their packings and a packed sum of products is the sum of
# the packed products.


def _slot_width(bound: int) -> int:
    """Bytes per slot for coefficients of absolute value at most bound."""
    return bound.bit_length() // 8 + 1          # 8 * width >= bits + 1


def _offsets(width: int, n: int) -> int:
    # half in each of n slots
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * n,
                          "little")


def _kron_pack(cs, width: int) -> int:
    """sum c_i 2^(8 width i) over a sequence of ints inside +-half."""
    half = 1 << (8 * width - 1)
    shifted = b"".join(map(methodcaller("to_bytes", width, "little"),
                           map(half.__add__, cs)))
    return int.from_bytes(shifted, "little") - _offsets(width, len(cs))


def _kron_unpack(packed: int, width: int, n: int) -> list:
    """The n coefficients inside +-half of a packed polynomial."""
    half = 1 << (8 * width - 1)
    raw = (packed + _offsets(width, n)).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half
            for i in range(0, width * n, width)]


class QPoly:
    """Immutable polynomial in q with exact rational coefficients.

    Coefficients are dense, lowest degree first, no trailing zeros; the
    zero polynomial has an empty coefficient tuple.

    >>> p = QPoly([-1, 0, 1])          # q^2 - 1
    >>> p * p == QPoly([1, 0, -2, 0, 1])
    True
    >>> p(3)
    8
    >>> str(QPoly([1, -2, 1]))
    'q^2 - 2*q + 1'
    """

    # _maxabs and _packing memoise the packed form of _dot; both are unset
    # until the first _dot that reads them and never enter __eq__ or __hash__
    __slots__ = ("coeffs", "_maxabs", "_packing")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if type(c) is int else _coefficient(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def constant(self) -> Scalar:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(isinstance(c, int) for c in self.coeffs)

    @property
    def is_scalar(self) -> bool:
        return len(self.coeffs) <= 1

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return len(self.coeffs) <= 1 and self.constant == other
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.constant)   # consistent with scalar equality
        return hash(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QPoly":
        return _trusted([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, QPoly):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + QPoly((-other,))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if other == 0:
                return ZERO
            return QPoly([c * other for c in a])
        b = other.coeffs
        if not a or not b:
            return ZERO
        if _all_int(a) and _all_int(b):
            if min(len(a), len(b)) >= _KRONECKER_MIN_TERMS:
                return _dot(((self, other),))
            return _trusted(_schoolbook_mul(a, b))
        return QPoly(_schoolbook_mul(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a QPoly")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other: "QPoly"):
        if isinstance(other, (int, Fraction)):
            other = QPoly((other,))
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return ZERO, self
        quot = [0] * (dn - dd + 1)
        lead = other.coeffs[-1]
        for i in range(dn, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = _norm(Fraction(c, lead)) if lead != 1 else c
            quot[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] -= f * oc
        return QPoly(quot), QPoly(rem)

    def divexact(self, other: "QPoly") -> "QPoly":
        """Exact quotient; raises ExactDivisionError on nonzero remainder."""
        quot, rem = divmod(self, other)
        if not rem.is_zero:
            raise ExactDivisionError(f"({self}) is not divisible by ({other})")
        return quot

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            if type(other) is int and all(type(c) is int and not c % other
                                          for c in self.coeffs):
                return _trusted([c // other for c in self.coeffs])
            inv = Fraction(1, 1) / other
            return QPoly(tuple(c * inv for c in self.coeffs))
        if isinstance(other, QPoly):
            return ratio(self, other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ratio(QPoly((other,)), self)
        return NotImplemented

    # -- evaluation and substitution ----------------------------------------

    def evaluate(self, x: Scalar) -> Scalar:
        """Exact value at q = x (Horner)."""
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm(acc)

    __call__ = evaluate

    def adams(self, n: int) -> "QPoly":
        """Substitute q -> q^n, n >= 1."""
        if n < 1:
            raise ValueError("adams operation needs n >= 1")
        if n == 1 or self.is_zero:
            return self
        out = [0] * (self.degree * n + 1)
        out[::n] = self.coeffs
        return _trusted(out)

    def shift(self, k: int) -> "QPoly":
        """Multiply by q^k, k >= 0.

        >>> (q - 1).shift(2) == q ** 3 - q ** 2
        True
        """
        if k < 0:
            raise ValueError("shift needs k >= 0")
        if k == 0 or not self.coeffs:
            return self
        return _trusted([0] * k + list(self.coeffs))

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return poly_str(self)

    def __repr__(self) -> str:
        return f"QPoly({poly_str(self)})"


ZERO = QPoly()
ONE = QPoly((1,))
q = QPoly((0, 1))


def _max_abs(p: QPoly):
    """max|c| over the coefficients of p when all are ints, else None."""
    try:
        return p._maxabs
    except AttributeError:
        cs = p.coeffs
        bound = max(map(abs, cs), default=0) if _all_int(cs) else None
        object.__setattr__(p, "_maxabs", bound)
        return bound


def _packed(p: QPoly, width: int):
    """(v, P) with p = q^v r, r(0) != 0 and P = r packed in width-byte slots.

    Only the packing for the last width asked for is kept.
    """
    memo = getattr(p, "_packing", None)
    if memo is None or memo[0] != width:
        cs = p.coeffs
        v = 0
        while not cs[v]:
            v += 1
        memo = (width, v, _kron_pack(cs[v:], width))
        object.__setattr__(p, "_packing", memo)
    return memo[1], memo[2]


def _dot(pairs) -> QPoly:
    """Sum of a * b over the (a, b) pairs of QPolys with both factors nonzero.

    The one sum-of-products loop of the series kernels (series product and
    inverse, the Log and Exp recurrences, the class-weight recurrence, the
    numerator of the q -> 1 limit).  When every factor has int
    coefficients it is one packed Kronecker sum: the sum over the pairs
    of max|a| max|b| min(len a, len b) bounds every coefficient of the
    result, so one slot width serves all pairs; each factor is packed
    once for that width (memoised on the QPoly, its leading zeros kept as
    a shift applied after the multiply), the packed products are added as
    integers, and the sum is unpacked once per coefficient.  If any factor
    has a Fraction coefficient, the pairs are multiplied one by one and
    added into a coefficient list, normalised once at the end.

    >>> _dot([(q, q), (ZERO, q), (ONE, q - 1)]) == q ** 2 + q - 1
    True
    """
    pairs = [(a, b) for a, b in pairs if a.coeffs and b.coeffs]
    bound = 0
    for a, b in pairs:
        ma, mb = _max_abs(a), _max_abs(b)
        if ma is None or mb is None:
            return _pairwise_dot(pairs)
        bound += ma * mb * min(len(a.coeffs), len(b.coeffs))
    if not pairs:
        return ZERO
    width = _slot_width(bound)
    terms = []
    for a, b in pairs:
        va, pa = _packed(a, width)
        vb, pb = _packed(b, width)
        terms.append((va + vb, pa * pb))
    low = min(v for v, _ in terms)
    total = sum(prod << (8 * width * (v - low)) for v, prod in terms)
    n = max(len(a.coeffs) + len(b.coeffs) for a, b in pairs) - 1 - low
    return _trusted([0] * low + _kron_unpack(total, width, n))


def _pairwise_dot(pairs) -> QPoly:
    # _dot over nonzero pairs, one QPoly product at a time
    out = []
    for a, b in pairs:
        cs = (a * b).coeffs
        if len(out) < len(cs):
            out.extend([0] * (len(cs) - len(out)))
        out[:len(cs)] = map(add, out, cs)
    return QPoly(out)


def poly_str(p: QPoly, var: str = "q") -> str:
    """Human-readable form, highest degree first: 'q^3 - 2*q + 1'."""
    return _poly_str(p, lambda k: var if k == 1 else f"{var}^{k}")


def _poly_str(p: QPoly, monomial: Callable[[int], str]) -> str:
    # monomial(k) renders the k-th power of the variable, k >= 1
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}{monomial(k)}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def expand_in_s(p: QPoly) -> list:
    """Coefficients c_0..c_k with p = sum c_k (q-1)^k.

    Repeated synthetic division by (q - 1); exact.  With the coefficients
    listed from the top down, one division is a running sum: the last sum
    is the remainder, the value at q = 1, and the others are the quotient,
    again from the top down.  The zero polynomial yields an empty list.

    >>> expand_in_s(QPoly([1, -2, 1]))   # (q-1)^2
    [0, 0, 1]
    """
    top_down = p.coeffs[::-1]
    out = []
    while top_down:
        top_down = list(accumulate(top_down))
        out.append(_norm(top_down.pop()))
    return out


def _div_by_s_power(p: QPoly, k: int) -> QPoly:
    """The exact quotient p / (q-1)^k; raises ExactDivisionError on a remainder.

    k synthetic divisions by q - 1, each one running sum over the
    coefficients from the top down, as in expand_in_s.

    >>> _div_by_s_power(q ** 3 - q ** 2 - q + 1, 2) == q + 1
    True
    """
    top_down = p.coeffs[::-1]
    for _ in range(k):
        top_down = list(accumulate(top_down))
        if top_down and top_down.pop():
            raise ExactDivisionError(f"({p}) is not divisible by (q - 1)^{k}")
    return QPoly(top_down[::-1])


def ratio(num: QPoly, den: QPoly) -> QPoly:
    """The exact quotient num/den; raises ExactDivisionError on a remainder.

    >>> ratio(q ** 2 - 1, q - 1) == q + 1
    True
    """
    return num.divexact(den)


def limit_at_1(num: QPoly, den: QPoly = ONE) -> Scalar:
    """Exact limit of num(q)/den(q) as q -> 1.

    In powers of s = q - 1, the limit is the quotient of the lowest nonzero
    coefficients of num and den when both sit at the same power of s, and 0
    when the one of num sits higher; a lower one is a genuine pole and
    raises PoleError.  No common factor needs to be cancelled first.

    >>> limit_at_1(q ** 2 - 1, q - 1)
    2
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return 0
    vn, cn = next((k, c) for k, c in enumerate(expand_in_s(num)) if c)
    vd, cd = next((k, c) for k, c in enumerate(expand_in_s(den)) if c)
    if vn < vd:
        raise PoleError(f"pole of order {vd - vn} at q = 1")
    if vn > vd:
        return 0
    return _norm(Fraction(cn) / cd)
