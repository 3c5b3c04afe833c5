"""Small number-theoretic helpers, partition generation, and the errors
that every layer's size guards and identity checks raise.

Everything here works on arguments bounded by a series truncation order or
a matrix size, so plain trial division is enough; no sieves.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Tuple


class SizeGuardError(RuntimeError):
    """A brute-force enumeration would exceed its size budget."""


class IdentityError(ArithmeticError):
    """A brute-force computation contradicted an identity it must satisfy."""


def _require(holds: bool, message: str = "identity violated") -> None:
    # an explicit raise, unlike assert, survives python -O
    if not holds:
        raise IdentityError(message)


def _exceeds(factors: Iterable[int], length: int, limit: int) -> bool:
    """prod(factors)**length > limit or length > limit, for length >= 1,
    without building either number: factors are multiplied in one at a
    time up to the first partial product past the limit."""
    base = 1
    for f in factors:
        base *= f
        if base > limit:
            return True
    power = 1
    for _ in range(length if base > 1 else 0):   # 1**length never passes
        power *= base
        if power > limit:
            return True
    return length > limit


def factorize(n: int) -> list:
    """Prime factorization as [(p, multiplicity), ...], n >= 1."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [(n, 1)]


def divisors(n: int) -> list:
    """All positive divisors of n, increasing."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def totient(n: int) -> int:
    t = n
    for p, _ in factorize(n):
        t = t // p * (p - 1)
    return t


@lru_cache(maxsize=None)
def partitions(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All partitions of n as weakly decreasing tuples, reverse-lex order.

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    >>> partitions(0)
    ((),)
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    return tuple(_partitions_capped(n, n))


def _partitions_capped(n: int, cap: int) -> Iterator[Tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions_capped(n - first, first):
            yield (first,) + rest
