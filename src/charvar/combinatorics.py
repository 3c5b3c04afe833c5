"""Permutation statistics, subgroup growth, and the symmetric-group census.

Three strands, all exact:

  * inversion statistics on tuples of permutations: the length generating
    polynomial of S_n is the q-factorial (Macdonald), and the connected
    tuples (those leaving no proper initial segment {1..k} invariant)
    reproduce the coefficients of 1 - 1/(sum_n [n]_q!^(m-1) t^n);
  * counts of index-n subgroups of the free group on m generators, both
    from the logarithm of sum_n (n!)^(m-1) x^n and from the classical
    recursion (Hall), plus the exact q -> 1 limit transform that recovers
    them from the absolutely irreducible matrix counts;
  * the census of m-tuples of permutations up to simultaneous conjugation,
    i.e. degree-n actions of the free group: orbit counts, transitive
    classes, and automorphism weights, cross-checked against the subgroup
    counts and two exponential identities.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterable, List, NamedTuple, Tuple

from .arith import divisors
from .counting import abs_irr_counts
from .plethystic import Exp, series_exp, series_log
from .qpoly import QPoly, ONE, ZERO, _dot, limit_at_1, q
from .tseries import TSeries

Perm = Tuple[int, ...]
PermTuple = Tuple[Perm, ...]


class SizeGuardError(RuntimeError):
    """A brute-force enumeration would exceed its size budget."""


class IdentityError(ArithmeticError):
    """A brute-force computation contradicted an identity it must satisfy."""


# -- inversion statistics ------------------------------------------------------


def inversions(perm: Perm) -> int:
    """Number of pairs i < j with perm[i] > perm[j]."""
    n = len(perm)
    return sum(1 for i in range(n) for j in range(i + 1, n)
               if perm[i] > perm[j])


def q_int(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return QPoly([1] * n)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> QPoly:
    """[n]_q! = prod_{i=1..n} [i]_q."""
    return ONE if n == 0 else q_factorial(n - 1) * q_int(n)


def length_gen_poly(n: int) -> QPoly:
    """Sum of q^inversions over all of S_n (equals the q-factorial)."""
    acc = ZERO
    for perm in itertools.permutations(range(n)):
        acc = acc + q ** inversions(perm)
    return acc


# -- connected tuples and the inversion identity -------------------------------


def _invariant_prefixes(tup: PermTuple, n: int) -> List[int]:
    # k in 1..n-1 with every permutation mapping {0..k-1} to itself setwise
    out = []
    running_max = [0] * len(tup)
    for k in range(1, n):
        ok = True
        for i, perm in enumerate(tup):
            running_max[i] = max(running_max[i], perm[k - 1])
            if running_max[i] >= k:
                ok = False
        if ok:
            out.append(k)
    return out


def is_connected(tup: PermTuple, n: int) -> bool:
    """No proper initial segment {1..k}, k < n, is invariant under all."""
    return not _invariant_prefixes(tup, n)


def connected_tuples(n: int, m: int) -> List[PermTuple]:
    """All connected (m-1)-tuples in S_n^(m-1), lexicographic order."""
    if n < 1 or m < 2:
        raise ValueError("connected tuples need n >= 1 and m >= 2")
    if factorial(n) ** (m - 1) > 400_000:
        raise SizeGuardError(f"S_{n}^{m - 1} is too large to enumerate")
    perms = list(itertools.permutations(range(n)))
    return [tup for tup in itertools.product(perms, repeat=m - 1)
            if is_connected(tup, n)]


def connected_weight_poly(n: int, m: int) -> QPoly:
    """Sum of q^(total inversions) over connected (m-1)-tuples."""
    acc = ZERO
    for tup in connected_tuples(n, m):
        acc = acc + q ** sum(inversions(p) for p in tup)
    return acc


def connected_weight_series(m: int, order: int) -> TSeries:
    """The same weights from series inversion, all n <= order at once.

    (sum_n [n]_q!^(m-1) t^n)^(-1) = 1 - sum_{n>=1} a_n t^n, so a_n is
    minus the t^n-coefficient of the inverse.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    base = TSeries(order, [q_factorial(n) ** (m - 1) for n in range(order + 1)])
    inv = base.inverse()
    return TSeries(order, [ZERO] + [-inv.coeff(n) for n in range(1, order + 1)])


# -- subgroup counts -----------------------------------------------------------


def subgroup_counts(m: int, nmax: int) -> List[int]:
    """[J_1..J_nmax]: numbers of index-n subgroups of the free group F_m.

    J_n = n * [x^n] log(sum_{n>=0} (n!)^(m-1) x^n); exactness of the
    integer division is checked.
    """
    if m < 1:
        raise ValueError("m >= 1 required")
    if nmax < 0:
        raise ValueError("need nmax >= 0")
    g = TSeries(nmax, [factorial(n) ** (m - 1) for n in range(nmax + 1)])
    lg = series_log(g)
    out = []
    for n in range(1, nmax + 1):
        c = lg.coeff(n)
        val = Fraction(c.constant) * n
        if not c.is_scalar or val.denominator != 1:
            raise ArithmeticError(f"subgroup count J_{n} came out non-integral")
        out.append(int(val))
    return out


def hall_subgroup_counts(m: int, nmax: int) -> List[int]:
    """Same numbers by the classical recursion
    J_n = n (n!)^(m-1) - sum_{k<n} ((n-k)!)^(m-1) J_k."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if nmax < 0:
        raise ValueError("need nmax >= 0")
    out: List[int] = []
    for n in range(1, nmax + 1):
        val = n * factorial(n) ** (m - 1)
        for k in range(1, n):
            val -= factorial(n - k) ** (m - 1) * out[k - 1]
        out.append(val)
    return out


def limit_transform(m: int, nmax: int) -> List[Fraction]:
    """Exact q -> 1 limits recovering J_n/n from the matrix counts.

    The x^n-coefficient of the transformed absolutely-irreducible series is
    sum_{kj=n} (1/k) * irr_j(q^k) / ((q^k - 1)(q - 1)^(n(m-1))), a rational
    function whose pole at q = 1 cancels only in the full divisor sum; the
    summed limit equals J_n/n.  Over the common denominator
    (q - 1)^(n(m-1)) prod_{k|n} (q^k - 1) the sum is one quotient of
    polynomials, and limit_at_1 raises PoleError if the pole survives.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    irr = abs_irr_counts(m, nmax)
    out = []
    for n in range(1, nmax + 1):
        ks = divisors(n)
        cyclic = [q ** k - 1 for k in ks]
        num = _dot((irr[n // k].adams(k) * Fraction(1, k),
                    prod(cyclic[:i] + cyclic[i + 1:], start=ONE))
                   for i, k in enumerate(ks))
        den = prod(cyclic, start=(q - 1) ** (n * (m - 1)))
        out.append(Fraction(limit_at_1(num, den)))
    return out


# -- the census of symmetric-group representations ------------------------------


def _conj(g: Perm, s: Perm) -> Perm:
    # g . s . g^-1 in one-line notation
    out = [0] * len(g)
    for i, si in enumerate(s):
        out[g[i]] = g[si]
    return tuple(out)


def _is_transitive(tup: PermTuple, n: int) -> bool:
    # orbit of 0 under the generated subgroup; forward closure suffices
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for perm in tup:
            y = perm[x]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen) == n


class CensusRow(NamedTuple):
    n: int
    m: int
    total: int               # all tuples: (n!)^m
    orbit_count: int          # conjugation orbits
    transitive_count: int     # orbits acting transitively
    aut_weight: Fraction      # sum over transitive orbits of 1/|Aut|
    aut_weight_all: Fraction  # same sum over all orbits; equals (n!)^(m-1)


@lru_cache(maxsize=None)
def perm_rep_census(n: int, m: int) -> CensusRow:
    """Brute-force census of S_n^m up to simultaneous conjugation.

    |Aut| of a class is the centralizer order n!/(orbit size); the first
    tuple met in lexicographic sweep order is each orbit's least element.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    total = factorial(n) ** m
    if total > 4_000_000:
        raise SizeGuardError(f"census of S_{n}^{m} is too large")
    perms = list(itertools.permutations(range(n)))
    nfact = len(perms)
    visited = set()
    orbit_count = 0
    transitive_count = 0
    aut_weight = Fraction(0)
    aut_weight_all = Fraction(0)
    for tup in itertools.product(perms, repeat=m):
        if tup in visited:
            continue
        orbit = {tuple(_conj(g, s) for s in tup) for g in perms}
        visited.update(orbit)
        orbit_count += 1
        # |Aut| is the centralizer order n!/|orbit|
        aut_weight_all += Fraction(1, nfact // len(orbit))
        if _is_transitive(tup, n):
            transitive_count += 1
            aut_weight += Fraction(1, nfact // len(orbit))
    if aut_weight_all != Fraction(total, nfact):
        raise IdentityError("identity violated")
    return CensusRow(n=n, m=m, total=total, orbit_count=orbit_count,
                     transitive_count=transitive_count, aut_weight=aut_weight,
                     aut_weight_all=aut_weight_all)


def census_series_checks(nmax: int, m: int) -> dict:
    """Cross-check the census against the exponential identities.

    With G(t) = sum of aut-weighted counts over all orbits (degree n
    coefficient (n!)^(m-1)), R(t) = sum of plain orbit counts, I(t) = sum
    of transitive orbit counts and W(t) = sum of transitive aut weights:
    G = exp(W), R = Exp(I), and the weight of degree n equals J_n/n.
    """
    rows = [perm_rep_census(n, m) for n in range(1, nmax + 1)]
    g = TSeries(nmax, [1] + [row.aut_weight_all for row in rows])
    r = TSeries(nmax, [1] + [row.orbit_count for row in rows])
    i = TSeries(nmax, [0] + [row.transitive_count for row in rows])
    w = TSeries(nmax, [0] + [row.aut_weight for row in rows])
    j = subgroup_counts(m, nmax)
    return {
        "weighted_exp": g == series_exp(w),
        "plethystic_exp": r == Exp(i),
        "weights_are_subgroup_counts": all(
            rows[n - 1].aut_weight == Fraction(j[n - 1], n)
            for n in range(1, nmax + 1)),
    }
