"""Brute-force verification over small finite fields.

Everything here recomputes, by direct enumeration, quantities that the
series pipeline produces symbolically: conjugation orbits of m-tuples of
invertible matrices over F_p, and the subsets of those orbits that are
absolutely irreducible or absolutely indecomposable.  Matching the two
routes at several primes is strong evidence that the symbolic counts are
polynomials in q evaluated correctly.

The census works class by class: conjugation acts through a table of
index permutations, composed from the conjugations by a few generators of
GL_d(F_p); for each class representative x only the centralizer of x acts
on the remaining entries; and tuples that share a prefix share the linear
algebra that classifies them.

Matrices are flat tuples of length d*d with entries reduced mod p, row
major.  All sizes are deliberately tiny; guards raise SizeGuardError
before anything expensive starts, and an internal count that contradicts
group theory raises IdentityError.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from .arith import factorize, is_prime
from .combinatorics import IdentityError, SizeGuardError

__all__ = [
    "ConjClass", "OracleCensus", "algebra_span_dim", "burnside_orbit_count",
    "conjugacy_classes", "endomorphism_basis", "gl_enumerate", "gl_order",
    "identity", "is_absolutely_indecomposable", "is_absolutely_irreducible",
    "mat_det", "mat_inv", "mat_mul", "orbit_census",
]

# enumeration costs p**(d*d); the census admits |GL_d(F_p)|**max(m, 2)
_ENUM_LIMIT = 100_000
_CLASS_LIMIT = 2_000
_CENSUS_LIMIT = 200_000


def _check_dp(d: int, p: int) -> None:
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")


def identity(d: int) -> tuple:
    return tuple(1 if i == j else 0 for i in range(d) for j in range(d))


def mat_mul(a: tuple, b: tuple, d: int, p: int) -> tuple:
    """Product of two d-by-d matrices over F_p."""
    cols = [b[j::d] for j in range(d)]
    out = []
    for i in range(0, d * d, d):
        row = a[i:i + d]
        for col in cols:
            out.append(sum(map(operator.mul, row, col)) % p)
    return tuple(out)


def mat_det(a: tuple, d: int, p: int) -> int:
    """Determinant mod p by Gaussian elimination."""
    m = [list(a[i * d:(i + 1) * d]) for i in range(d)]
    det = 1
    for c in range(d):
        pivot = next((i for i in range(c, d) if m[i][c] % p), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = (det * m[c][c]) % p
        inv = pow(m[c][c], -1, p)
        for i in range(c + 1, d):
            if m[i][c]:
                f = (m[i][c] * inv) % p
                for j in range(c, d):
                    m[i][j] = (m[i][j] - f * m[c][j]) % p
    return det % p


def mat_inv(a: tuple, d: int, p: int) -> tuple:
    """Inverse of an invertible matrix over F_p.

    Raises ZeroDivisionError if the matrix is singular.
    """
    one = identity(d)
    rows, pivots = _rref([a[i * d:(i + 1) * d] + one[i * d:(i + 1) * d]
                          for i in range(d)], d, p)
    if len(pivots) < d:
        raise ZeroDivisionError("matrix is singular")
    return tuple(x for row in rows for x in row[d:])


def gl_order(d: int, p: int) -> int:
    """Order of the group of invertible d-by-d matrices over F_p."""
    _check_dp(d, p)
    q = p ** d
    out = 1
    for i in range(d):
        out *= q - p ** i
    return out


def _check_enumerable(d: int, p: int) -> None:
    _check_dp(d, p)
    if p ** (d * d) > _ENUM_LIMIT:
        raise SizeGuardError(f"enumerating {p}**{d * d} matrices is too much")


def gl_enumerate(d: int, p: int) -> list:
    """All invertible d-by-d matrices over F_p, in lexicographic order."""
    _check_enumerable(d, p)
    out = [a for a in itertools.product(range(p), repeat=d * d)
           if mat_det(a, d, p) != 0]
    if len(out) != gl_order(d, p):
        raise IdentityError(f"found {len(out)} invertible matrices, "
                            f"expected {gl_order(d, p)}")
    return out


def _generators(d: int, p: int) -> list:
    """Transvections I + E_ij (i != j) and diag(w, 1, ..., 1), w primitive.

    The transvections generate SL_d(F_p) and the powers of the diagonal
    matrix reach every determinant, so together they generate GL_d(F_p).
    """
    one = identity(d)
    gens = [one[:pos] + (1,) + one[pos + 1:]
            for pos in range(d * d) if pos // d != pos % d]
    if p > 2:
        orders = [(p - 1) // r for r, _ in factorize(p - 1)]
        w = next(a for a in range(2, p)
                 if all(pow(a, e, p) != 1 for e in orders))
        gens.append((w,) + one[1:])
    return gens


def _conjugation_table(group: list, d: int, p: int) -> list:
    """conj[g][x] is the index of g x g^-1, for indices into ``group``.

    Only the generators are conjugated by matrix products.  Every other
    row is composed along a breadth-first spanning tree of the Cayley
    graph, since (s h) x (s h)^-1 = s (h x h^-1) s^-1 gives
    conj[s h] = perm_s o conj[h], one list lookup per entry.
    """
    index = {g: i for i, g in enumerate(group)}
    steps = []
    for s in _generators(d, p):
        sinv = mat_inv(s, d, p)
        steps.append((s, tuple(index[mat_mul(mat_mul(s, x, d, p), sinv, d, p)]
                               for x in group)))
    conj = [None] * len(group)
    root = index[identity(d)]
    conj[root] = tuple(range(len(group)))
    reached = [root]
    for h in reached:                # grows while it is read: breadth first
        for s, perm in steps:
            g = index[mat_mul(s, group[h], d, p)]
            if conj[g] is None:
                conj[g] = tuple(map(perm.__getitem__, conj[h]))
                reached.append(g)
    if len(reached) != len(group):
        raise IdentityError(f"generators reached {len(reached)} of "
                            f"{len(group)} group elements")
    return conj


def _classes(conj: list) -> list:
    """(index of the lex-least representative, size) of each class."""
    seen = set()
    out = []
    for x in range(len(conj)):
        if x in seen:
            continue
        orbit = {row[x] for row in conj}
        seen |= orbit
        out.append((x, len(orbit)))
    if sum(size for _, size in out) != len(conj):
        raise IdentityError("conjugacy class sizes do not add up to the "
                            "group order")
    return out


class ConjClass(NamedTuple):
    rep: tuple
    size: int
    centralizer_order: int


def conjugacy_classes(d: int, p: int) -> list:
    """Conjugacy classes of the invertible matrices, lex-least reps first."""
    _check_enumerable(d, p)
    n = gl_order(d, p)
    if n > _CLASS_LIMIT:
        raise SizeGuardError(f"group of order {n} exceeds the class limit")
    group = gl_enumerate(d, p)
    return [ConjClass(rep=group[x], size=size, centralizer_order=n // size)
            for x, size in _classes(_conjugation_table(group, d, p))]


def burnside_orbit_count(d: int, p: int, m: int) -> int:
    """Number of conjugation orbits on m-tuples, via centralizer orders.

    Fixed points of g acting on tuples are the tuples with every entry in
    the centralizer of g, so averaging over the group leaves one power of
    the centralizer order per class.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return sum(c.centralizer_order ** (m - 1) for c in conjugacy_classes(d, p))


def _rref(rows, ncols: int, p: int):
    """Reduced row echelon form; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _nullspace(rows, ncols: int, p: int) -> list:
    red, pivots = _rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][free]) % p
        basis.append(tuple(v))
    return basis


def _echelon_add(basis: list, vec, p: int):
    """Reduce vec by the (pivot, row) basis; append and return it if new.

    Rows are scaled to 1 at their pivot and reduced against the earlier
    rows, so one pass in order clears every pivot of vec.
    """
    v = list(vec)
    for piv, row in basis:
        if v[piv]:
            f = v[piv]
            v = [(x - f * y) % p for x, y in zip(v, row)]
    piv = next((i for i, x in enumerate(v) if x), None)
    if piv is None:
        return None
    inv = pow(v[piv], -1, p)
    row = tuple((x * inv) % p for x in v)
    basis.append((piv, row))
    return row


def algebra_span_dim(mats, d: int, p: int) -> int:
    """Dimension of the unital matrix algebra generated by the tuple.

    Grows an echelon basis by left-multiplying reached elements by the
    generators, starting from the identity; every product of generators
    is reached that way.
    """
    n = d * d
    basis = []
    start = identity(d)
    work = [start]
    _echelon_add(basis, start, p)
    while work and len(basis) < n:
        w = work.pop()
        for x in mats:
            v = mat_mul(x, w, d, p)
            if _echelon_add(basis, v, p) is not None:
                work.append(v)
    return len(basis)


def is_absolutely_irreducible(mats, d: int, p: int) -> bool:
    """True when the tuple generates the full d*d matrix algebra."""
    return algebra_span_dim(mats, d, p) == d * d


def endomorphism_basis(mats, d: int, p: int) -> list:
    """Basis of the algebra of matrices commuting with every tuple entry."""
    rows = []
    for x in mats:
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                # coefficient of e[a][b] in (e*x - x*e)[i][j]
                for b in range(d):
                    row[i * d + b] = (row[i * d + b] + x[b * d + j]) % p
                for a in range(d):
                    row[a * d + j] = (row[a * d + j] - x[i * d + a]) % p
                rows.append(row)
    return _nullspace(rows, d * d, p)


def is_absolutely_indecomposable(mats, d: int, p: int) -> bool:
    """True when the commuting algebra is local with residue field F_p.

    A tuple stays indecomposable over every field extension exactly when
    its endomorphism algebra E has a unique maximal ideal and E modulo
    that ideal is F_p itself.  Both conditions are read off from the set
    of singular elements of E: they must form a linear subspace of
    codimension one.  A singular element of E, having a polynomial of
    itself as candidate inverse, is singular in E too, so matrix rank
    decides invertibility.
    """
    return _local_split(endomorphism_basis(mats, d, p), d, p)


def _local_split(basis: list, d: int, p: int) -> bool:
    """True when the unital algebra spanned by basis is local with residue
    field F_p: its singular elements form a subspace of codimension one.
    """
    k = len(basis)
    if k == 1:                       # F_p * 1
        return True
    nonunits = []
    for coeffs in itertools.product(range(p), repeat=k):
        e = [0] * (d * d)
        for c, b in zip(coeffs, basis):
            if c:
                for i in range(d * d):
                    e[i] = (e[i] + c * b[i]) % p
        if mat_det(tuple(e), d, p) == 0:
            nonunits.append(coeffs)
    _, pivots = _rref(nonunits, k, p)
    rank = len(pivots)
    return len(nonunits) == p ** rank and k - rank == 1


def _extend_end(basis: list, y: tuple, d: int, p: int) -> list:
    """Basis of the elements of span(basis) that commute with y.

    A nullspace over the k coordinates of the old basis: one equation per
    matrix entry of sum_i c_i (b_i y - y b_i) = 0.
    """
    if len(basis) == 1:              # F_p * 1 commutes with everything
        return basis
    commutators = [[(a - b) % p for a, b in zip(mat_mul(e, y, d, p),
                                                mat_mul(y, e, d, p))]
                   for e in basis]
    return [tuple(sum(c * e[t] for c, e in zip(coeffs, basis)) % p
                  for t in range(d * d))
            for coeffs in _nullspace(list(zip(*commutators)), len(basis), p)]


def _extend_span(span: list, mats: tuple, y: tuple, d: int, p: int) -> list:
    """Echelon basis of the algebra generated by mats + (y,), from that of
    the algebra generated by mats.

    The old span is already closed under left multiplication by mats, so
    its rows only need multiplying by y; each new row is multiplied by
    every generator.
    """
    if len(span) == d * d:           # the full matrix algebra
        return span
    span = list(span)
    gens = mats + (y,)
    work = [(row, (y,)) for _, row in span]
    while work and len(span) < d * d:
        w, by = work.pop()
        for g in by:
            row = _echelon_add(span, mat_mul(g, w, d, p), p)
            if row is not None:
                work.append((row, gens))
    return span


class OracleCensus(NamedTuple):
    d: int
    p: int
    m: int
    group_order: int
    orbits: int
    abs_irr: int
    abs_ind: int


def orbit_census(d: int, p: int, m: int) -> OracleCensus:
    """Classify every conjugation orbit of m-tuples of invertible matrices.

    The orbits of GL_d(F_p) on m-tuples whose first entry lies in the
    class of x are the orbits of the centralizer C(x) on the remaining
    m - 1 entries.  So for each lex-least class representative x the
    sweep runs over those entries in lexicographic index order, marking
    each C(x)-orbit as visited; its first tuple is the representative,
    and each orbit is classified exactly once.

    Classification is conjugation-invariant and shares work between
    tuples with a common prefix: the commuting algebra End and the echelon
    span of the generated algebra are kept for every prefix of the current
    representative and extended by one entry at a time.  A tuple is
    absolutely irreducible when the span is the full matrix algebra, and
    absolutely indecomposable when End is local with residue field F_p.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    _check_enumerable(d, p)
    n = gl_order(d, p)
    # the conjugation index table alone costs n**2
    if n ** max(m, 2) > _CENSUS_LIMIT:
        raise SizeGuardError(f"sweeping {n}**{max(m, 2)} tuples is too much")
    group = gl_enumerate(d, p)
    conj = _conjugation_table(group, d, p)
    # prefixes[j]: (last index, mats, End, span) of the first j entries of
    # the current representative; the empty prefix commutes with all of
    # M_d and generates F_p * 1
    full_end = [tuple(int(t == s) for t in range(d * d)) for s in range(d * d)]
    prefixes = [(None, (), full_end, [(0, identity(d))])]
    orbits = abs_irr = abs_ind = 0
    for x, _ in _classes(conj):
        centralizer = [row for row in conj if row[x] == x]
        visited = set()
        for rest in itertools.product(range(n), repeat=m - 1):
            if rest in visited:
                continue
            visited.update(tuple(map(row.__getitem__, rest))
                           for row in centralizer)
            tup = (x,) + rest
            j = 1
            while j < len(prefixes) and prefixes[j][0] == tup[j - 1]:
                j += 1
            del prefixes[j:]
            for i in tup[j - 1:]:
                _, mats, end, span = prefixes[-1]
                y = group[i]
                prefixes.append((i, mats + (y,), _extend_end(end, y, d, p),
                                 _extend_span(span, mats, y, d, p)))
            _, _, end, span = prefixes[-1]
            irr = len(span) == d * d
            ind = _local_split(end, d, p)
            # irreducible forces indecomposable; anything else is a bug
            if irr and not ind:
                raise IdentityError(f"an absolutely irreducible {m}-tuple "
                                    f"in GL_{d}(F_{p}) is decomposable")
            orbits += 1
            abs_irr += irr
            abs_ind += ind
    return OracleCensus(d=d, p=p, m=m, group_order=n, orbits=orbits,
                        abs_irr=abs_irr, abs_ind=abs_ind)
