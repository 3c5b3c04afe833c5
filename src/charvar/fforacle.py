"""Brute-force censuses over small finite fields and symmetric groups.

Everything here recomputes, by direct enumeration, quantities that the
series pipeline produces symbolically.  orbit_census counts conjugation
orbits of m-tuples of invertible matrices over F_p, and those absolutely
irreducible or absolutely indecomposable; matching it at several primes
is strong evidence that the symbolic counts are polynomials in q
evaluated correctly.  perm_rep_census counts m-tuples of permutations up
to conjugation, with the weights combinatorics checks against subgroups.

Both are the level-by-level stabiliser-chain count _orbit_levels over the
conjugation table that _group_table builds from generators of GL_d(F_p)
or S_n, so neither sweeps the tuples, and only they read its (state,
stabiliser) keys.  This module imports only arith, so importing
charvar.fforacle loads only arith, none of the series pipeline it checks;
the charvar oracle command still loads every layer, because cli imports
them all at the top.  A matrix prefix is classified
by the unital algebra A it generates alone, so its state is the echelon
span of A, and its stabiliser is the centraliser of A: each A is one key,
split once, so each classification of A is made at most once, not once
per orbit, and each extension of A at most once per coset.

A matrix, or a vector, is one non-negative int: entry k, in row-major
order, sits in slot k, bits 8*w*k up to 8*w*(k + 1).  The slot width w
is the fewest bytes that hold the largest sum the kernel forms before it
reduces, (p - 1) + d*d*(p - 1)**2 for d-by-d matrices: one byte for
every box the census admits at d >= 2.  So a matrix product is d
big-int products, and a row operation v + c*row is one, each entry
carried in its own slot; the census's group pass multiplies by its
generators as such row operations.  Only _norm reduces mod p, every slot
at once: one AND at p = 2, where a slot's residue is its low bit,
bytes.translate through a 256-entry table when a slot is one byte, one
pass over the slots otherwise.  Every matrix and vector the module
returns has its entries in 0 .. p - 1, so equal matrices are equal ints,
and gl_enumerate lists them in increasing order.

The one row reduction is the reduced echelon basis of _echelon_add:
kernels, inverses, invertibility, algebra spans and the nilpotency
chains of the locality test are read off it, and it is the census key.
All sizes are deliberately tiny; guards raise SizeGuardError before
anything expensive starts, and an internal count that contradicts group
theory raises IdentityError.
"""

from __future__ import annotations

import bisect
import functools
from collections import Counter
from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .arith import (IdentityError, SizeGuardError, _exceeds, _require,
                    factorize, is_prime)

__all__ = [
    "CensusRow", "OracleCensus", "endomorphism_basis", "gl_enumerate",
    "gl_order", "identity", "is_absolutely_indecomposable",
    "is_absolutely_irreducible", "mat_inv", "mat_mul", "orbit_census",
    "perm_rep_census",
]

# gl_order and gl_enumerate admit p**(d*d); the census m * |GL_d(F_p)|**2
_ENUM_LIMIT = 100_000
_CENSUS_LIMIT = 400_000


class _Format(NamedTuple):
    """The packing of d-by-d matrices over F_p, and the masks and shifts
    that read it."""
    p: int
    bits: int           # 8 * slot width
    mask: int           # one slot of ones
    table: bytes        # byte i holds i % p when a slot is one byte, else b""
    low: int            # bit 0 of every slot a matrix or a row [A | I] has
    one: int            # the identity matrix
    row_mask: int       # the slots of row 0
    col_mask: int       # the slots of column 0
    rows: tuple         # the shift of each row
    cols: tuple         # the shift of each column


@functools.lru_cache(maxsize=None)
def _format(d: int, p: int) -> _Format:
    """The format of d-by-d matrices over F_p.  Its slots hold the sums a
    reduction by n <= d*d echelon rows forms, (p - 1) + n*(p - 1)**2, and
    so the d*(p - 1)**2 of a product entry too."""
    top = (p - 1) * (1 + d * d * (p - 1))
    bits = 8 * max(1, (top.bit_length() + 7) // 8)
    mask = (1 << bits) - 1
    table = bytes(i % p for i in range(256)) if bits == 8 else b""
    rows = tuple(bits * d * i for i in range(d))
    cols = tuple(bits * j for j in range(d))
    one = sum(1 << row + col for row, col in zip(rows, cols))
    # d*d slots for a matrix, 2*d for a row [A | I] of mat_inv
    low = sum(1 << bits * k for k in range(max(d * d, 2 * d)))
    return _Format(p, bits, mask, table, low, one, (1 << bits * d) - 1,
                   sum(mask << row for row in rows), rows, cols)


def _norm(x: int, fmt: _Format) -> int:
    """Every slot of the packed x reduced mod p: at p = 2 the low bit of
    each slot, one AND."""
    if fmt.p == 2:
        return x & fmt.low
    if fmt.table:
        return int.from_bytes(x.to_bytes((x.bit_length() + 7) >> 3, "little")
                              .translate(fmt.table), "little")
    width, p = fmt.bits >> 3, fmt.p
    raw = x.to_bytes(-(-x.bit_length() // fmt.bits) * width, "little")
    return int.from_bytes(b"".join(
        (int.from_bytes(raw[i:i + width], "little") % p).to_bytes(
            width, "little") for i in range(0, len(raw), width)), "little")


def identity(d: int, p: int) -> int:
    return _format(d, p).one


def mat_mul(a: int, b: int, d: int, p: int) -> int:
    """Product of two d-by-d matrices over F_p.  Column k of a, shifted to
    column 0, times row k of b, shifted to row 0, holds a[i][k] * b[k][j]
    in slot (i, j): the product is d big-int products and one _norm."""
    fmt = _format(d, p)
    col_mask, row_mask = fmt.col_mask, fmt.row_mask
    return _norm(sum([((a >> col) & col_mask) * ((b >> row) & row_mask)
                      for row, col in zip(fmt.rows, fmt.cols)]), fmt)


def mat_inv(a: int, d: int, p: int) -> int:
    """Inverse of an invertible matrix over F_p, else ZeroDivisionError.

    The reduced rows of [A | I] are [I | A^-1] exactly when their pivots
    are the first d columns.
    """
    fmt = _format(d, p)
    half = fmt.bits * d         # slot d, where the right half starts
    basis = []
    for row, col in zip(fmt.rows, fmt.cols):
        _echelon_add(basis, ((a >> row) & fmt.row_mask) | (1 << half + col),
                     fmt)
    if any(piv >= d for piv, _ in basis):
        raise ZeroDivisionError("matrix is singular")
    return sum((vec >> half) << row for (_, vec), row in zip(basis, fmt.rows))


def gl_order(d: int, p: int) -> int:
    """Order of GL_d(F_p), the invertible d-by-d matrices over F_p; past
    the enumerable box p**(d*d) <= 100000 it raises SizeGuardError."""
    # sized before primality, whose trial division of a large p never ends
    if d >= 1 and p >= 2 and _exceeds((p,), d * d, _ENUM_LIMIT):
        raise SizeGuardError(f"enumerating {p}**{d * d} matrices is too much")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    q = p ** d
    out = 1
    for i in range(d):
        out *= q - p ** i
    return out


def gl_enumerate(d: int, p: int) -> list:
    """All invertible d-by-d matrices over F_p, in increasing order."""
    n = gl_order(d, p)
    fmt = _format(d, p)
    mats = [0]
    for _ in range(d * d):      # the last slot first, so in increasing order
        mats = [x << fmt.bits | e for x in mats for e in range(p)]
    # a matrix is invertible exactly when its kernel is 0
    out = [a for a in mats
           if not _nullspace([(a >> row) & fmt.row_mask for row in fmt.rows],
                             d, fmt)]
    _require(len(out) == n,
             f"found {len(out)} invertible matrices, expected {n}")
    return out


def _generators(d: int, p: int) -> list:
    """Transvections I + E_ij (i != j) and diag(w, 1, ..., 1), w primitive.

    The transvections generate SL_d(F_p) and the powers of the diagonal
    matrix reach every determinant, so together they generate GL_d(F_p).
    """
    fmt = _format(d, p)
    gens = [fmt.one + (1 << fmt.rows[i] + fmt.cols[j])
            for i in range(d) for j in range(d) if i != j]
    if p > 2:
        orders = [(p - 1) // r for r, _ in factorize(p - 1)]
        w = next(a for a in range(2, p)
                 if all(pow(a, e, p) != 1 for e in orders))
        gens.append(fmt.one + w - 1)     # entry (0, 0) from 1 to w
    return gens


def _generator_mul(gens: list, d: int, p: int):
    """mul(g, x) = g*x for each g of gens, from _generators, as a row
    operation.  g is I + c*E_ij, so g*x is x plus c times row j of x laid
    in row i: I + E_ij adds row j to row i, and diag(w, 1, ..., 1) scales
    row 0 by w.  Each product is one shift, mask and add, and one _norm."""
    fmt = _format(d, p)
    ops = {}
    for g in gens:
        e = g - fmt.one                  # c in slot k = i*d + j
        k = (e.bit_length() - 1) // fmt.bits
        ops[g] = (fmt.rows[k % d], fmt.rows[k // d], e >> fmt.bits * k)
    row_mask = fmt.row_mask

    def mul(g, x):
        src, dst, c = ops[g]
        return _norm(x + (c * ((x >> src) & row_mask) << dst), fmt)
    return mul


def _echelon_add(basis: list, vec: int, fmt: _Format):
    """Reduce vec by the (pivot, row) basis; insert and return it if new.

    The basis is in reduced row echelon form: in pivot order, each row 1
    at its pivot and 0 at every other row's pivot.  So one pass in any
    order clears every pivot of vec, the new row is cleared from the
    others, and a subspace has one basis whatever vectors built it.  A
    pivot is the lowest nonzero slot.
    """
    v = _reduced(basis, vec, fmt)
    if not v:
        return None
    bits, mask, p = fmt.bits, fmt.mask, fmt.p
    piv = ((v & -v).bit_length() - 1) // bits
    shift = bits * piv
    lead = (v >> shift) & mask
    new = v if lead == 1 else _norm(v * pow(lead, -1, p), fmt)
    for i, (q, row) in enumerate(basis):
        f = (row >> shift) & mask
        if f:
            basis[i] = (q, _norm(row + (p - f) * new, fmt))
    bisect.insort(basis, (piv, new))
    return new


def _reduced(basis: list, vec: int, fmt: _Format) -> int:
    """vec less its part in the span of the reduced echelon basis: the
    one vector of vec + span that is 0 at every pivot.  Each row is 0 at
    the other pivots, so its multiple is read off vec itself, and the
    sum is reduced once."""
    bits, mask, p = fmt.bits, fmt.mask, fmt.p
    v = vec
    for piv, row in basis:
        f = (vec >> bits * piv) & mask
        if f:
            v += (p - f) * row
    return v if v == vec else _norm(v, fmt)


def _nullspace(rows, ncols: int, fmt: _Format) -> list:
    """Kernel basis of the rows: per free column, the vector with 1 there
    and 0 at the other free columns.  A reduced row is zero at the other
    pivots, so it sets its own pivot entry alone: -row[free]."""
    basis = []
    for row in rows:
        _echelon_add(basis, row, fmt)
    bits, mask, p = fmt.bits, fmt.mask, fmt.p
    pivots = {piv for piv, _ in basis}
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = 1 << bits * free
        for piv, row in basis:
            f = (row >> bits * free) & mask
            if f:
                v |= (p - f) << bits * piv
        out.append(v)
    return out


def is_absolutely_irreducible(mats, d: int, p: int) -> bool:
    """True when the tuple generates the full d*d matrix algebra, whose
    span _extend_span grows from the identity one entry at a time."""
    span, gens = [(0, identity(d, p))], ()
    for y in mats:
        span = _extend_span(span, gens, y, d, p)
        gens += (y,)
    return len(span) == d * d


def endomorphism_basis(mats, d: int, p: int) -> list:
    """Basis of the algebra of matrices commuting with every tuple entry.

    Entry (i, j) of e*x - x*e is sum_b e[i][b]*x[b][j] less
    sum_a x[i][a]*e[a][j], so its coefficients are column j of x laid in
    row i less row i of x laid in column j; the transpose of x holds both
    in place to be shifted there.
    """
    fmt = _format(d, p)
    mask, row_mask, col_mask = fmt.mask, fmt.row_mask, fmt.col_mask
    ps = p * (col_mask // mask)             # p in each slot of column 0
    slots = [(fmt.rows[i] + fmt.cols[j], fmt.rows[j] + fmt.cols[i])
             for i in range(d) for j in range(d)]      # (i, j) and (j, i)
    rows = []
    for x in mats:
        xt = sum(((x >> ij) & mask) << ji for ij, ji in slots)
        cols_of_x = [(xt >> row) & row_mask for row in fmt.rows]
        minus_rows_of_x = [ps - ((xt >> col) & col_mask) for col in fmt.cols]
        for row, minus in zip(fmt.rows, minus_rows_of_x):
            for col, column in zip(fmt.cols, cols_of_x):
                rows.append(_norm((column << row) + (minus << col), fmt))
    return _nullspace(rows, d * d, fmt)


def is_absolutely_indecomposable(mats, d: int, p: int) -> bool:
    """True when the commuting algebra is local with residue field F_p.

    A tuple stays indecomposable over every field extension exactly when
    its endomorphism algebra E has a unique maximal ideal and E modulo
    that ideal is F_p itself, that is, when E is F_p * 1 plus a nilpotent
    ideal; _local_split tests that.
    """
    return _local_split(endomorphism_basis(mats, d, p), d, p)


def _local_split(basis: list, d: int, p: int) -> bool:
    """True when the unital algebra E spanned by the basis is local with
    residue field F_p: when each basis element b has an l in F_p with
    b - l*1 nilpotent, and these parts generate a nilpotent algebra I.
    Then I lies in E, as 1 does, so E = F_p*1 + I with I a nilpotent
    ideal; conversely the parts of a local E lie in its nilpotent radical.
    """
    fmt = _format(d, p)
    parts = []
    for b in basis:
        shifts = (_norm(b + (p - lam) * fmt.one, fmt) for lam in range(p))
        part = next((n for n in shifts if _nilpotent((n,), d, p)), None)
        if part is None:
            return False
        parts.append(part)
    return _nilpotent(parts, d, p)


def _nilpotent(mats, d: int, p: int) -> bool:
    """True when the matrices generate a nilpotent algebra I: when the
    chain V = F_p^d, V*I, V*I^2, ..., each step spanned by the images of
    the last under every matrix, reaches 0, since V*I^k = 0 exactly when
    I^k = 0.  It only shrinks, and a step that does not shrink repeats
    forever.  A step is the row space of a matrix, whose product with a
    matrix spans the step's images under it."""
    fmt = _format(d, p)
    vecs, dim = fmt.one, d
    while dim:
        span = []
        for x in mats:
            images = mat_mul(vecs, x, d, p)
            for row in fmt.rows:
                _echelon_add(span, (images >> row) & fmt.row_mask, fmt)
        if len(span) == dim:
            return False
        vecs = sum(vec << row for (_, vec), row in zip(span, fmt.rows))
        dim = len(span)
    return True


def _extend_span(span: list, mats: tuple, y: int, d: int, p: int) -> list:
    """Reduced echelon basis of the algebra generated by mats + (y,), from
    that of the algebra generated by mats.

    The old span is already closed under left multiplication by mats, so
    its rows only need multiplying by y; each new row is multiplied by
    every generator.
    """
    if len(span) == d * d:           # the full matrix algebra
        return span
    fmt = _format(d, p)
    span = list(span)
    gens = mats + (y,)
    work = [(row, (y,)) for _, row in span]
    while work and len(span) < d * d:
        w, by = work.pop()
        for g in by:
            row = _echelon_add(span, mat_mul(g, w, d, p), fmt)
            if row is not None:
                work.append((row, gens))
    return span


def _orbits(rows: list) -> list:
    """(least index, size) of each orbit of the group whose elements, as
    index permutations, are the rows."""
    seen, out = set(), []
    for x in range(len(rows[0])):
        if x not in seen:
            orbit = {row[x] for row in rows}
            seen |= orbit
            out.append((x, len(orbit)))
    _require(sum(size for _, size in out) == len(rows[0]),
             "orbit sizes do not add up to the group order")
    return out


def _group_table(one, gens: list, mul, order: int):
    """(group, conj) of the group of the given order that gens generate:
    group[0] is one, and conj[g][x] indexes group[g] x group[g]^-1.  A
    product that is no group law, found as more than order elements or as
    a generator whose powers miss one, raises IdentityError.

    A breadth-first pass of left multiplication by the generators lists
    the group, records each generator's left multiplication as an index
    row and a spanning tree of the Cayley graph; it makes the only
    products, one per element and generator.  Right multiplication by
    s^-1 is composed along the tree, since (t h) s^-1 = t (h s^-1), and
    s x s^-1 is left multiplication by s after it.  Every other row is
    composed along the tree too, since (s h) x (s h)^-1 = s (h x h^-1) s^-1
    gives conj[s h] = perm_s o conj[h], one list lookup per entry.
    """
    group, index, tree = [one], {one: 0}, []
    left = [[] for _ in gens]
    for h, x in enumerate(group):    # grows while it is read: breadth first
        for s, gen in enumerate(gens):
            y = mul(gen, x)
            j = index.get(y)
            if j is None:
                if len(group) == order:     # a product that is no group law
                    raise IdentityError(f"generators reached more than "
                                        f"{order} group elements")
                j = index[y] = len(group)
                group.append(y)
                tree.append((s, h))
            left[s].append(j)
    _require(len(group) == order,
             f"generators reached {len(group)} of {order} group elements")
    perms = []
    for row in left:
        inv, power = 0, row[0]       # s^-1 is the power just before one
        for _ in range(order):       # the order of s divides the group's
            if not power:
                break
            inv, power = power, row[power]
        else:
            raise IdentityError(f"a generator's powers do not return to "
                                f"one in {order} steps")
        right = [inv]
        for t, h in tree:
            right.append(left[t][right[h]])
        perms.append(tuple(map(row.__getitem__, right)))
    conj = [tuple(range(order))]
    for s, h in tree:
        conj.append(tuple(map(perms[s].__getitem__, conj[h])))
    return group, conj


def _orbit_levels(one, gens: list, mul, order: int, m: int, start,
                  extend) -> Counter:
    """Orbit counts of the conjugation orbits on m-tuples, per the
    (state, stabiliser) key of their tuples, one tuple entry a level.

    The group that gens generate, and conj[g][x] indexing g x g^-1 in it,
    come from _group_table.  The first entry runs over the class
    representatives, each next one over the orbit representatives of the
    stabiliser of the entries before it.  extend(state, element) folds a
    tuple's state from ``start``.  What lies below a prefix depends only
    on its key, so each key's row, the keys of its stabiliser's orbit
    representatives, is split once per call and summed into every level
    where the key recurs.  The total is checked against Burnside's sum
    over classes of |centraliser|**(m-1), whose sizes come from a split of
    their own, not from the rows.
    """
    group, conj = _group_table(one, gens, mul, order)
    classes = _orbits(conj)
    rows = {}
    level = Counter({(start, tuple(range(order))): 1})
    for _ in range(m):
        below = Counter()
        for key, count in level.items():
            row = rows.get(key)
            if row is None:
                state, stabiliser = key
                row = rows[key] = Counter(
                    (extend(state, group[i]),
                     tuple(g for g in stabiliser if conj[g][i] == i))
                    for i, _ in _orbits([conj[g] for g in stabiliser]))
            for child, times in row.items():
                below[child] += times * count
        level = below
    orbits = sum(level.values())
    burnside = sum((order // size) ** (m - 1) for _, size in classes)
    _require(orbits == burnside,
             f"swept {orbits} orbits, Burnside: {burnside}")
    return level


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

    All a prefix's classification needs is the unital algebra A it
    generates: the tuple is absolutely irreducible when A is all of M_d,
    and absolutely indecomposable when the commutant End of A is local
    with residue field F_p.  So the state _orbit_levels counts by is the
    reduced echelon span of A, and the prefix's stabiliser, the
    centraliser of A, adds nothing to it: each classification of A is
    computed once, not once per orbit.  An element y of A extends A to
    itself, and y and y + a, for a in A, extend A alike, so A is extended
    once per coset y + A, keyed by the reduced y.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    n = gl_order(d, p)
    # m levels over the n**2 table, though each key is split once
    if m * n * n > _CENSUS_LIMIT:
        levels = f"{m} level" + "s" * (m > 1)
        raise SizeGuardError(f"{levels} over a {n}**2 table is too much")
    # per echelon span of A, that span itself, interned so that the memo
    # below holds no equal copies, and the first prefix to generate A,
    # which has at most d*d - 1 entries since each one enlarged A
    fmt = _format(d, p)
    start = ((0, fmt.one),)
    prefixes = {start: (start, ())}
    # the span of A and y per (A, y modulo A), since A and y generate what
    # A and y + a do for every a in A
    grown_by = {}

    def extend(span, y):
        rest = _reduced(span, y, fmt)
        if not rest:
            return span
        grown = grown_by.get((span, rest))
        if grown is None:
            gens = prefixes[span][1]
            grown = tuple(_extend_span(span, gens, y, d, p))
            grown = prefixes.setdefault(grown, (grown, gens + (y,)))[0]
            grown_by[span, rest] = grown
        return grown
    generators = _generators(d, p)
    leaves = Counter()
    for (span, _), count in _orbit_levels(
            fmt.one, generators, _generator_mul(generators, d, p), n, m,
            start, extend).items():
        leaves[span] += count
    orbits = abs_irr = abs_ind = 0
    for span, count in leaves.items():
        gens = prefixes[span][1]
        irr = len(span) == d * d
        ind = is_absolutely_indecomposable(gens, d, p)
        # irreducible forces indecomposable; anything else is a bug
        _require(ind or not irr, f"an absolutely irreducible {m}-tuple "
                                 f"in GL_{d}(F_{p}) is decomposable")
        orbits += count
        abs_irr += irr * count
        abs_ind += ind * count
    return OracleCensus(d=d, p=p, m=m, group_order=n, orbits=orbits,
                        abs_irr=abs_irr, abs_ind=abs_ind)


class CensusRow(NamedTuple):
    n: int
    m: int
    total: int               # all tuples: (n!)^m
    orbit_count: int          # conjugation orbits
    transitive_count: int     # orbits acting transitively
    aut_weight: Fraction      # sum over transitive orbits of 1/|Aut|
    aut_weight_all: Fraction  # same sum over all orbits; equals (n!)^(m-1)


def _join(blocks: tuple, perm: tuple) -> tuple:
    """Orbit labels once perm joins the group: blocks[x] labels x by the
    least point of its orbit, and merging the blocks of each x and
    perm[x] under the lesser label keeps every label least."""
    label = list(blocks)
    for x, y in enumerate(perm):
        a, b = sorted((label[x], label[y]))
        label = [a if c == b else c for c in label]
    return tuple(label)


def perm_rep_census(n: int, m: int) -> CensusRow:
    """Brute-force census of S_n^m up to simultaneous conjugation, by
    _orbit_levels over S_n generated by a transposition and an n-cycle.
    A tuple's state is its orbit labels, so it is transitive when every
    label is 0, and |Aut| of its orbit is its stabiliser's order."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    # m levels over the (n!)**2 table, though each key is split once; the
    # table alone passes the limit from n = 7 on, so n > 10 is refused
    # without building n!
    if n > 10 or m * factorial(n) ** 2 > 4_000_000:
        raise SizeGuardError(f"census of S_{n}^{m} is too large")
    order = factorial(n)
    total = order ** m
    gens = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]
    kinds = Counter()
    for (blocks, stabiliser), count in _orbit_levels(
            tuple(range(n)), gens if n > 1 else [],
            lambda a, b: tuple(map(a.__getitem__, b)), order, m,
            tuple(range(n)), _join).items():
        kinds[not any(blocks), len(stabiliser)] += count
    orbit_count = transitive_count = 0
    aut_weight = aut_weight_all = Fraction(0)
    for (transitive, aut), count in kinds.items():
        orbit_count += count
        aut_weight_all += Fraction(count, aut)
        if transitive:
            transitive_count += count
            aut_weight += Fraction(count, aut)
    _require(aut_weight_all == total // order, f"weights 1/|Aut| sum to "
             f"{aut_weight_all}, not to (n!)**(m-1) = {total // order}")
    return CensusRow(n=n, m=m, total=total, orbit_count=orbit_count,
                     transitive_count=transitive_count, aut_weight=aut_weight,
                     aut_weight_all=aut_weight_all)
