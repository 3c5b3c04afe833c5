"""Finite-field brute force, and its agreement with the series pipeline."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import charvar
from charvar import fforacle
from charvar.arith import IdentityError, SizeGuardError, is_prime
from charvar.cli import main
from charvar.counting import abs_ind_counts, abs_irr_counts, orbit_counts
from charvar.fforacle import (
    OracleCensus, _group_table, _orbits,
    endomorphism_basis, gl_enumerate, gl_order, identity,
    is_absolutely_indecomposable, is_absolutely_irreducible, mat_inv, mat_mul,
    orbit_census,
)

# 2x2 matrices over F_p, p <= 7, packed one byte an entry, entry 0 lowest
I2 = 0x01_00_00_01
JORDAN = 0x01_00_01_01      # unipotent, one Jordan block
SWAP = 0x00_01_01_00
ORDER3 = 0x01_01_01_00      # irreducible characteristic polynomial over F_2


def _pack(entries, d, p):
    """The int whose slot k, in the format of d-by-d matrices over F_p,
    holds entries[k]: a matrix in row-major order, or a vector."""
    bits = fforacle._format(d, p).bits
    return sum(e << bits * k for k, e in enumerate(entries))


def _unpack(x, n, d, p):
    """The first n slots of x, in the format of d-by-d matrices over F_p."""
    fmt = fforacle._format(d, p)
    return tuple((x >> fmt.bits * k) & fmt.mask for k in range(n))


def _schoolbook_mul(a, b, d, p):
    """The matrix product entry by entry, on tuples."""
    return tuple(sum(a[i * d + k] * b[k * d + j] for k in range(d)) % p
                 for i in range(d) for j in range(d))


def _mat_det(a, d, p):
    """Determinant mod p by Gaussian elimination, kept apart from the
    oracle's row reduction so that the locality reference shares none of
    its code."""
    a = _unpack(a, d * d, d, p)
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


def test_matrix_arithmetic():
    assert mat_mul(I2, SWAP, 2, 2) == SWAP
    assert mat_mul(ORDER3, ORDER3, 2, 2) == 0x00_01_01_01
    assert mat_mul(mat_mul(ORDER3, ORDER3, 2, 2), ORDER3, 2, 2) == I2
    assert _mat_det(I2, 2, 5) == 1
    assert _mat_det(0x04_03_01_02, 2, 5) == 0   # 8 - 3 = 5
    assert mat_inv(SWAP, 2, 3) == SWAP
    with pytest.raises(ZeroDivisionError):
        mat_inv(0x01_01_01_01, 2, 2)


def test_det_multiplicative_and_inverse_roundtrip():
    rng = random.Random(20260819)
    p, d = 5, 3
    for _ in range(40):
        a = _pack([rng.randrange(p) for _ in range(d * d)], d, p)
        b = _pack([rng.randrange(p) for _ in range(d * d)], d, p)
        prod = mat_mul(a, b, d, p)
        assert _mat_det(prod, d, p) == (
            _mat_det(a, d, p) * _mat_det(b, d, p) % p)
        if _mat_det(a, d, p):
            assert mat_mul(a, mat_inv(a, d, p), d, p) == identity(d, p)
            assert mat_mul(mat_inv(a, d, p), a, d, p) == identity(d, p)
        else:
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                mat_inv(a, d, p)


def test_group_orders():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(2, 5) == 480
    assert gl_order(3, 2) == 168
    for d, p in [(1, 7), (2, 2), (2, 3), (3, 2)]:
        assert len(gl_enumerate(d, p)) == gl_order(d, p)


def _gl_table(d, p):
    """The census's (group, conj) of GL_d(F_p)."""
    return _group_table(identity(d, p), fforacle._generators(d, p),
                        lambda a, b: mat_mul(a, b, d, p), gl_order(d, p))


def _classes(d, p):
    """(representative, size, centraliser order) of each conjugacy class."""
    group, conj = _gl_table(d, p)
    return [(group[x], size, len(group) // size) for x, size in _orbits(conj)]


def test_conjugacy_classes():
    small = _classes(2, 2)
    assert sorted(size for _, size, _ in small) == [1, 2, 3]
    assert sorted(c for _, _, c in small) == [2, 3, 6]
    assert [rep for rep, size, _ in small if size == 1] == [identity(2, 2)]
    bigger = _classes(2, 3)
    assert len(bigger) == 8
    assert sorted(c for _, _, c in bigger) == [4, 6, 6, 8, 8, 8, 48, 48]
    assert sum(size for _, size, _ in bigger) == 48


def test_burnside_agrees_with_sweep():
    # fixed points of g on m-tuples are the tuples in its centraliser
    for d, p, m in [(1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        assert orbit_census(d, p, m).orbits == sum(
            c ** (m - 1) for _, _, c in _classes(d, p))


def _algebra_span(mats, d, p):
    """The span of the unital algebra the tuple generates, grown from the
    identity one entry at a time as the census grows it."""
    span, gens = [(0, identity(d, p))], ()
    for y in mats:
        span = fforacle._extend_span(span, gens, y, d, p)
        gens += (y,)
    return span


def test_algebra_span_classifier():
    assert len(_algebra_span((I2, I2), 2, 2)) == 1
    assert len(_algebra_span((JORDAN, I2), 2, 2)) == 2
    assert len(_algebra_span((ORDER3, I2), 2, 2)) == 2
    assert len(_algebra_span((SWAP, ORDER3), 2, 2)) == 4
    assert is_absolutely_irreducible((SWAP, ORDER3), 2, 2)
    assert not is_absolutely_irreducible((ORDER3, ORDER3), 2, 2)


def _word_span_dim(mats, d, p):
    """Dimension of the span of every word of length at most d*d in the
    tuple, by the Gauss-Jordan reference; the algebra's dimension grows
    with each word length until it stops, so d*d - 1 lengths suffice."""
    words = level = {identity(d, p)}
    for _ in range(d * d):
        level = {mat_mul(x, w, d, p) for x in mats for w in level}
        words = words | level
    rows = [_unpack(w, d * d, d, p) for w in sorted(words)]
    return d * d - len(_nullspace_reference(rows, d * d, p))


def test_algebra_span_matches_word_reference():
    rng = random.Random(20261021)
    seen = set()
    for d, p in [(2, 2), (2, 3), (2, 5), (3, 2)]:
        for m in (1, 2, 3):
            for _ in range(25):
                mats = _random_tuple(rng, d, p, m)
                dim = _word_span_dim(mats, d, p)
                assert len(_algebra_span(mats, d, p)) == dim, (mats, p)
                irr = is_absolutely_irreducible(mats, d, p)
                assert irr == (dim == d * d), (mats, p)
                seen.add((m, irr))
    assert seen == {(1, False), (2, False), (2, True), (3, False), (3, True)}


def test_endomorphism_classifier():
    # scalar tuple: everything commutes, algebra of dim 4 is not local
    assert len(endomorphism_basis((I2, I2), 2, 2)) == 4
    assert not is_absolutely_indecomposable((I2, I2), 2, 2)
    # one Jordan block: commutant has dim 2, singular part is a line
    basis = endomorphism_basis((JORDAN, I2), 2, 2)
    assert len(basis) == 2
    for e in basis:
        assert mat_mul(e, JORDAN, 2, 2) == mat_mul(JORDAN, e, 2, 2)
    assert is_absolutely_indecomposable((JORDAN, I2), 2, 2)
    # commutant a quadratic field extension: splits after extension
    assert len(endomorphism_basis((ORDER3, I2), 2, 2)) == 2
    assert not is_absolutely_indecomposable((ORDER3, I2), 2, 2)
    # irreducible pair: commutant is scalar
    assert len(endomorphism_basis((SWAP, ORDER3), 2, 2)) == 1
    assert is_absolutely_indecomposable((SWAP, ORDER3), 2, 2)


def test_census_rank_two_base_case():
    assert orbit_census(2, 2, 2) == OracleCensus(
        d=2, p=2, m=2, group_order=6, orbits=11, abs_irr=3, abs_ind=6)


def test_census_matches_polynomial_counts():
    grid = [(1, 2, 2), (1, 3, 2), (1, 5, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2),
            (3, 2, 2)]
    for d, p, m in grid:
        census = orbit_census(d, p, m)
        assert census.orbits == orbit_counts(m, dmax=d)[d].evaluate(p)
        assert census.abs_irr == abs_irr_counts(m, dmax=d)[d].evaluate(p)
        assert census.abs_ind == abs_ind_counts(m, dmax=d)[d].evaluate(p)


def test_scalar_group_census():
    census = orbit_census(1, 7, 4)
    assert census.group_order == 6
    assert census.orbits == census.abs_irr == census.abs_ind == 6 ** 4


def test_census_does_not_recurse_on_deep_tuples():
    # the stabiliser chain is 3000 levels deep, beyond the recursion limit
    census = orbit_census(1, 2, 3000)
    assert (census.orbits, census.abs_irr, census.abs_ind) == (1, 1, 1)


def test_census_state_is_linear_in_the_tuple_length():
    # each level keeps only the (algebra, stabiliser) counts of its
    # prefixes, so 6000 levels hold one key at a time
    tracemalloc.start()
    try:
        census = orbit_census(1, 2, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (census.orbits, census.abs_irr, census.abs_ind) == (1, 1, 1)
    assert peak < 16 * 2 ** 20, peak


def test_census_checks_its_orbit_count_by_burnside(monkeypatch, capsys):
    # every split after the class list loses its last orbit, the top
    # key's too, so 5 of the 11 orbits of GL_2(F_2) (S_3) are swept
    real = fforacle._orbits
    calls = []

    def lossy(rows):
        calls.append(len(rows))
        return real(rows) if len(calls) == 1 else real(rows)[:-1]

    monkeypatch.setattr(fforacle, "_orbits", lossy)
    assert main(["oracle", "--d", "2", "--p", "2", "--m", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: internal identity failure: swept 5 orbits, "
                       "Burnside: 11\n")


def _subspace_local_split(basis, d, p):
    """Reference locality test: the singular elements of the algebra form
    a linear subspace of codimension one.  It sweeps all p**k elements
    and uses no row reduction of the oracle's."""
    k = len(basis)
    basis = [_unpack(b, d * d, d, p) for b in basis]
    nonunits = []
    for coeffs in itertools.product(range(p), repeat=k):
        e = _pack([sum(c * b[i] for c, b in zip(coeffs, basis)) % p
                   for i in range(d * d)], d, p)
        if _mat_det(e, d, p) == 0:
            nonunits.append(coeffs)
    rank = k - len(_nullspace_reference(nonunits, k, p))
    return len(nonunits) == p ** rank and k - rank == 1


def _random_tuple(rng, d, p, m=None):
    """m random matrices of one shape, or one or two if m is not given:
    any, upper triangular, unipotent upper triangular, or diagonal."""
    shape = rng.choice(["any", "upper", "unipotent", "diagonal"])

    def entry(i, j):
        if (i > j and shape != "any") or (i < j and shape == "diagonal"):
            return 0
        if i == j and shape == "unipotent":
            return 1
        return rng.randrange(p)
    return tuple(_pack([entry(i, j) for i in range(d) for j in range(d)],
                       d, p) for _ in range(m or rng.randint(1, 2)))


def test_local_split_count_matches_subspace_criterion():
    rng = random.Random(20261018)
    local = other = 0
    for p in (2, 3, 5):
        for d in (2, 3):
            for _ in range(60):
                basis = endomorphism_basis(_random_tuple(rng, d, p), d, p)
                if p ** len(basis) > 5000:     # keeps each check cheap
                    continue
                split = fforacle._local_split(basis, d, p)
                assert split == _subspace_local_split(basis, d, p), basis
                local += split
                other += not split
    assert local >= 50 and other >= 50, (local, other)


def test_local_split_matches_subspace_criterion_on_every_admitted_box(
        monkeypatch):
    # the census classifies the algebras its m-tuples generate; one is
    # generated by at most d*d - 1 of its tuple's entries, and an identity
    # entry adds nothing, so at m = d*d - 1 a (d, p) box classifies every
    # algebra of every admitted (d, p, m) box of d >= 2; (2, 5) admits m = 1
    admitted = [(2, 2, 3), (2, 3, 3), (3, 2, 8), (2, 5, 1)]
    for box in [(2, 2, 11112), (2, 3, 174), (3, 2, 15), (2, 5, 2), (2, 7, 1)]:
        with pytest.raises(SizeGuardError):
            orbit_census(*box)
    seen = []

    def compared(basis, d, p, real=fforacle._local_split):
        split = real(basis, d, p)
        assert split == _subspace_local_split(basis, d, p), (basis, d, p)
        seen.append(split)
        return split
    monkeypatch.setattr(fforacle, "_local_split", compared)
    for box in admitted:
        orbit_census(*box)
    assert True in seen and False in seen and len(seen) > 50, len(seen)


def test_local_split_needs_the_parts_to_generate_a_nilpotent_algebra():
    # a basis of M_2(F_p) whose elements are each a scalar plus a nilpotent;
    # over F_2 these elements span only the matrices with equal diagonal
    for p in (3, 5, 7):
        basis = [I2, 0x00_00_01_00, 0x00_01_00_00,
                 (p - 1) * 0x01_01_00_00 + 0x01_01]
        rows = [_unpack(b, 4, 2, p) for b in basis]
        assert len(_nullspace_reference(rows, 4, p)) == 0
        assert not fforacle._local_split(basis, 2, p)
        assert not _subspace_local_split(basis, 2, p)


def _jordan(d, p):
    """One unipotent Jordan block: ones on the diagonal and just above it."""
    return _pack([int(j in (i, i + 1)) for i in range(d) for j in range(d)],
                 d, p)


def test_local_split_on_algebras_too_big_to_sweep():
    # End(I_4) over F_2 has 2**16 elements and End(I_3) over F_3 3**9
    for d, p in [(4, 2), (3, 3)]:
        basis = endomorphism_basis((identity(d, p),), d, p)
        assert len(basis) == d * d
        assert not fforacle._local_split(basis, d, p)
    # the polynomials in one Jordan block form a local algebra
    for p in (2, 3):
        basis = endomorphism_basis((_jordan(4, p),), 4, p)
        assert len(basis) == 4
        assert fforacle._local_split(basis, 4, p)
        assert is_absolutely_indecomposable((_jordan(4, p),), 4, p)


def _rref_reference(rows, ncols, p):
    """Reduced row echelon form by a full Gauss-Jordan pass; returns
    (rows, pivot columns).  The row reduction the oracle used before its
    kernels were read from the _echelon_add basis."""
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


def _echelon_span(rows, p):
    """The reduced echelon basis of rows of at most 9 entries, as packed
    in the format of 3-by-3 matrices over F_p."""
    span = []
    for row in rows:
        fforacle._echelon_add(span, _pack(row, 3, p), fforacle._format(3, p))
    return span


def test_rref_key_is_the_reduced_row_echelon_form():
    # the census keys an algebra on tuple(span), so the span must be the
    # reduced row echelon form, pivots included, in pivot order
    rng = random.Random(20261020)
    for p in (2, 3, 5):
        for ncols in range(1, 10):
            for _ in range(20):
                rows = _random_rows(rng, rng.randrange(ncols + 2), ncols, p)
                red, pivots = _rref_reference(rows, ncols, p)
                assert _echelon_span(rows, p) == [
                    (piv, _pack(row, 3, p)) for piv, row in zip(pivots, red)
                ], rows


def test_rref_key_does_not_depend_on_the_basis():
    rng = random.Random(20261020)
    for p in (2, 3, 5):
        for _ in range(50):
            rows = [[rng.randrange(p) for _ in range(9)] for _ in range(4)]
            # another basis of the same span, inserted in another order
            shifts = [rng.randrange(p) for _ in rows]
            other = [[(x + t * y) % p for x, y in zip(a, b)]
                     for a, b, t in zip(rows, rows[1:] + rows[:1], shifts)]
            other += rows
            rng.shuffle(other)
            assert (tuple(_echelon_span(rows, p))
                    == tuple(_echelon_span(other, p)))


def test_census_extends_and_classifies_each_algebra_once(monkeypatch):
    # once per orbit, (2, 3, 3) made 5032 extensions and 4888 locality
    # sweeps, and (3, 2, 2) 203 and 197; once per (algebra, element), 320
    # extensions at (2, 3, 3), 197 at (3, 2, 2) and 2795 at (3, 2, 4); an
    # element of the algebra extends nothing, and elements that differ by
    # one extend it alike, so one extension is made per coset
    calls = {}
    for name in ("_extend_span", "_local_split"):
        def counted(*args, real=getattr(fforacle, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(fforacle, name, counted)
    for box, most in [((2, 3, 3), (55, 11)), ((3, 2, 2), (145, 20)),
                      ((3, 2, 4), (478, 26))]:
        calls.update(_extend_span=0, _local_split=0)
        orbit_census(*box)
        assert calls["_extend_span"] <= most[0], (box, calls)
        assert calls["_local_split"] <= most[1], (box, calls)


def _census_matches_polynomial_counts(boxes, pins):
    for box in boxes:
        d, p, m = box
        census = orbit_census(d, p, m)
        got = (census.orbits, census.abs_irr, census.abs_ind)
        assert got == pins.get(box, got)
        assert got == tuple(counts(m, dmax=d)[d].evaluate(p) for counts in
                            (orbit_counts, abs_irr_counts, abs_ind_counts)), box


def test_census_matches_polynomial_counts_on_admitted_boxes():
    # past the three default boxes, up to d = 3 with m = 5, p = 3 with
    # m = 8 and d = 2 over F_2 with m = 40 (31 digits of orbits), and the
    # last boxes the guard admits at d = 3 over F_2 and d = 2 over F_3
    pins = {(2, 5, 1): (24, 0, 4), (3, 2, 3): (28411, 27152, 28248),
            (2, 3, 4): (223216, 217280, 221040)}
    _census_matches_polynomial_counts(
        [*pins, (3, 2, 5), (2, 3, 5), (2, 3, 8), (2, 2, 8), (2, 2, 40),
         (3, 2, 14), (2, 3, 173)], pins)


def test_census_matches_polynomial_counts_past_the_guard(monkeypatch):
    # 2 and 3 levels over the 480**2 table of GL_2(F_5), which the guard
    # refuses; the deeper one has 930496 orbits
    monkeypatch.setattr(fforacle, "_CENSUS_LIMIT", 3 * 480 ** 2)
    pins = {(2, 5, 2): (2336, 1584, 1920)}
    _census_matches_polynomial_counts([*pins, (2, 5, 3)], pins)


def test_census_finds_orbits_once_per_stabiliser_level(monkeypatch):
    # 282251 orbits in 8 levels; a census visiting each orbit makes 57208
    # calls in each group (GL_2(F_2) is S_3), and one splitting every key
    # again on each level makes 28 at m = 8 and 796 at m = 200
    real = fforacle._orbits
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(fforacle, "_orbits", counted)
    census = fforacle.perm_rep_census
    for orbits in (lambda m: orbit_census(2, 2, m).orbits,
                   lambda m: census(3, m).orbit_count):
        calls.clear()
        assert orbits(8) == 282251
        made = len(calls)
        calls.clear()
        orbits(200)
        assert 0 < made == len(calls) <= 40, (made, len(calls))


def _nullspace_reference(rows, ncols, p):
    red, pivots = _rref_reference(rows, ncols, p)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-red[i][free]) % p
        basis.append(tuple(v))
    return basis


def _mat_inv_reference(a, d, p):
    one = tuple(int(i == j) for i in range(d) for j in range(d))
    rows, pivots = _rref_reference(
        [a[i * d:(i + 1) * d] + one[i * d:(i + 1) * d] for i in range(d)],
        d, p)
    if len(pivots) < d:
        raise ZeroDivisionError("matrix is singular")
    return tuple(x for row in rows for x in row[d:])


def _random_rows(rng, nrows, ncols, p):
    """Rows with many zero entries, repeats and combinations of earlier
    rows, so that the rank is often deficient."""
    rows = []
    for _ in range(nrows):
        kind = rng.choice(["random", "sparse", "zero", "repeat", "combine"])
        if kind == "random" or (kind in ("repeat", "combine") and not rows):
            rows.append([rng.randrange(p) for _ in range(ncols)])
        elif kind == "sparse":
            rows.append([rng.randrange(p) if rng.random() < 0.3 else 0
                         for _ in range(ncols)])
        elif kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat":
            rows.append(list(rng.choice(rows)))
        else:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = rng.randrange(p), rng.randrange(p)
            rows.append([(s * x + t * y) % p for x, y in zip(a, b)])
    return rows


def test_nullspace_matches_gauss_jordan_reference():
    rng = random.Random(20261019)
    deficient = full = 0
    for p in (2, 3, 5, 7):
        for nrows in range(9):
            for ncols in range(1, 10):
                for _ in range(3):
                    rows = _random_rows(rng, nrows, ncols, p)
                    want = _nullspace_reference(rows, ncols, p)
                    packed = [_pack(row, 3, p) for row in rows]
                    assert fforacle._nullspace(
                        packed, ncols, fforacle._format(3, p)) == [
                        _pack(v, 3, p) for v in want], rows
                    rank = ncols - len(want)
                    full += rank == min(nrows, ncols)
                    deficient += rank < min(nrows, ncols)
    assert full >= 200 and deficient >= 200, (full, deficient)


def test_mat_inv_matches_gauss_jordan_reference():
    rng = random.Random(20261019)
    cases = [(a, 2, 3) for a in itertools.product(range(3), repeat=4)]
    cases += [(tuple(rng.randrange(p) for _ in range(9)), 3, p)
              for p in (5, 7) for _ in range(100)]
    cases += [((1, 2, 3, 2, 4, 6, 0, 1, 1), 3, 7), ((0,) * 9, 3, 5)]
    singular = 0
    for a, d, p in cases:
        try:
            want = _mat_inv_reference(a, d, p)
        except ZeroDivisionError:
            singular += 1
            with pytest.raises(ZeroDivisionError, match="matrix is singular"):
                mat_inv(_pack(a, d, p), d, p)
        else:
            assert mat_inv(_pack(a, d, p), d, p) == _pack(want, d, p), (
                a, d, p)
    # 81 - 48 singular 2x2 over F_3, two fixed 3x3, some random ones
    assert singular > 33 + 2, singular


def test_kernel_matches_tuple_references_on_slots_wider_than_a_byte():
    # one byte a slot at every d >= 2 the census admits; 2 and 3 bytes
    # where (p - 1) + d*d*(p - 1)**2 passes 255
    widths = {(d, p): fforacle._format(d, p).bits // 8 for d, p in
              [(2, 2), (2, 3), (2, 5), (3, 2), (2, 7), (1, 13), (1, 17),
               (1, 101), (1, 257), (2, 11), (2, 13), (2, 17)]}
    assert widths == {**dict.fromkeys(
        [(2, 2), (2, 3), (2, 5), (3, 2), (2, 7), (1, 13)], 1),
        (1, 17): 2, (1, 101): 2, (1, 257): 3, (2, 11): 2, (2, 13): 2,
        (2, 17): 2}
    rng = random.Random(20261101)
    for d, p in [(1, 101), (1, 257), (2, 11), (2, 13), (2, 17)]:
        n = d * d
        cases = [(p - 1,) * n] + [tuple(rng.randrange(p) for _ in range(n))
                                  for _ in range(60)]
        for a, b in zip(cases, cases[::-1]):
            assert mat_mul(_pack(a, d, p), _pack(b, d, p), d, p) == _pack(
                _schoolbook_mul(a, b, d, p), d, p), (a, b, p)
            try:
                want = _pack(_mat_inv_reference(a, d, p), d, p)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    mat_inv(_pack(a, d, p), d, p)
            else:
                assert mat_inv(_pack(a, d, p), d, p) == want, (a, p)
        # the last row is the sum of the others, so it reduces to 0, through
        # (1 - n) % p + (n - 1)*(p - 1)**2 in slot n - 1
        extreme = [[int(j == k) for j in range(n - 1)] + [p - 1]
                   for k in range(n - 1)] + [[1] * (n - 1) + [(1 - n) % p]]
        for rows in [extreme] + [_random_rows(rng, rng.randrange(n + 2), n, p)
                                 for _ in range(40)]:
            assert fforacle._nullspace(
                [_pack(row, d, p) for row in rows], n,
                fforacle._format(d, p)) == [
                _pack(v, d, p) for v in _nullspace_reference(rows, n, p)]
    _census_matches_polynomial_counts([(1, 101, 2)], {})


def _endomorphism_rows_reference(mats, d, p):
    """The linear system e*x = x*e of each tuple entry x, one row per
    entry (i, j) of e*x - x*e, built entry by entry on tuples."""
    rows = []
    for x in mats:
        x = _unpack(x, d * d, d, p)
        for i in range(d):
            for j in range(d):
                row = [0] * (d * d)
                for b in range(d):
                    row[i * d + b] = (row[i * d + b] + x[b * d + j]) % p
                for a in range(d):
                    row[a * d + j] = (row[a * d + j] - x[i * d + a]) % p
                rows.append(row)
    return rows


def test_endomorphism_basis_matches_tuple_reference():
    # the packed rows, read off the transpose, against rows built entry by
    # entry, over one-byte and two-byte slots
    rng = random.Random(20261102)
    for p in (2, 3, 5, 11):
        for d in (1, 2, 3):
            for _ in range(20):
                mats = _random_tuple(rng, d, p)
                want = _nullspace_reference(
                    _endomorphism_rows_reference(mats, d, p), d * d, p)
                assert endomorphism_basis(mats, d, p) == [
                    _pack(v, d, p) for v in want], (mats, d, p)


def test_endomorphism_basis_matches_gauss_jordan_reference(monkeypatch):
    # the kernel of endomorphism_basis's rows is the Gauss-Jordan one
    rng = random.Random(20261019)
    cases = [(_random_tuple(rng, d, p) + _random_tuple(rng, d, p)[
        :rng.randint(0, 1)], d, p) for p in (2, 3, 5) for d in (1, 2, 3)
        for _ in range(30)]
    got = [endomorphism_basis(mats, d, p) for mats, d, p in cases]

    def reference(rows, ncols, fmt):
        d = math.isqrt(ncols)       # the rows are over d-by-d matrices
        return [_pack(v, d, fmt.p) for v in _nullspace_reference(
            [_unpack(row, ncols, d, fmt.p) for row in rows], ncols, fmt.p)]
    monkeypatch.setattr(fforacle, "_nullspace", reference)
    assert got == [endomorphism_basis(mats, d, p) for mats, d, p in cases]
    assert {len(mats) for mats, _, _ in cases} == {1, 2, 3}


def test_size_guards_and_validation():
    with pytest.raises(SizeGuardError):
        gl_enumerate(3, 5)
    with pytest.raises(SizeGuardError):
        orbit_census(2, 5, 2)
    with pytest.raises(ValueError):
        gl_order(2, 4)
    with pytest.raises(ValueError):
        gl_order(0, 3)
    with pytest.raises(SizeGuardError):
        gl_order(2, 19)


def test_gl_order_sizes_p_before_testing_its_primality(monkeypatch):
    # trial division of this prime would not end
    def no_primality(p):
        raise AssertionError("is_prime called before the size guard")

    monkeypatch.setattr(fforacle, "is_prime", no_primality)
    with pytest.raises(SizeGuardError, match="matrices is too much"):
        gl_order(1, 100000000000000000039)
    with pytest.raises(ValueError):
        orbit_census(2, 2, 0)


def _full_sweep_census(d, p, m):
    """Reference census: every m-tuple, every conjugation by a product.

    Conjugates by explicit matrix products, sweeps all of G^m with one
    visited set, and classifies each orbit representative with the public
    classifiers.
    """
    group = gl_enumerate(d, p)
    index = {g: i for i, g in enumerate(group)}
    conj = []
    for g in group:
        ginv = mat_inv(g, d, p)
        conj.append(tuple(index[mat_mul(mat_mul(g, x, d, p), ginv, d, p)]
                          for x in group))
    orbits = abs_irr = abs_ind = 0
    visited = set()
    for tup in itertools.product(range(len(group)), repeat=m):
        if tup in visited:
            continue
        visited.update(tuple(row[i] for i in tup) for row in conj)
        mats = tuple(group[i] for i in tup)
        orbits += 1
        abs_irr += is_absolutely_irreducible(mats, d, p)
        abs_ind += is_absolutely_indecomposable(mats, d, p)
    return OracleCensus(d=d, p=p, m=m, group_order=len(group), orbits=orbits,
                        abs_irr=abs_irr, abs_ind=abs_ind)


def test_census_matches_full_sweep():
    grid = [(1, 5, 3), (1, 7, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 2, 4),
            (2, 3, 1), (2, 3, 2)]
    for d, p, m in grid:
        assert orbit_census(d, p, m) == _full_sweep_census(d, p, m), (d, p, m)


def test_conjugation_table_matches_direct_products():
    rng = random.Random(20261018)
    assert fforacle._generators(1, 2) == []
    for d, p, rows in [(1, 2, None), (2, 3, None), (3, 2, 20)]:
        group, conj = _gl_table(d, p)
        assert group[0] == identity(d, p)
        assert sorted(group) == gl_enumerate(d, p)
        indices = range(len(group)) if rows is None else rng.sample(
            range(len(group)), rows)
        for gi in indices:
            g, ginv = group[gi], mat_inv(group[gi], d, p)
            assert [group[i] for i in conj[gi]] == [
                mat_mul(mat_mul(g, x, d, p), ginv, d, p) for x in group]


def test_group_table_makes_one_product_per_element_and_generator():
    s4 = (tuple(range(4)), [(1, 0, 2, 3), (1, 2, 3, 0)],
          lambda a, b: tuple(map(a.__getitem__, b)), 24)
    gl32 = (identity(3, 2), fforacle._generators(3, 2),
            lambda a, b: mat_mul(a, b, 3, 2), 168)
    for one, gens, mul, order in (s4, gl32):
        calls = []

        def counted(a, b):
            calls.append(None)
            return mul(a, b)
        group, _ = _group_table(one, gens, counted, order)
        assert len(group) == order
        assert len(calls) == order * len(gens)


def test_group_table_refuses_a_product_that_is_no_group_law(monkeypatch):
    # the integers under addition: the pass would never close
    with pytest.raises(IdentityError, match="more than 5 group elements"):
        _group_table(0, [1], lambda a, b: a + b, 5)
    # the pass closes on {0, 1}, but 1 times 1 is 1, never 0 again
    with pytest.raises(IdentityError, match="do not return to one in 2 steps"):
        _group_table(0, [1], lambda a, b: min(a + b, 1), 2)
    # products never reduced mod p grow past GL_2(F_3)
    monkeypatch.setattr(fforacle, "_norm", lambda x, fmt: x)
    with pytest.raises(IdentityError, match="more than 48 group elements"):
        orbit_census(2, 3, 1)


def test_gl_enumerate_checks_its_count_against_the_group_order(monkeypatch):
    # a kernel that is always 0 takes every matrix for invertible
    monkeypatch.setattr(fforacle, "_nullspace", lambda rows, ncols, fmt: [])
    with pytest.raises(IdentityError,
                       match=r"^found 16 invertible matrices, expected 6$"):
        gl_enumerate(2, 2)


def test_orbits_check_their_sizes_against_the_group_order(monkeypatch):
    # a conjugation row that sends every element to one is no group
    # action: the class of the identity turns up in every other orbit
    real = fforacle._group_table

    def broken(*args):
        group, conj = real(*args)
        return group, conj[:-1] + [(0,) * len(group)]

    monkeypatch.setattr(fforacle, "_group_table", broken)
    for census in (lambda: orbit_census(2, 2, 1),
                   lambda: fforacle.perm_rep_census(3, 1)):
        with pytest.raises(IdentityError, match=r"^orbit sizes do not add "
                                                r"up to the group order$"):
            census()


def test_census_checks_that_irreducible_tuples_are_indecomposable(
        monkeypatch):
    monkeypatch.setattr(fforacle, "is_absolutely_indecomposable",
                        lambda mats, d, p: False)
    assert orbit_census(2, 2, 1).abs_irr == 0   # one matrix: no irreducible
    with pytest.raises(IdentityError, match=r"^an absolutely irreducible "
                                            r"2-tuple in GL_2\(F_2\) is "
                                            r"decomposable$"):
        orbit_census(2, 2, 2)


def test_census_does_not_enumerate_the_matrices(monkeypatch):
    def no_sweep(*args):
        raise AssertionError("the census swept all matrices")

    monkeypatch.setattr(fforacle, "gl_enumerate", no_sweep)
    assert orbit_census(2, 3, 2).orbits == 136


def test_conjugation_table_needs_a_generating_set(monkeypatch):
    transvections = fforacle._generators(2, 3)[:-1]     # generate SL_2(F_3)
    monkeypatch.setattr(fforacle, "_generators", lambda d, p: transvections)
    with pytest.raises(IdentityError, match="reached 24 of 48"):
        orbit_census(2, 3, 1)


def test_census_refuses_before_enumerating(monkeypatch):
    def no_table(*args):
        raise AssertionError("group table built before the size guard")

    monkeypatch.setattr(fforacle, "_group_table", no_table)
    for d, p, m in [(4, 2, 2), (3, 3, 2), (3, 2, 15)]:
        with pytest.raises(SizeGuardError, match="table is too much"):
            orbit_census(d, p, m)


class _Admitted(Exception):
    """Raised in place of building the group table, past the guard."""


def _admits(monkeypatch, d, p, m):
    """Whether the census guard lets (d, p, m) through, at no cost."""
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(fforacle, "_group_table", admitted)
    try:
        orbit_census(d, p, m)
    except _Admitted:
        return True
    except SizeGuardError as exc:
        assert str(exc).endswith("table is too much"), exc
        return False
    raise AssertionError("the census ran without a group table")


def test_census_guard_bounds_the_levels_times_the_table(monkeypatch):
    # m levels, each of which may read the whole |G|**2 conjugation table:
    # 14 * 168**2 = 395136, 173 * 48**2 = 398592, 480**2 = 230400
    admitted = [(3, 2, 14), (2, 3, 173), (2, 5, 1), (1, 2, 400_000)]
    refused = [(3, 2, 15), (2, 3, 174), (2, 5, 2), (2, 7, 1), (1, 2, 400_001)]
    assert [_admits(monkeypatch, *box) for box in admitted + refused] == [
        True] * len(admitted) + [False] * len(refused)
    with pytest.raises(SizeGuardError) as refusal:
        orbit_census(3, 2, 15)
    assert str(refusal.value) == "15 levels over a 168**2 table is too much"


def test_census_guard_admits_every_box_the_tuple_sweep_guard_did(
        monkeypatch):
    # the guard of the census that swept tuples: |G|**max(m, 2) <= 200000,
    # and m <= 200000 for the group of order 1
    def swept(n, m):
        return n ** max(m, 2) <= 200_000 and m <= 200_000
    boxes = [(1, 2, 200_000)]
    for d in range(1, 5):
        for p in filter(is_prime, range(2, 100_001)):
            if p ** (d * d) > 100_000:
                break
            n = gl_order(d, p)
            boxes += [(d, p, m) for m in range(1, 21) if swept(n, m)]
    assert {d for d, _, _ in boxes} == {1, 2, 3} and len(boxes) > 150
    assert [box for box in boxes if not _admits(monkeypatch, *box)] == []


def test_identity_failure_survives_optimize():
    # every absolutely irreducible orbit now reads as decomposable
    script = ("import sys; from charvar import fforacle; "
              "fforacle._local_split = lambda *args: False; "
              "from charvar.cli import main; "
              "sys.exit(main(['oracle', '--d', '2', '--p', '2', '--m', '2']))")
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 3, done.stderr
    assert "internal identity failure" in done.stderr
    assert done.stdout == ""
