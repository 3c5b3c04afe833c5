"""Finite-field brute force, and its agreement with the series pipeline."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import charvar
from charvar import fforacle
from charvar.combinatorics import IdentityError, SizeGuardError
from charvar.counting import abs_ind_counts, abs_irr_counts, orbit_counts
from charvar.fforacle import (
    OracleCensus, _conjugation_table, algebra_span_dim, burnside_orbit_count,
    conjugacy_classes, endomorphism_basis, gl_enumerate, gl_order, identity,
    is_absolutely_indecomposable, is_absolutely_irreducible, mat_det, mat_inv,
    mat_mul, orbit_census,
)

I2 = (1, 0, 0, 1)
JORDAN = (1, 1, 0, 1)       # unipotent, one Jordan block
SWAP = (0, 1, 1, 0)
ORDER3 = (0, 1, 1, 1)       # irreducible characteristic polynomial over F_2


def test_matrix_arithmetic():
    assert mat_mul(I2, SWAP, 2, 2) == SWAP
    assert mat_mul(ORDER3, ORDER3, 2, 2) == (1, 1, 1, 0)
    assert mat_mul(mat_mul(ORDER3, ORDER3, 2, 2), ORDER3, 2, 2) == I2
    assert mat_det(I2, 2, 5) == 1
    assert mat_det((2, 1, 3, 4), 2, 5) == 0     # 8 - 3 = 5
    assert mat_inv(SWAP, 2, 3) == SWAP
    with pytest.raises(ZeroDivisionError):
        mat_inv((1, 1, 1, 1), 2, 2)


def test_det_multiplicative_and_inverse_roundtrip():
    rng = random.Random(20260819)
    p, d = 5, 3
    for _ in range(40):
        a = tuple(rng.randrange(p) for _ in range(d * d))
        b = tuple(rng.randrange(p) for _ in range(d * d))
        prod = mat_mul(a, b, d, p)
        assert mat_det(prod, d, p) == mat_det(a, d, p) * mat_det(b, d, p) % p
        if mat_det(a, d, p):
            assert mat_mul(a, mat_inv(a, d, p), d, p) == identity(d)
            assert mat_mul(mat_inv(a, d, p), a, d, p) == identity(d)
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


def test_conjugacy_classes():
    small = conjugacy_classes(2, 2)
    assert sorted(c.size for c in small) == [1, 2, 3]
    assert sorted(c.centralizer_order for c in small) == [2, 3, 6]
    central = [c for c in small if c.size == 1]
    assert [c.rep for c in central] == [identity(2)]
    bigger = conjugacy_classes(2, 3)
    assert len(bigger) == 8
    assert sorted(c.centralizer_order for c in bigger) == [4, 6, 6, 8, 8, 8,
                                                           48, 48]
    assert sum(c.size for c in bigger) == 48


def test_burnside_agrees_with_sweep():
    for d, p, m in [(1, 3, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2)]:
        assert orbit_census(d, p, m).orbits == burnside_orbit_count(d, p, m)


def test_algebra_span_classifier():
    assert algebra_span_dim((I2, I2), 2, 2) == 1
    assert algebra_span_dim((JORDAN, I2), 2, 2) == 2
    assert algebra_span_dim((ORDER3, I2), 2, 2) == 2
    assert algebra_span_dim((SWAP, ORDER3), 2, 2) == 4
    assert is_absolutely_irreducible((SWAP, ORDER3), 2, 2)
    assert not is_absolutely_irreducible((ORDER3, ORDER3), 2, 2)


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


def test_size_guards_and_validation():
    with pytest.raises(SizeGuardError):
        gl_enumerate(3, 5)
    with pytest.raises(SizeGuardError):
        conjugacy_classes(2, 7)
    with pytest.raises(SizeGuardError):
        orbit_census(2, 5, 2)
    with pytest.raises(ValueError):
        gl_order(2, 4)
    with pytest.raises(ValueError):
        gl_order(0, 3)
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
    for d, p, rows in [(2, 3, None), (3, 2, 20)]:
        group = gl_enumerate(d, p)
        conj = _conjugation_table(group, d, p)
        indices = range(len(group)) if rows is None else rng.sample(
            range(len(group)), rows)
        for gi in indices:
            g, ginv = group[gi], mat_inv(group[gi], d, p)
            assert [group[i] for i in conj[gi]] == [
                mat_mul(mat_mul(g, x, d, p), ginv, d, p) for x in group]


def test_conjugation_table_needs_a_generating_set(monkeypatch):
    transvections = fforacle._generators(2, 3)[:-1]     # generate SL_2(F_3)
    monkeypatch.setattr(fforacle, "_generators", lambda d, p: transvections)
    with pytest.raises(IdentityError, match="reached 24 of 48"):
        orbit_census(2, 3, 1)


def test_census_refuses_before_enumerating(monkeypatch):
    def no_det(*args):
        raise AssertionError("mat_det called before the size guard")

    monkeypatch.setattr(fforacle, "mat_det", no_det)
    for d, p, m in [(4, 2, 2), (3, 3, 2), (2, 3, 4)]:
        with pytest.raises(SizeGuardError, match="tuples is too much"):
            orbit_census(d, p, m)
    with pytest.raises(SizeGuardError, match="exceeds the class limit"):
        conjugacy_classes(2, 7)


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
