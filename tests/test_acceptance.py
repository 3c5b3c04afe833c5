"""Acceptance gate: ten criteria, each exact with zero tolerance.

Every test prints one PASS line on success; pytest -v shows one
pass/fail line per criterion either way.  The expected values here are
frozen independently of the library (closed-form expressions, arithmetic
functions, brute-force enumeration), so a pipeline regression cannot
hide behind a shared helper.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

from charvar.arith import divisors, mobius, totient
from charvar.combinatorics import (
    census_series_checks, connected_weight_poly, connected_weight_series,
    hall_subgroup_counts, inversions, limit_transform, perm_rep_census,
    q_factorial, subgroup_counts,
)
from charvar.counting import (
    abs_ind_counts, abs_irr_counts, build_table, default_dmax, e_polynomial,
    euler_characteristics, orbit_counts, rep_counts,
    rep_series, abs_irr_series, abs_ind_series, orbit_series, uv_str,
)
from charvar.fforacle import orbit_census
from charvar.plethystic import (Exp, Log, Pow, irreducible_poly_count,
                                pow_product)
from charvar.qpoly import ONE, QPoly, ZERO, expand_in_s, q
from charvar.tseries import TSeries

HALF = Fraction(1, 2)


def _rank_one(m):
    return (q - 1) ** m


def _rank_two_irr(m):
    s, u = q - 1, q + 1
    core = q ** (m - 1) * s ** (m - 1) * (u ** (m - 1) - ONE)
    return s ** m * (core - u ** (m - 1) * HALF + s ** (m - 1) * HALF)


def _rank_two_full(m):
    s, u = q - 1, q + 1
    core = q ** (m - 1) * s ** (m - 1) * (u ** (m - 1) - ONE)
    return s ** m * (core + q * (u ** (m - 1) + s ** (m - 1)) * HALF)


def _rank_two_pgl(m):
    s, u = q - 1, q + 1
    core = q ** (m - 1) * s ** (m - 1) * (u ** (m - 1) - ONE)
    return core + q * (u ** (m - 1) + s ** (m - 1)) * HALF


def _random_qpoly(rng, degree):
    return QPoly(tuple(rng.randint(-3, 3) for _ in range(degree + 1)))


def test_criterion_01_closed_forms():
    for m in range(2, 6):
        assert rep_counts(m, 1)[1] == _rank_one(m)
        assert abs_irr_counts(m, 1)[1] == _rank_one(m)
        assert abs_irr_counts(m, 2)[2] == _rank_two_irr(m)
        assert rep_counts(m, 2)[2] == _rank_two_full(m)
    print("PASS criterion 1: closed forms at d <= 2 match for m = 2..5")


def test_criterion_02_pgl_e_polynomial():
    for m in range(2, 5):
        assert e_polynomial(m, 2, group="PGL") == _rank_two_pgl(m)
    assert uv_str(e_polynomial(2, 2, group="PGL")) == "u^3*v^3"
    print("PASS criterion 2: quotient E-polynomial at d = 2 matches for "
          "m = 2..4")


def test_criterion_03_positivity():
    for m, dmax in [(2, 6), (3, 6), (4, 4), (5, 4)]:
        rows = build_table(m, dmax).rows
        assert [row.d for row in rows] == list(range(1, dmax + 1))
        for row in rows:
            assert row.positive, (m, row.d)
            assert all(isinstance(c, int) and c >= 0 for c in row.s_coeffs)
            assert sum((c * (q - 1) ** k for k, c in enumerate(row.s_coeffs)),
                       ZERO) == row.rep_count, (m, row.d)
    witness = next((d, k, c) for d, p in enumerate(abs_irr_counts(2, 2)) if d
                   for k, c in enumerate(expand_in_s(p)) if c < 0)
    assert witness == (2, 2, -1)
    print("PASS criterion 3: full counts positive in powers of (q-1); "
          f"irreducible counts are not, witness {witness}")


def test_criterion_04_euler_characteristics():
    for m in range(2, 5):
        for d in range(1, 9):
            chi, chi_irr = euler_characteristics(m, d)
            assert chi == totient(d) * d ** (m - 2), (m, d)
            assert chi_irr == mobius(d) * d ** (m - 2), (m, d)
    print("PASS criterion 4: Euler characteristics match the arithmetic "
          "formulas for d <= 8, m = 2..4")


def test_criterion_05_connected_tuple_inversion():
    for m, nmax in [(2, 5), (3, 4)]:
        series = connected_weight_series(m, nmax)
        for n in range(1, nmax + 1):
            assert series.coeff(n) == connected_weight_poly(n, m), (m, n)
    for n in range(7):
        lengths = Counter(map(inversions, permutations(range(n))))
        assert QPoly([lengths[k] for k in range(max(lengths) + 1)]) \
            == q_factorial(n), n
    print("PASS criterion 5: connected-tuple enumeration inverts the "
          "weight series; inversion statistic generates the q-factorial")


def test_criterion_06_power_product_formula():
    rng = random.Random(260819)
    order = 8
    for trial in range(20):
        coeffs = [ONE] + [_random_qpoly(rng, rng.randint(0, 2))
                          for _ in range(order)]
        f = TSeries(order, coeffs)
        assert Pow(f, ONE - q) == pow_product(f), trial
    for n in range(1, 13):
        total = sum((d * irreducible_poly_count(d) for d in divisors(n)),
                    ZERO)
        assert total == q ** n - ONE
        assert all(isinstance(c, int) and c >= 0
                   for c in expand_in_s(n * irreducible_poly_count(n)))
    print("PASS criterion 6: power product identity on 20 random series; "
          "irreducible-polynomial counts sum and stay positive for n <= 12")


def test_criterion_07_exp_log_structure():
    rng = random.Random(190826)
    order = 10
    for _ in range(5):
        unit = TSeries(order, [ONE] + [_random_qpoly(rng, 2)
                                       for _ in range(order)])
        nilp = TSeries(order, [ZERO] + [_random_qpoly(rng, 2)
                                        for _ in range(order)])
        assert Exp(Log(unit)) == unit
        assert Log(Exp(nilp)) == nilp
    for m in (2, 3):
        assert rep_series(m, 6) == Exp(abs_irr_series(m, 6))
        assert orbit_series(m, 6) == Exp(abs_ind_series(m, 6))
    print("PASS criterion 7: Exp/Log invert to order 10; count series are "
          "Exp of their building blocks to order 6")


def test_criterion_08_finite_field_oracle():
    base = orbit_census(2, 2, 2)
    assert (base.orbits, base.abs_irr, base.abs_ind) == (11, 3, 6)
    grid = [(d, p, m) for d in (1, 2) for p in (2, 3) for m in (2, 3)]
    grid += [(1, p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3, 4)]
    for d, p, m in sorted(set(grid)):
        census = orbit_census(d, p, m)
        assert census.orbits == orbit_counts(m, d)[d].evaluate(p), (d, p, m)
        assert census.abs_irr == abs_irr_counts(m, d)[d].evaluate(p)
        assert census.abs_ind == abs_ind_counts(m, d)[d].evaluate(p)
    print("PASS criterion 8: brute force equals polynomial evaluation on "
          "the full grid (d <= 2, p in {2,3}, m in {2,3}; d = 1, p <= 7)")


def test_criterion_09_subgroup_counts():
    for m in (1, 2, 3):
        assert subgroup_counts(m, 8) == hall_subgroup_counts(m, 8)
    assert subgroup_counts(2, 5) == [1, 3, 13, 71, 461]
    for m in (2, 3):
        counts = subgroup_counts(m, 5)
        expected = [Fraction(counts[n - 1], n) for n in range(1, 6)]
        assert limit_transform(m, 5) == expected
    checks = census_series_checks(4, 2)
    assert all(checks.values()), checks
    rows = [perm_rep_census(n, 2) for n in range(1, 5)]
    assert [r.aut_weight_all for r in rows] == [factorial(n)
                                                for n in range(1, 5)]
    print("PASS criterion 9: subgroup counts by two routes, by character "
          "limits, and by the permutation census all agree")


def test_criterion_10_integrality():
    for m in (2, 3):
        dmax = default_dmax(m)
        for counts in (rep_counts, abs_irr_counts, abs_ind_counts,
                       orbit_counts):
            for poly in counts(m, dmax)[1:]:
                assert all(isinstance(c, int) for c in poly.coeffs)
    print("PASS criterion 10: every counting polynomial has integer "
          "coefficients up to the default truncation")
