"""Counting polynomials, E-polynomials, Euler characteristics, positivity."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import charvar

from charvar.arith import mobius, partitions, totient
from charvar.plethystic import Pow
from charvar.qpoly import (
    QPoly, ONE, expand_in_s, limit_at_1, q,
)
from charvar.counting import (
    CharVarTable, IntegralityError, _certified_integral, abs_ind_counts,
    abs_ind_series, abs_irr_counts, abs_irr_series, build_table,
    centralizer_weight, class_weight_series, default_dmax, e_polynomial,
    euler_characteristics, orbit_counts, orbit_series, positivity_report,
    qpochhammer_series, rep_counts, rep_series, s_positive, uv_str,
)
from charvar.tseries import TSeries
from charvar.verify import rank_two_closed_forms


def rank2_abs_irr_closed_form(m):
    # (q-1)^m (q^(m-1)(q-1)^(m-1)((q+1)^(m-1)-1) - ((q+1)^(m-1)-(q-1)^(m-1))/2)
    inner = (q ** (m - 1) * (q - 1) ** (m - 1) * ((q + 1) ** (m - 1) - 1)
             - ((q + 1) ** (m - 1) - (q - 1) ** (m - 1)) * Fraction(1, 2))
    return (q - 1) ** m * inner


def rank2_rep_closed_form(m):
    inner = (q ** (m - 1) * (q - 1) ** (m - 1) * ((q + 1) ** (m - 1) - 1)
             + q * ((q + 1) ** (m - 1) + (q - 1) ** (m - 1)) * Fraction(1, 2))
    return (q - 1) ** m * inner


def rank2_pgl_epoly_closed_form(m):
    # in the product variable uv
    return (q ** (m - 1) * (q - 1) ** (m - 1) * ((q + 1) ** (m - 1) - 1)
            + q * ((q + 1) ** (m - 1) + (q - 1) ** (m - 1)) * Fraction(1, 2))


def test_qpochhammer_series_coefficients():
    f = qpochhammer_series(2, 3)
    assert f.coeff(0) == ONE
    assert f.coeff(1) == q - 1
    assert f.coeff(2) == (q - 1) * (q ** 2 - 1)
    assert qpochhammer_series(1, 4) == TSeries(4, [1, 1, 1, 1, 1])
    assert qpochhammer_series(3, 1).coeff(1) == (q - 1) ** 2


def test_rank1_counts_all_agree():
    for m in (1, 2, 3, 4, 5):
        expected = (q - 1) ** m
        assert rep_counts(m, 1)[1] == expected
        assert abs_irr_counts(m, 1)[1] == expected
        assert abs_ind_counts(m, 1)[1] == expected
        assert orbit_counts(m, 1)[1] == expected


def test_rank2_closed_forms_m2():
    assert abs_irr_counts(2, 2)[2] == (q - 1) ** 2 * (q ** 3 - q ** 2 - 1)
    assert rep_counts(2, 2)[2] == q ** 3 * (q - 1) ** 2
    assert abs_ind_counts(2, 2)[2] == q * (q + 1) * (q - 1) ** 3
    assert orbit_counts(2, 2)[2] == \
        q * (q + 1) * (q - 1) ** 3 + (q - 1) ** 2 * (q ** 2 + 1)


def test_rank2_closed_forms_general_m():
    for m in (2, 3, 4, 5):
        assert abs_irr_counts(m, 2)[2] == rank2_abs_irr_closed_form(m)
        assert rep_counts(m, 2)[2] == rank2_rep_closed_form(m)


def test_rank2_evaluations():
    assert abs_irr_counts(2, 2)[2](2) == 3
    assert rep_counts(2, 2)[2](2) == 8
    assert abs_ind_counts(2, 2)[2](2) == 6
    assert orbit_counts(2, 2)[2](2) == 11
    assert orbit_counts(2, 2)[2](3) == 136


def test_rank2_semisimple_decomposition():
    # A_2 = A_2^irr + (A_1^irr(q^2) + A_1^irr(q)^2)/2: one irreducible of
    # rank 2 over the quadratic extension, or an unordered pair of rank-1s
    for m in (2, 3, 4, 5):
        irr1 = abs_irr_counts(m, 2)[1]
        expected = (abs_irr_counts(m, 2)[2]
                    + (irr1.adams(2) + irr1 * irr1) * Fraction(1, 2))
        assert rep_counts(m, 2)[2] == expected


def test_degree_zero_terms():
    assert rep_counts(2, 3)[0] == ONE
    assert orbit_counts(2, 3)[0] == ONE
    assert abs_irr_counts(3, 3)[0] == 0
    assert abs_ind_counts(3, 3)[0] == 0


def test_centralizer_weight_examples():
    assert centralizer_weight((1,)) == q - 1
    assert centralizer_weight((1, 1)) == q * (q - 1)
    assert centralizer_weight((2,)) == q * (q - 1) * (q ** 2 - 1)
    assert centralizer_weight(()) == ONE
    # degree equals |GL_n|-degree n^2 for the full-Jordan partition
    assert centralizer_weight((3,)).degree == 9


def test_class_weight_series_values():
    # t^2-coefficient at m = 2: r_(2) + r_(1,1) = q^3 (q - 1)
    f = class_weight_series(2, 2)
    assert f.coeff(2) == q ** 3 * (q - 1)
    assert f.coeff(0) == ONE


def test_class_weight_dp_matches_partition_sum():
    order = 10
    for m in (1, 2, 3, 4):
        f = class_weight_series(m, order)
        for d in range(order + 1):
            expected = sum((centralizer_weight(lam) ** (m - 1)
                            for lam in partitions(d)), QPoly(()))
            assert f.coeff(d) == expected, (m, d)
    # one generator: every partition has weight 1
    assert class_weight_series(1, order).coeffs == tuple(
        QPoly([len(partitions(d))]) for d in range(order + 1))


def test_integrality_certification_sees_fractions():
    # non-integral Fractions built through the int fast paths still fail
    t = 20
    half_sum = (q ** t + 1) * Fraction(1, 2) + (q ** t - 1) * Fraction(1, 2)
    assert half_sum == q ** t
    bad = q ** t * (q ** t + 1) + QPoly([Fraction(1, 3)] * t)
    for series in (TSeries(2, [ONE, q ** t - 1, bad]),
                   TSeries(1, [ONE, (q ** t + 1) * Fraction(1, 2)])):
        with pytest.raises(IntegralityError):
            _certified_integral(series, "test")
    good = TSeries(1, [ONE, half_sum])
    assert _certified_integral(good, "test") is good


def test_exp_relations():
    # A and M are built as Exp of the building blocks; compare them with
    # routes that never read those blocks: Pow of the defining series, and
    # the directly built rank-2 formulas
    for m in (2, 3):
        twisted = qpochhammer_series(m, 5).inverse().qpower_twist(m)
        assert rep_series(m, 5) == Pow(twisted, 1 - q)
        assert orbit_series(m, 5) == Pow(class_weight_series(m, 5), q - 1)
        forms = rank_two_closed_forms(m)
        assert abs_irr_series(m, 5).coeff(2) == forms["irr2"]
        assert rep_series(m, 5).coeff(2) == forms["full2"]


def test_rank1_free_abelian_case():
    # m = 1: representations of the integers; conjugacy classes of GL_d
    assert orbit_counts(1, 2)[2] == q ** 2 - 1
    assert abs_ind_counts(1, 4) == [QPoly([0]), q - 1, q - 1, q - 1, q - 1]
    assert abs_irr_counts(1, 3)[2] == 0
    assert abs_irr_counts(1, 3)[3] == 0


def test_integer_coefficients_certified():
    for m in (2, 3):
        for series in (rep_series(m, 6), abs_irr_series(m, 6),
                       abs_ind_series(m, 6), orbit_series(m, 6)):
            assert all(c.is_integral for c in series.coeffs)
    bad = TSeries(1, [ONE, QPoly([Fraction(1, 2)])])
    with pytest.raises(IntegralityError):
        _certified_integral(bad, "test")


def test_e_polynomial_gl():
    assert e_polynomial(2, 1, "GL", "full") == (q - 1) ** 2
    assert e_polynomial(3, 2, "GL", "irr") == abs_irr_counts(3, 2)[2]


def test_e_polynomial_pgl_rank2():
    assert e_polynomial(2, 2, "PGL", "full") == q ** 3
    for m in (2, 3, 4):
        assert e_polynomial(m, 2, "PGL", "full") == rank2_pgl_epoly_closed_form(m)


def test_e_polynomial_guards():
    with pytest.raises(ValueError):
        e_polynomial(1, 2, "PGL", "full")
    with pytest.raises(ValueError):
        e_polynomial(2, 2, "SL", "full")
    # d is checked before any series is built, and the message names it
    with pytest.raises(ValueError, match=r"^need d >= 1$"):
        e_polynomial(2, 0, "PGL")
    for group in ("GL", "PGL"):
        with pytest.raises(ValueError, match=r"^need d >= [01]$"):
            e_polynomial(2, -1, group)
    assert e_polynomial(2, 0) == ONE
    with pytest.raises(ValueError, match=r"^need d >= 1$"):
        euler_characteristics(2, 0)


def test_uv_str():
    assert uv_str(q ** 3) == "u^3*v^3"
    assert uv_str(q ** 2 - 2 * q + 1) == "u^2*v^2 - 2*u*v + 1"
    assert uv_str(QPoly([7])) == "7"


def test_euler_characteristics_small():
    assert euler_characteristics(2, 1) == (1, 1)
    assert euler_characteristics(2, 2) == (1, -1)
    assert euler_characteristics(2, 5) == (4, -1)
    for m in (2, 3):
        for d in range(1, 5):
            chi, chi_irr = euler_characteristics(m, d)
            assert chi == totient(d) * d ** (m - 2)
            assert chi_irr == mobius(d) * d ** (m - 2)
    with pytest.raises(ValueError):
        euler_characteristics(1, 2)


def test_euler_characteristics_are_limits_at_one():
    for m in (2, 3, 4):
        reps, irrs = rep_series(m, 8), abs_irr_series(m, 8)
        for d in range(1, 9):
            expected = tuple(
                limit_at_1(series.coeff(d), (q - 1) ** m)
                for series in (reps, irrs))
            assert euler_characteristics(m, d) == expected, (m, d)


def test_smaller_order_is_a_truncation_of_the_longest_series():
    # a fresh interpreter builds each series at order 3 with nothing cached
    script = ("from charvar.counting import orbit_series, rep_series\n"
              "for m in (2, 3):\n"
              "    print(rep_series(m, 3))\n"
              "    print(orbit_series(m, 3))\n")
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    fresh = iter(done.stdout.splitlines())
    for m in (2, 3):
        for series in (rep_series, orbit_series):
            deep = series(m, 9)
            shallow = series(m, 3)
            assert shallow.order == 3
            assert shallow.coeffs == deep.coeffs[:4]
            assert str(shallow) == next(fresh)


def test_build_table_takes_one_log_per_building_block():
    # A and M are Exp of the irreducible and indecomposable series, so a
    # table needs the Log of the twisted inverse and of the class weights
    # only; a fresh interpreter counts the Log recurrences from scratch
    script = ("from charvar import plethystic\n"
              "from charvar.counting import build_table\n"
              "real, calls = plethystic._log_numerators, []\n"
              "def counted(*args):\n"
              "    calls.append(args[1])\n"
              "    return real(*args)\n"
              "plethystic._log_numerators = counted\n"
              "build_table(3, 6)\n"
              "print(calls)\n")
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "['Log', 'Log']\n"


def test_positivity_rank2_m2():
    p = q ** 3 * (q - 1) ** 2
    assert expand_in_s(p) == [0, 0, 1, 3, 3, 1]
    assert s_positive(p)
    assert not s_positive(q ** 3 - q ** 2 - 1)


def test_positivity_report():
    rep = positivity_report(2, 4)
    assert rep.all_positive
    assert rep.rows[1][1] == (0, 0, 1, 3, 3, 1)
    # the absolutely irreducible counts are not positive in the s-basis:
    # the rank-2 count (q-1)^2 (q^3-q^2-1) has s-expansion [0,0,-1,1,2,1]
    assert rep.irr_witness == (2, 2, -1)
    assert positivity_report(2, 0).rows == ()
    with pytest.raises(ValueError, match=r"^need dmax >= 0$"):
        positivity_report(2, -1)


def test_build_table():
    table = build_table(2, 3)
    assert isinstance(table, CharVarTable)
    assert [row.d for row in table.rows] == [1, 2, 3]
    row2 = table.rows[1]
    assert row2.rep_count == q ** 3 * (q - 1) ** 2
    assert row2.chi_pgl == 1 and row2.chi_pgl_irr == -1
    assert row2.positive
    doc = table.to_json_dict()
    assert doc["m"] == 2
    assert doc["rows"][1]["A"] == ["0", "0", "0", "1", "-2", "1"]
    assert doc["rows"][1]["s_coeffs_A"] == ["0", "0", "1", "3", "3", "1"]
    assert doc["rows"][1]["chi_pgl"] == "1"
    assert doc["rows"][1]["positive"] is True


def test_build_table_m1_skips_pgl_data():
    table = build_table(1, 2)
    assert table.rows[0].chi_pgl is None
    assert table.to_json_dict()["rows"][0]["chi_pgl"] is None


def test_default_dmax():
    assert default_dmax(2) == 6
    assert default_dmax(3) == 6
    assert default_dmax(4) == 4


def test_build_table_guards():
    with pytest.raises(ValueError):
        build_table(0, 2)
