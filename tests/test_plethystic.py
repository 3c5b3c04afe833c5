"""Plethystic exponential/logarithm calculus and the Pow product formula."""

import random
from fractions import Fraction

import pytest

from charvar.arith import divisors, mobius
from charvar.qpoly import QPoly, ONE, ZERO, expand_in_s, limit_at_1, q, ratio
from charvar.plethystic import (
    Exp, Log, Pow, irreducible_poly_count, pow_product, pow_scalar, psi,
    psi_inv, series_exp, series_log,
)
from charvar.tseries import TSeries


def rand_unit_series(rng, order, deg=2):
    cs = [ONE] + [QPoly([rng.randint(-3, 3) for _ in range(deg + 1)])
                  for _ in range(order)]
    return TSeries(order, cs)


def rand_nilpotent_series(rng, order, deg=2):
    cs = [ZERO] + [QPoly([rng.randint(-3, 3) for _ in range(deg + 1)])
                   for _ in range(order)]
    return TSeries(order, cs)


def t_series(order):
    return TSeries.from_terms(order, {1: 1})


# -- reference: the compositions with a division by n at every step ----------


def _is_zero(c):
    return isinstance(c, QPoly) and c.is_zero


def ref_adams_sum(f, weight):
    acc = TSeries(f.order)
    for n in range(1, f.order + 1):
        if weight(n):
            acc = acc + f.adams(n) * weight(n)
    return acc


def ref_psi(f):
    return ref_adams_sum(f, lambda n: Fraction(1, n))


def ref_psi_inv(f):
    return ref_adams_sum(f, lambda n: Fraction(mobius(n), n))


def ref_series_exp(f):
    g = [ONE] + [ZERO] * f.order
    for n in range(1, f.order + 1):
        acc = ZERO
        for k in range(1, n + 1):
            if not _is_zero(f.coeffs[k]):
                acc = acc + (f.coeffs[k] * k) * g[n - k]
        g[n] = acc * Fraction(1, n)
    return TSeries(f.order, g)


def ref_series_log(f):
    h = [ZERO] * (f.order + 1)
    for n in range(1, f.order + 1):
        acc = ZERO
        for k in range(1, n):
            if not (_is_zero(h[k]) or _is_zero(f.coeffs[n - k])):
                acc = acc + (h[k] * k) * f.coeffs[n - k]
        h[n] = f.coeffs[n] - acc * Fraction(1, n)
    return TSeries(f.order, h)


def ref_Exp(f):
    return ref_series_exp(ref_psi(f))


def ref_Log(g):
    return ref_psi_inv(ref_series_log(g))


def rand_coeff(rng, kind):
    p = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
    if kind == "fraction":
        return p * Fraction(1, rng.randint(1, 3))
    return p


def test_numerator_kernel_matches_per_step_division():
    rng = random.Random(41)
    for kind in ("int", "fraction"):
        for order in range(1, 11):
            tail = [rand_coeff(rng, kind) for _ in range(order)]
            f = TSeries(order, [ONE] + tail)
            g = TSeries(order, [ZERO] + tail)
            exponents = [rand_coeff(rng, kind)]
            if order <= 4:
                exponents.append(rand_coeff(rng, "fraction"))
            assert psi(g) == ref_psi(g), (kind, order)
            assert psi_inv(g) == ref_psi_inv(g), (kind, order)
            assert series_exp(g) == ref_series_exp(g), (kind, order)
            assert series_log(f) == ref_series_log(f), (kind, order)
            assert Exp(g) == ref_Exp(g), (kind, order)
            assert Log(f) == ref_Log(f), (kind, order)
            for c in exponents:
                assert Pow(f, c) == ref_Exp(ref_Log(f) * c), (kind, order)
                assert pow_scalar(f, c) == \
                    ref_series_exp(ref_series_log(f) * c), (kind, order)


def test_exact_division_stays_int_when_n_divides():
    # the plethystic operators divide each numerator by its index with / n
    rng = random.Random(43)
    for _ in range(200):
        n = rng.choice((1, 2, 3, 4, 5, 6, -2, -3))
        c = QPoly([rng.choice((0, n, -2 * n, 1, 3)) * rng.randint(1, 4)
                   for _ in range(rng.randint(0, 5))])
        out = c / n
        assert out * n == c
        divides = all(x % n == 0 for x in c.coeffs)
        assert all(type(x) is int for x in out.coeffs) == divides
    r = q * Fraction(1, 2) + 1
    assert (r / 3) * 3 == r
    assert (r / 3).coeffs == (Fraction(1, 3), Fraction(1, 6))
    with pytest.raises(ZeroDivisionError):
        q / 0


def test_psi_of_t():
    f = psi(t_series(4))
    assert f == TSeries(4, [0, 1, Fraction(1, 2), Fraction(1, 3),
                            Fraction(1, 4)])


def test_psi_inverse_pair():
    g = TSeries.from_terms(5, {1: q, 2: 1})
    assert psi_inv(psi(g)) == g
    assert psi(psi_inv(g)) == g
    assert psi_inv(TSeries(2, [0, 1, Fraction(1, 2)])) == t_series(2)


def test_psi_rejects_constant_term():
    with pytest.raises(ValueError):
        psi(TSeries.one(3))
    with pytest.raises(ValueError):
        Log(t_series(3))
    with pytest.raises(ValueError):
        Exp(TSeries.one(3))


def test_series_exp_log_roundtrip():
    rng = random.Random(19)
    for _ in range(20):
        f = rand_nilpotent_series(rng, rng.randint(1, 8))
        assert series_log(series_exp(f)) == f
        g = rand_unit_series(rng, rng.randint(1, 8))
        assert series_exp(series_log(g)) == g


def test_series_exp_of_t_has_factorial_coefficients():
    g = series_exp(t_series(5))
    for n in range(6):
        fact = 1
        for k in range(1, n + 1):
            fact *= k
        assert g.coeff(n) == Fraction(1, fact)


def test_Exp_examples():
    assert Exp(t_series(5)) == TSeries(5, [1] * 6)
    assert Exp(TSeries.from_terms(3, {1: q})) == \
        TSeries(3, [1, q, q ** 2, q ** 3])
    # Exp(q^i t^d) = 1/(1 - q^i t^d): i = 2, d = 2 at order 5
    f = Exp(TSeries.from_terms(5, {2: q ** 2}))
    assert f == TSeries.from_terms(5, {0: 1, 2: q ** 2, 4: q ** 4})


def test_Exp_Log_are_mutually_inverse():
    rng = random.Random(31)
    for _ in range(15):
        f = rand_nilpotent_series(rng, rng.randint(1, 7))
        assert Log(Exp(f)) == f
        g = rand_unit_series(rng, rng.randint(1, 7))
        assert Exp(Log(g)) == g
    assert Log(Exp(TSeries.from_terms(4, {1: q, 2: q ** 2 + 1}))) == \
        TSeries.from_terms(4, {1: q, 2: q ** 2 + 1})


def test_Exp_turns_sums_into_products():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_nilpotent_series(rng, 6)
        g = rand_nilpotent_series(rng, 6)
        assert Exp(f + g) == Exp(f) * Exp(g)


def test_pow_scalar():
    assert pow_scalar(TSeries(5, [1, -1]), -1) == TSeries(5, [1] * 6)
    rng = random.Random(3)
    f = rand_unit_series(rng, 6)
    assert pow_scalar(f, 2) == f * f
    g = pow_scalar(TSeries(4, [1, -1]), -(q - 1))
    assert g.coeff(0) == ONE
    assert g.coeff(1) == q - 1
    assert g.coeff(2) == ratio(q * (q - 1), QPoly([2]))


def test_Pow():
    rng = random.Random(59)
    f = rand_unit_series(rng, 6)
    assert Pow(f, 1) == f
    geom = TSeries(5, [1, -1]).inverse()
    assert Pow(geom, q) == TSeries(5, [1, -1 * q]).inverse()
    a = QPoly([rng.randint(-3, 3) for _ in range(3)])
    b = QPoly([rng.randint(-3, 3) for _ in range(3)])
    assert Pow(f, a + b) == Pow(f, a) * Pow(f, b)


def test_irreducible_poly_count_values():
    assert irreducible_poly_count(1) == q - 1
    assert irreducible_poly_count(2) == (q ** 2 - q) * Fraction(1, 2)
    assert irreducible_poly_count(3) == (q ** 3 - q) * Fraction(1, 3)
    # integer counts at prime powers
    assert irreducible_poly_count(2)(3) == 3     # x^2+1, x^2+x+2, x^2+2x+2
    assert irreducible_poly_count(4)(2) == 3


def test_phi_divisor_sum_identity():
    for n in range(1, 13):
        total = ZERO
        for d in divisors(n):
            total = total + irreducible_poly_count(d) * d
        assert total == q ** n - 1


def test_n_phi_n_is_positive_in_s_basis():
    for n in range(1, 13):
        p = irreducible_poly_count(n) * n
        cs = expand_in_s(p)
        assert all(isinstance(c, int) and c >= 0 for c in cs)


def test_pow_product_matches_Pow():
    rng = random.Random(101)
    for _ in range(6):
        f = rand_unit_series(rng, rng.randint(2, 6))
        assert pow_product(f) == Pow(f, 1 - q)
    assert pow_product(TSeries.one(5)) == TSeries.one(5)
    g = pow_product(TSeries(4, [1, -1]))
    assert g.coeff(1) == q - 1
    with pytest.raises(TypeError):
        pow_product(g, 2)                       # the product stops at g.order


def test_q1_specialization_relations():
    # With Log(1 + (q-1)^m sum a_n t^n) = (q-1)^m sum b_n t^n and integer
    # polynomial a_n, the values at q = 1 satisfy Moebius-type relations:
    #   b_n(1) = sum_{d|n} a_{n/d}(1) mu(d) d^(m-1)
    #   a_n(1) = sum_{d|n} b_{n/d}(1) d^(m-1)
    rng = random.Random(17)
    order = 6
    for m in (2, 3):
        a = [None] + [QPoly([rng.randint(-3, 3) for _ in range(3)])
                      for _ in range(order)]
        f = TSeries(order, [ONE] + [(q - 1) ** m * a[n]
                                    for n in range(1, order + 1)])
        logf = Log(f)
        b1 = {}
        for n in range(1, order + 1):
            b1[n] = limit_at_1(logf.coeff(n), (q - 1) ** m)
        for n in range(1, order + 1):
            lhs = b1[n]
            rhs = sum(a[n // d](1) * mobius(d) * d ** (m - 1)
                      for d in divisors(n))
            assert lhs == rhs
            back = sum(b1[n // d] * d ** (m - 1) for d in divisors(n))
            assert a[n](1) == back
