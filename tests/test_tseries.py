"""Truncated power series over exact q-coefficients."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from charvar.qpoly import ExactDivisionError, QPoly, ONE, ZERO, q, ratio
from charvar.tseries import TSeries


def rand_unit_series(rng, order, deg=3):
    """Random series with constant term 1 and small integer QPoly coeffs."""
    cs = [ONE]
    for _ in range(order):
        cs.append(QPoly([rng.randint(-4, 4) for _ in range(deg + 1)]))
    return TSeries(order, cs)


def geometric(order):
    return TSeries(order, [1] * (order + 1))


def test_series_mul_basic():
    one_plus = TSeries(2, [1, 1])
    one_minus = TSeries(2, [1, -1])
    assert one_plus * one_minus == TSeries(2, [1, 0, -1])
    g = geometric(5)
    assert g * TSeries(5, [1, -1]) == TSeries(5, [1])


def test_mul_truncates_to_smaller_order():
    a = TSeries(5, [1, 1, 1, 1, 1, 1])
    b = TSeries(3, [1, 1])
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_inverse_basic():
    assert TSeries(5, [1, -1]).inverse() == geometric(5)
    assert TSeries(4, [1]).inverse() == TSeries(4, [1])
    with pytest.raises(ValueError):
        TSeries(3, [q, 1]).inverse()


def test_inverse_is_two_sided():
    rng = random.Random(41)
    for _ in range(25):
        f = rand_unit_series(rng, rng.randint(1, 7))
        assert f * f.inverse() == TSeries(f.order, [1])
        assert f.inverse() * f == TSeries(f.order, [1])


def test_inverse_of_q_factorial_like_series():
    # c_n = prod_{i<=n} (1 + q + ... + q^(i-1)); the inverse starts
    # 1 - t - q t^2 - (q^3 + 2 q^2) t^3 - ...
    qint = lambda n: QPoly([1] * n)
    cs = [ONE]
    for n in range(1, 4):
        cs.append(cs[-1] * qint(n))
    inv = TSeries(3, cs).inverse()
    assert inv.coeff(1) == -ONE
    assert inv.coeff(2) == -q
    assert inv.coeff(3) == -(q ** 3 + 2 * q ** 2)


def test_adams_t_examples():
    assert TSeries.from_terms(2, {1: q}).adams(2) == \
        TSeries.from_terms(2, {2: q ** 2})
    assert TSeries(6, [1, 1, 1]).adams(3) == \
        TSeries.from_terms(6, {0: 1, 3: 1, 6: 1})
    assert TSeries.from_terms(2, {1: q - 1}).adams(2) == \
        TSeries.from_terms(2, {2: q ** 2 - 1})


def test_adams_t_is_multiplicative():
    rng = random.Random(9)
    for _ in range(20):
        a = rand_unit_series(rng, 6)
        b = rand_unit_series(rng, 6)
        n = rng.randint(1, 3)
        assert (a * b).adams(n) == a.adams(n) * b.adams(n)
        assert a.adams(1) == a


def test_qpower_twist_examples():
    t2 = TSeries.from_terms(3, {2: 1})
    assert t2.qpower_twist(2) == TSeries.from_terms(3, {2: q})
    t1 = TSeries.from_terms(3, {1: 1})
    for m in (1, 2, 5):
        assert t1.qpower_twist(m) == t1


def test_qpower_twist_roundtrip_through_ratio():
    rng = random.Random(13)
    f = rand_unit_series(rng, 5)
    m = 3
    twisted = f.qpower_twist(m)
    # exact division by the twist's q-powers undoes it
    assert TSeries(f.order, [ratio(c, q ** ((m - 1) * comb(d, 2)))
                             for d, c in enumerate(twisted.coeffs)]) == f
    # the opposite twist takes a constant t^2 coefficient to q^-(m-1),
    # which is no polynomial
    with pytest.raises(ExactDivisionError):
        ratio(ONE, q ** (m - 1))


def test_qpower_twist_is_a_shift():
    # the twist shifts coefficient lists; Fractions and zeros keep their values
    f = TSeries(4, [1, Fraction(1, 3), ZERO, QPoly([Fraction(-5, 2), 0, 7]),
                    QPoly([0, 2])])
    for m in (1, 2, 4):
        twisted = f.qpower_twist(m)
        assert twisted.coeffs == tuple(c * q ** ((m - 1) * comb(d, 2))
                                       for d, c in enumerate(f.coeffs))
        assert twisted.coeffs[2].coeffs == ()
        assert [type(c) for c in twisted.coeffs[3].coeffs if c] == \
            [Fraction, int]


def test_coefficients_are_polynomials():
    f = TSeries(2, [1, Fraction(1, 2), q])
    assert all(isinstance(c, QPoly) for c in f.coeffs)
    # a scalar passes QPoly's one coefficient gate, message included
    for bad in (1.5, "q", TSeries(1, [1])):
        message = f"cannot use {bad!r} as a QPoly coefficient"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            TSeries(2, [1, bad])
        with pytest.raises(TypeError, match="QPoly coefficient"):
            TSeries.from_terms(2, {1: bad})
    assert TSeries(2, [Fraction(4, 2), True]) == TSeries(2, [QPoly([2]), 1])
    assert f * 2 == f * QPoly([2]) == TSeries(2, [2, 1, 2 * q])
    with pytest.raises(TypeError):
        f * 0.5


def test_coeff_and_truncate():
    f = TSeries(4, [1, 2, 3])
    assert f.coeff(1) == QPoly([2])
    assert f.coeff(9) == ZERO
    # a power series has no negative powers of t
    g = TSeries.from_terms(3, {0: 1, 3: 5})
    assert g.coeff(-1) == ZERO and g.coeff(-5) == ZERO
    assert f.truncate(2) == TSeries(2, [1, 2, 3])
    assert f.truncate(7) == f


def test_from_terms_drops_terms_past_the_order_and_refuses_negative_ones():
    assert TSeries.from_terms(2, {1: q, 3: 7}) == TSeries(2, [0, q])
    for d in (-1, -4):
        with pytest.raises(ValueError, match=f"no term t\\^{d}$"):
            TSeries.from_terms(3, {0: 1, d: 5})


def test_order_is_one_less_than_the_stored_coefficients():
    f = TSeries(3, [1, q])
    assert f.order == 3 and len(f.coeffs) == 4
    # equal coefficients up to t^2, different orders: different series
    assert TSeries(2, [1, q]) != f and TSeries(2, [1, q]) == f.truncate(2)
    assert hash(TSeries(3, [1, q, 0])) == hash(f)
    with pytest.raises(AttributeError):
        f.order = 4
