"""Exact polynomial arithmetic, s-expansions and limits at q = 1."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from charvar import qpoly
from charvar.qpoly import (
    ExactDivisionError, PoleError, QPoly, ONE, ZERO, expand_in_s, limit_at_1,
    poly_str, q, ratio,
)


def rand_poly(rng, deg, frac=False):
    cs = [rng.randint(-9, 9) for _ in range(deg + 1)]
    if frac:
        cs = [Fraction(c, rng.randint(1, 4)) for c in cs]
    return QPoly(cs)


def test_ring_ops_basic():
    assert (q - 1) * (q + 1) == q ** 2 - 1
    p = q ** 3 - q ** 2 - 1
    assert p.evaluate(1) == -1
    assert p(2) == 3
    assert (q ** 2 - 1).divexact(q - 1) == q + 1


def test_divexact_rejects_inexact():
    with pytest.raises(ExactDivisionError):
        (q ** 2 + 1).divexact(q - 1)


def test_divmod_random():
    rng = random.Random(11)
    for _ in range(60):
        a = rand_poly(rng, rng.randint(0, 8))
        b = rand_poly(rng, rng.randint(0, 5))
        if b.is_zero:
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.degree < b.degree or rem.is_zero


def test_zero_and_scalar_conventions():
    assert ZERO.is_zero and ZERO.degree == -1
    assert QPoly([5]) == 5
    assert hash(QPoly([5])) == hash(5)
    assert QPoly([0, 0]) == ZERO
    assert q ** 0 == ONE


def test_evaluate_stays_exact():
    p = QPoly([Fraction(1, 2), 1])
    assert p(Fraction(1, 2)) == 1
    assert isinstance((q ** 2)(3), int)


def test_expand_in_s_examples():
    # q^3 (q-1)^2 = (s+1)^3 s^2 with s = q-1
    p = q ** 3 * (q - 1) ** 2
    assert expand_in_s(p) == [0, 0, 1, 3, 3, 1]
    assert expand_in_s(q - 1) == [0, 1]
    assert expand_in_s(ONE) == [1]
    assert expand_in_s(ZERO) == []


def from_s_coeffs(cs):
    # reassemble sum c_k (q-1)^k by Horner's rule in s = q - 1
    p = ZERO
    for c in reversed(cs):
        p = p * (q - 1) + c
    return p


def test_expand_in_s_roundtrip():
    rng = random.Random(23)
    for _ in range(60):
        p = rand_poly(rng, rng.randint(0, 10), frac=rng.random() < 0.3)
        assert from_s_coeffs(expand_in_s(p)) == p
    rng = random.Random(29)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 12), frac=True)
        cs = expand_in_s(p)
        assert from_s_coeffs(cs) == p
        assert len(cs) == len(p.coeffs)
        # integral values come back as int, as everywhere in QPoly
        assert all(type(c) is int or c.denominator != 1 for c in cs)


def test_adams_examples():
    assert (q - 1).adams(2) == q ** 2 - 1
    assert (q ** 2 + q).adams(3) == q ** 6 + q ** 3
    assert ((q - 1) ** 2).adams(2) == (q ** 2 - 1) ** 2


def test_adams_composes():
    rng = random.Random(5)
    for _ in range(40):
        p = rand_poly(rng, rng.randint(0, 6))
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        assert p.adams(a).adams(b) == p.adams(a * b)


def test_ratio_demotes_to_polynomial():
    assert ratio(q ** 2 - 1, q - 1) == q + 1
    assert isinstance(ratio(q ** 2 - 1, q - 1), QPoly)
    v = q ** 3 * (q - 1) ** 2 / (q - 1) ** 2
    assert v == q ** 3
    assert ratio(ZERO, q - 1) == ZERO
    with pytest.raises(TypeError):
        ratio(q)                                # the denominator is required


def test_limit_at_1():
    assert limit_at_1(q ** 2 - 1, q - 1) == 2
    assert limit_at_1(q ** 3 * (q - 1) ** 2, (q - 1) ** 2) == 1
    with pytest.raises(PoleError):
        limit_at_1(q - 1, (q - 1) ** 2)
    # equal (q-1)-valuations, no common factor
    assert limit_at_1(q + 1, q + 2) == Fraction(2, 3)
    # numerator vanishes to higher order: limit is 0
    assert limit_at_1((q - 1) ** 2 * (q + 1), (q - 1) * (q ** 2 + 1)) == 0
    assert limit_at_1(ZERO, q - 1) == 0
    with pytest.raises(ZeroDivisionError):
        limit_at_1(q, ZERO)


def test_limit_at_1_reads_the_lowest_s_terms():
    # num = s^a u, den = s^b v with s = q - 1 and u(1), v(1) nonzero
    rng = random.Random(61)
    for _ in range(60):
        u, v = (rand_poly(rng, rng.randint(0, 5), frac=rng.random() < 0.3)
                for _ in range(2))
        if u(1) == 0 or v(1) == 0:
            continue
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        num, den = (q - 1) ** a * u, (q - 1) ** b * v
        if a < b:
            with pytest.raises(PoleError):
                limit_at_1(num, den)
        else:
            assert limit_at_1(num, den) == (Fraction(u(1)) / v(1)
                                            if a == b else 0)


def test_division_is_exact_or_raises():
    assert (q ** 2 - 1) / (q + 1) == q - 1
    assert 2 / QPoly([4]) == QPoly([Fraction(1, 2)])
    for num, den in ((ONE, q - 1), (q ** 2 + 1, q - 1)):
        with pytest.raises(ExactDivisionError):
            ratio(num, den)
        with pytest.raises(ExactDivisionError):
            num / den
    with pytest.raises(ExactDivisionError):
        1 / (q - 1)
    with pytest.raises(ZeroDivisionError):
        q / ZERO


def test_dot_matches_the_pairwise_sum():
    rng = random.Random(67)
    t = qpoly._KRONECKER_MIN_TERMS
    assert qpoly._dot([]) == ZERO
    assert qpoly._dot([(ZERO, q), (q, ZERO)]) == ZERO
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(1, 6)):
            pair = [rand_poly(rng, rng.choice((0, 2, t + 3)),
                              frac=rng.random() < 0.2) for _ in range(2)]
            if rng.random() < 0.2:
                pair[rng.randrange(2)] = ZERO
            pairs.append(tuple(pair))
        expected = ZERO
        for a, b in pairs:
            expected = expected + a * b
        got = qpoly._dot(iter(pairs))
        assert got == expected and got.coeffs == expected.coeffs


def test_limit_at_1_on_polynomials():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng, rng.randint(0, 8))
        assert limit_at_1(p) == p(1)


def test_poly_str():
    assert poly_str(q ** 2 - 2 * q + 1) == "q^2 - 2*q + 1"
    assert poly_str(ZERO) == "0"
    assert poly_str(QPoly([0, Fraction(3, 2)])) == "3/2*q"
    assert poly_str(-q) == "-q"


def reference_product(a, b):
    # the coefficient convolution written out, independent of QPoly
    return [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
            for k in range(len(a) + len(b) - 1)]


def rand_int_coeffs(rng, n, bits):
    cs = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    if n > 6 and rng.random() < 0.5:            # a run of interior zeros
        start = rng.randrange(1, n - 3)
        stop = rng.randrange(start + 2, n)
        cs[start:stop] = [0] * (stop - start)
    cs[-1] = cs[-1] or 1
    return cs


def assert_product(a, b):
    # QPoly.__mul__ on int coefficient lists against the written-out sum
    expected = tuple(reference_product(a, b))
    got = (QPoly(a) * QPoly(b)).coeffs
    assert got == expected
    assert all(type(c) is int for c in got)


def test_kronecker_matches_schoolbook():
    rng = random.Random(2024)
    t = qpoly._KRONECKER_MIN_TERMS
    lengths = [1, 2, t - 1, t, t + 1, 3 * t, 97]
    for bits in (1, 7, 31, 64, 101, 130):
        for _ in range(12):
            a = rand_int_coeffs(rng, rng.choice(lengths), bits)
            b = rand_int_coeffs(rng, rng.choice(lengths), bits)
            assert qpoly._schoolbook_mul(a, b) == reference_product(a, b)
            assert_product(a, b)
            assert_product(b, a)


def test_kronecker_extreme_slots():
    # all-negative and all-maximal factors put every product slot at the
    # edge of the signed range
    big = (1 << 100) + 3
    for n in (16, 17, 40):
        a, b = [-big] * n, [big] * (n + 5)
        assert_product(a, b)
        assert_product(a, a)
        assert_product([-1] * n, [-1] * n)
        assert_product([-(1 << 7)] * n, [1 << 7] * n)
    assert_product([1], [-1])
    assert_product([0, 0, 5], [0, -3])
    # leading zeros in long factors become a shift of the packed product
    t = qpoly._KRONECKER_MIN_TERMS
    assert_product([0] * 3 + [-big] * t, [0] * 5 + [big] * t)


def test_product_path_selection(monkeypatch):
    calls = []
    dot = qpoly._dot

    def spy(pairs):
        pairs = list(pairs)
        calls.append([(len(a.coeffs), len(b.coeffs)) for a, b in pairs])
        return dot(pairs)

    monkeypatch.setattr(qpoly, "_dot", spy)
    t = qpoly._KRONECKER_MIN_TERMS
    long_ = QPoly(range(1, t + 3))
    QPoly(range(1, t)) * long_                 # shorter factor below the threshold
    q * long_
    assert calls == []
    assert QPoly(range(1, t + 1)) * long_ == QPoly(
        reference_product(range(1, t + 1), range(1, t + 3)))
    assert calls == [[(t, t + 2)]]
    # one Fraction coefficient sends the product to the schoolbook loop,
    # which normalises integral results back to int
    half = QPoly([Fraction(1, 2)] + list(range(1, t + 3)))
    two = QPoly([2] * (t + 3))
    product = half * two
    assert len(calls) == 1
    assert list(product.coeffs) == reference_product(half.coeffs, two.coeffs)
    assert all(type(c) is int for c in product.coeffs)


def reference_dot(pairs):
    # sum of reference_product over the pairs, on bare coefficient lists
    out = []
    for a, b in pairs:
        if a.coeffs and b.coeffs:
            cs = reference_product(a.coeffs, b.coeffs)
            out.extend([0] * (len(cs) - len(out)))
            for k, c in enumerate(cs):
                out[k] += c
    return QPoly(out)


def assert_dot(pairs):
    got, expected = qpoly._dot(iter(pairs)), reference_dot(pairs)
    assert got.coeffs == expected.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]
    return got


def test_packed_dot_matches_reference_on_random_pairs():
    rng = random.Random(707)
    lengths = (1, 2, 5, 15, 16, 17, 40, 120, 231)
    for _ in range(30):
        bits = rng.choice((1, 5, 30, 63, 64, 90))
        pairs = []
        for _ in range(rng.randint(1, 20)):
            pair = [QPoly([0] * rng.choice((0, 0, 3, 50))
                          + rand_int_coeffs(rng, rng.choice(lengths), bits))
                    for _ in range(2)]
            if rng.random() < 0.1:
                pair[rng.randrange(2)] = ZERO
            pairs.append(tuple(pair))
        assert_dot(pairs)


def test_packed_dot_at_slot_width_boundaries():
    # bounds of 2^(8w-1) - 1 and 2^(8w-1), met by a coefficient of the sum,
    # sit on both sides of the step from w-byte to (w+1)-byte slots
    for w in (1, 2, 3, 8, 9):
        edge = 1 << (8 * w - 1)
        for target in (edge - 1, edge, edge + 1):
            for sign in (1, -1):
                n, x, y = 4, 3, (target // 24) or 1
                rest = target - n * x * y
                pairs = [(QPoly([sign * x] * n), QPoly([y] * n)),
                         (QPoly([sign * rest]), q ** (n - 1))]
                got = assert_dot(pairs)
                assert got.coeffs[n - 1] == sign * target
                assert_dot([(QPoly([sign * target]), ONE)])
                assert_dot([(QPoly([sign * target] * 3), QPoly([-1] * 3))])


def test_packed_dot_repacks_for_a_new_width():
    # a QPoly packed for narrow slots, then wide ones, then narrow again;
    # a packing reused across widths reads garbage
    rng = random.Random(31)
    shared = QPoly(rand_int_coeffs(rng, 30, 3))
    small = QPoly(rand_int_coeffs(rng, 20, 2))
    huge = QPoly(rand_int_coeffs(rng, 20, 200))
    for partner in (small, huge, small, huge, huge):
        assert_dot([(shared, partner)])
        assert_dot([(partner, shared), (shared, small)])


def test_dot_with_a_fraction_operand():
    rng = random.Random(5)
    ints = [QPoly(rand_int_coeffs(rng, rng.choice((1, 20, 60)), 40))
            for _ in range(6)]
    frac = QPoly([Fraction(1, 3), 0, Fraction(2, 3), 5])
    got = assert_dot([(ints[0], ints[1]), (frac, ints[2]), (ints[3], ints[4])])
    assert any(type(c) is Fraction for c in got.coeffs)
    # Fractions that sum to integers come out as ints
    got = assert_dot([(QPoly([Fraction(1, 2)]), QPoly([1, 1])),
                      (QPoly([Fraction(1, 2)]), QPoly([1, 1]))])
    assert got.coeffs == (1, 1) and all(type(c) is int for c in got.coeffs)


def test_dot_of_zero_and_empty_input():
    for pairs in ([], [(ZERO, ZERO)], [(ZERO, q), (q ** 40, ZERO)],
                  [(q, q), (-q, q)], [(q - 1, q + 1), (ONE, 1 - q ** 2)]):
        got = qpoly._dot(iter(pairs))
        assert got == ZERO and got.coeffs == ()


def test_packing_leaves_equality_and_hash_alone():
    rng = random.Random(12)
    polys = [QPoly(rand_int_coeffs(rng, n, 70)) for n in (1, 3, 40)]
    polys.append(QPoly([0] * 9 + [2, -1]))
    before = [(p.coeffs, hash(p)) for p in polys]
    for p in polys:
        qpoly._dot([(p, p), (p, q)])
    for p, (coeffs, h) in zip(polys, before):
        twin = QPoly(coeffs)
        assert p.coeffs == coeffs and hash(p) == h == hash(twin)
        assert p == twin and twin == p and {p: 1}[twin] == 1
    assert hash(polys[0]) == hash(polys[0].constant)
    with pytest.raises(AttributeError):
        polys[0].coeffs = ()


def test_division_by_powers_of_q_minus_1():
    rng = random.Random(99)
    for _ in range(30):
        k = rng.randint(0, 6)
        base = rand_poly(rng, rng.randint(0, 12), frac=rng.random() < 0.3)
        power = (q - 1) ** k
        multiple = base * power
        got = qpoly._div_by_s_power(multiple, k)
        assert got.coeffs == multiple.divexact(power).coeffs == base.coeffs
    assert qpoly._div_by_s_power(ZERO, 3) == ZERO
    for p, k in ((q ** 2 + 1, 1), (q ** 2 + 1, 3), ((q - 1) * (q + 2), 2),
                 (ONE, 1)):
        with pytest.raises(ExactDivisionError):
            qpoly._div_by_s_power(p, k)


def test_canonical_form_survives_fast_paths():
    stored = QPoly([Fraction(4, 2)]).coeffs
    assert stored == (2,) and type(stored[0]) is int
    assert hash(QPoly((3,))) == hash(3)
    rng = random.Random(8)
    t = qpoly._KRONECKER_MIN_TERMS
    for _ in range(40):
        a = QPoly(rand_int_coeffs(rng, rng.randint(1, 2 * t), 40))
        b = QPoly(rand_int_coeffs(rng, rng.randint(1, 2 * t), 40))
        for value in (a * b, a + b, a - b, a - a, -a, a * 3, a.adams(3),
                      a + QPoly([1] + [-c for c in a.coeffs[1:]])):
            assert not value.coeffs or value.coeffs[-1] != 0
    # sums and scalar products of Fractions that come out integral are ints
    halves = QPoly([Fraction(1, 2)] * (t + 1))
    for value in (halves + halves, halves * 2, halves * QPoly([2] * t)):
        assert value.coeffs and all(type(c) is int for c in value.coeffs)
    assert (q ** 20 + 1) + (-(q ** 20)) == ONE
    assert (q ** 20 + Fraction(1, 2)) - (q ** 20 + Fraction(1, 2)) == ZERO


def test_bool_coefficients_keep_value_semantics():
    p = QPoly([True, False, True])
    assert p == QPoly([1, 0, 1]) and hash(p) == hash(QPoly([1, 0, 1]))
    assert p * p == QPoly([1, 0, 2, 0, 1])
    assert p + p == QPoly([2, 0, 2])
    assert QPoly([True, False]).coeffs == (True,)
    assert [type(c) for c in p.coeffs] == [int, int, int]
    assert str(QPoly([True])) == "1"


def test_inexact_coefficients_are_refused():
    for bad in (0.1, 1.0, "1/2", "3", Decimal("0.5"), None, 1j):
        with pytest.raises(TypeError, match="QPoly coefficient"):
            QPoly([1, bad])
    assert QPoly([Fraction(6, 3), 1]).coeffs == (2, 1)


def test_shift_multiplies_by_a_power_of_q():
    p = QPoly([3, 0, -2])
    assert p.shift(0) is p
    assert ZERO.shift(5) is ZERO
    for k in (1, 2, 7):
        got = p.shift(k)
        assert got == p * q ** k
        assert got.coeffs == (0,) * k + (3, 0, -2)
        assert all(type(c) is int for c in got.coeffs)
    half = QPoly([Fraction(1, 2), 1])
    assert half.shift(2).coeffs == (0, 0, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        p.shift(-1)


def test_poly_str_variable_name():
    p = q ** 2 - 2 * q + 1
    assert poly_str(p, "x") == "x^2 - 2*x + 1"
    assert poly_str(-q, var="t") == "-t"
    assert poly_str(ZERO, "x") == "0"
