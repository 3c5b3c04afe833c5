"""Number-theoretic helpers and partition generation."""

import pytest

from charvar.arith import (
    divisors, factorize, is_prime, mobius, partitions, totient,
)


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_mobius():
    assert [mobius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_totient():
    assert [totient(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    # multiplicativity on coprime arguments
    assert totient(35) == totient(5) * totient(7)


def test_mobius_divisor_sum():
    # sum_{d|n} mu(d) = [n == 1]
    for n in range(1, 40):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_partition_counts():
    for n, pn in [(0, 1), (1, 1), (4, 5), (6, 11), (10, 42)]:
        assert len(partitions(n)) == pn


def test_partition_order_and_validity():
    ps = partitions(4)
    assert ps == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for n in range(8):
        seen = set()
        for lam in partitions(n):
            assert sum(lam) == n
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert lam not in seen
            seen.add(lam)
        # reverse-lexicographic ordering
        assert list(partitions(n)) == sorted(partitions(n), reverse=True)
