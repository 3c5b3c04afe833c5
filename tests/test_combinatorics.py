"""Permutation statistics, subgroup counts, census identities."""

from fractions import Fraction
from math import factorial

import pytest

from charvar.combinatorics import (
    CensusRow, SizeGuardError, _invariant_prefixes, census_series_checks,
    connected_tuples, connected_weight_poly, connected_weight_series,
    hall_subgroup_counts, inversions, is_connected, length_gen_poly,
    limit_transform, perm_rep_census, q_factorial, q_int, subgroup_counts,
)
from charvar.qpoly import ONE, q


def largest_invariant_prefix(tup, n):
    """Largest k < n with {1..k} invariant under every entry; 0 if none."""
    ks = _invariant_prefixes(tup, n)
    return ks[-1] if ks else 0


def block_decompose(tup, n):
    """(k, head, tail): split at the largest invariant initial segment.

    head is the restriction to {1..k}, tail the relabeled restriction to
    the complement, which is connected in S_(n-k)^(m-1).
    """
    k = largest_invariant_prefix(tup, n)
    head = tuple(p[:k] for p in tup)
    tail = tuple(tuple(p[i] - k for i in range(k, n)) for p in tup)
    return k, head, tail


def compose_blocks(head, tail):
    """Inverse of block_decompose."""
    k = len(head[0]) if head else 0
    return tuple(hp + tuple(x + k for x in tp) for hp, tp in zip(head, tail))


def test_inversions():
    assert inversions((0, 1, 2)) == 0
    assert inversions((2, 1, 0)) == 3
    assert inversions((1, 2, 0)) == 2
    assert inversions(()) == 0


def test_length_generating_polynomial_is_q_factorial():
    for n in range(7):
        assert length_gen_poly(n) == q_factorial(n)
    assert q_factorial(3) == (1 + q) * (1 + q + q ** 2)
    assert q_int(4) == 1 + q + q ** 2 + q ** 3


def test_connected_tuples_small():
    assert connected_tuples(1, 2) == [((0,),)]
    two = connected_tuples(2, 2)
    assert two == [((1, 0),)]
    assert connected_weight_poly(2, 2) == q
    three = connected_tuples(3, 2)
    assert sorted(t[0] for t in three) == [(1, 2, 0), (2, 0, 1), (2, 1, 0)]
    assert connected_weight_poly(3, 2) == q ** 3 + 2 * q ** 2
    assert connected_weight_poly(1, 3) == ONE


def test_connectivity_predicate():
    assert is_connected(((1, 0, 2),), 3) is False      # fixes {1,2} prefix
    assert is_connected(((0, 2, 1), (1, 0, 2)), 3) is True
    assert largest_invariant_prefix(((1, 0, 2),), 3) == 2
    assert largest_invariant_prefix(((2, 1, 0),), 3) == 0


def test_two_computations_of_connected_weights_agree():
    for m, nmax in ((2, 5), (3, 4)):
        series = connected_weight_series(m, nmax)
        for n in range(1, nmax + 1):
            enum = connected_weight_poly(n, m)
            assert series.coeff(n) == enum
            # positivity: honest q-weighted count
            assert all(isinstance(c, int) and c >= 0 for c in enum.coeffs)


def test_block_decomposition_is_a_bijection():
    import itertools
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        count_by_split = 0
        seen = set()
        for tup in itertools.product(perms, repeat=1):   # m = 2
            k, head, tail = block_decompose(tup, n)
            assert k < n
            assert is_connected(tail, n - k)
            rebuilt = compose_blocks(head, tail)
            assert rebuilt == tup
            seen.add((k, head, tail))
            count_by_split += 1
        assert len(seen) == count_by_split == factorial(n)


def test_subgroup_counts_free_group():
    assert subgroup_counts(2, 5) == [1, 3, 13, 71, 461]
    assert subgroup_counts(1, 6) == [1] * 6
    assert subgroup_counts(3, 2) == [1, 7]


def test_subgroup_counts_match_hall_recursion():
    for m in (1, 2, 3):
        assert subgroup_counts(m, 8) == hall_subgroup_counts(m, 8)
    assert hall_subgroup_counts(2, 4)[3] == 4 * 24 - (6 * 1 + 2 * 3 + 1 * 13)
    assert hall_subgroup_counts(2, 0) == subgroup_counts(2, 0) == []


def test_subgroup_count_arguments_are_checked_by_both_routes():
    for count in (subgroup_counts, hall_subgroup_counts):
        with pytest.raises(ValueError, match=r"^m >= 1 required$"):
            count(0, 3)
        with pytest.raises(ValueError, match=r"^need nmax >= 0$"):
            count(2, -1)


def test_limit_transform_recovers_subgroup_counts():
    for m in (2, 3):
        j = subgroup_counts(m, 5)
        vals = limit_transform(m, 5)
        assert vals == [Fraction(j[n - 1], n) for n in range(1, 6)]
    assert limit_transform(2, 2) == [Fraction(1), Fraction(3, 2)]


def test_census_degree_2():
    row = perm_rep_census(2, 2)
    assert row == CensusRow(n=2, m=2, total=4, orbit_count=4,
                            transitive_count=3, aut_weight=Fraction(3, 2),
                            aut_weight_all=Fraction(2))


def test_census_degree_1_and_3():
    row1 = perm_rep_census(1, 2)
    assert row1.orbit_count == row1.transitive_count == 1
    assert row1.aut_weight == 1
    row3 = perm_rep_census(3, 2)
    assert row3.aut_weight == Fraction(13, 3)
    # weighted over every orbit the count collapses to n!^(m-1)
    assert row3.aut_weight_all == factorial(3)


def test_census_exponential_identities():
    checks = census_series_checks(4, 2)
    assert checks == {"weighted_exp": True, "plethystic_exp": True,
                      "weights_are_subgroup_counts": True}


def test_size_guards():
    with pytest.raises(SizeGuardError):
        perm_rep_census(6, 3)
    with pytest.raises(SizeGuardError):
        connected_tuples(8, 3)
