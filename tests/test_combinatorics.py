"""Permutation statistics, subgroup counts, census identities."""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import charvar
from charvar import arith, combinatorics, fforacle
from charvar.cli import main
from charvar.arith import IdentityError, SizeGuardError
from charvar.counting import IntegralityError
from charvar.combinatorics import (
    census_series_checks, connected_tuples, connected_weight_poly,
    connected_weight_series, hall_subgroup_counts, inversions, is_connected,
    limit_transform, q_factorial, subgroup_counts, weight_poly,
)
from charvar.fforacle import CensusRow, _group_table, _join, perm_rep_census
from charvar.qpoly import ONE, q
from charvar.tseries import TSeries
from charvar.verify import run_verification


def largest_invariant_prefix(tup, n):
    """Largest k < n with {1..k} invariant under every entry; 0 if none."""
    return max((k for k in range(1, n) if all(max(p[:k]) < k for p in tup)),
               default=0)


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


def length_gen_poly(n):
    """Sum of q^inversions over all of S_n: the reference for q_factorial."""
    return weight_poly(map(inversions, itertools.permutations(range(n))))


def test_length_generating_polynomial_is_q_factorial():
    for n in range(7):
        assert length_gen_poly(n) == q_factorial(n)
    assert q_factorial(3) == (1 + q) * (1 + q + q ** 2)


def test_q_factorial_of_a_negative_integer_raises():
    for n in (-1, -5):
        with pytest.raises(ValueError, match="negative integer"):
            q_factorial(n)
    assert q_factorial(0) == 1


def test_q_factorial_does_not_recurse():
    # 60 frames could not hold one frame per n up to 100
    script = ("import sys; sys.setrecursionlimit(60); "
              "from math import factorial; "
              "from charvar.combinatorics import q_factorial; "
              "f = q_factorial(100); "
              "assert f.degree == 4950 and f.evaluate(1) == factorial(100)")
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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


def test_subgroup_counts_check_their_integrality(monkeypatch, capsys):
    # a logarithm with a non-integral J_2 / 2: the CLI exits 3 on it
    def skewed(g):
        return TSeries(g.order, [0, 1, Fraction(1, 3)])

    monkeypatch.setattr(combinatorics, "series_log", skewed)
    with pytest.raises(IntegralityError,
                       match=r"^subgroup count J_2 came out non-integral$"):
        subgroup_counts(2, 2)
    assert main(["subgroups", "--m", "2", "--nmax", "2"]) == 3
    assert capsys.readouterr().err == ("error: internal identity failure: "
                                       "subgroup count J_2 came out "
                                       "non-integral\n")


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
    assert limit_transform(2, 0) == []
    with pytest.raises(ValueError, match=r"^need nmax >= 0$"):
        limit_transform(2, -1)


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


def _conj(g, s):
    """g . s . g^-1 in one-line notation, conjugated directly."""
    out = [0] * len(g)
    for i, si in enumerate(s):
        out[g[i]] = g[si]
    return tuple(out)


def _compose(a, b):
    return tuple(map(a.__getitem__, b))


def _sn_generators(n):
    """A transposition and an n-cycle, as perm_rep_census takes them."""
    if n == 1:
        return []
    return [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)]


def test_group_table_matches_direct_conjugation():
    for n in range(1, 6):
        one = tuple(range(n))
        group, conj = _group_table(one, _sn_generators(n), _compose,
                                   factorial(n))
        assert group[0] == one and len(group) == factorial(n)
        assert sorted(group) == list(itertools.permutations(range(n)))
        for g, row in zip(group, conj):
            assert [group[i] for i in row] == [_conj(g, s) for s in group]


def test_group_table_needs_a_generating_set():
    with pytest.raises(IdentityError, match=r"^generators reached 2 of 6 "):
        _group_table((0, 1, 2), [(1, 0, 2)], _compose, 6)


def _orbit_of(tup, x):
    """Orbit of x under the group the tuple generates, by a visited set;
    forward closure suffices in a finite group."""
    seen = {x}
    frontier = [x]
    while frontier:
        y = frontier.pop()
        for perm in tup:
            z = perm[y]
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return seen


def _is_transitive(tup, n):
    return len(_orbit_of(tup, 0)) == n


def test_join_labels_each_point_by_the_least_of_its_orbit():
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 4)
        tup = tuple(tuple(rng.sample(range(n), n)) for _ in range(m))
        blocks = tuple(range(n))
        for perm in tup:
            blocks = _join(blocks, perm)
        assert blocks == tuple(min(_orbit_of(tup, x)) for x in range(n)), tup
        assert (not any(blocks)) == _is_transitive(tup, n), tup
        kinds.add((n > 1, _is_transitive(tup, n)))
    assert kinds == {(False, True), (True, False), (True, True)}


def _visited_set_census(n, m):
    """Reference census: sweep all of S_n^m with one visited set and
    conjugate each new tuple by every permutation; |Aut| is n!/|orbit|."""
    perms = list(itertools.permutations(range(n)))
    visited = set()
    orbit_count = transitive_count = 0
    aut_weight = aut_weight_all = Fraction(0)
    for tup in itertools.product(perms, repeat=m):
        if tup in visited:
            continue
        orbit = {tuple(_conj(g, s) for s in tup) for g in perms}
        visited.update(orbit)
        orbit_count += 1
        aut_weight_all += Fraction(len(orbit), len(perms))
        if _is_transitive(tup, n):
            transitive_count += 1
            aut_weight += Fraction(len(orbit), len(perms))
    return CensusRow(n=n, m=m, total=len(perms) ** m, orbit_count=orbit_count,
                     transitive_count=transitive_count, aut_weight=aut_weight,
                     aut_weight_all=aut_weight_all)


def test_census_matches_visited_set_sweep():
    grid = [(n, m) for n in range(1, 5) for m in range(1, 4)]
    for n, m in grid + [(5, 2), (2, 4), (3, 4)]:
        assert perm_rep_census(n, m) == _visited_set_census(n, m), (n, m)


def test_census_rows_beyond_the_reference_sweep():
    # taken from the visited-set sweep, which needs seconds on these two
    assert perm_rep_census(4, 4) == CensusRow(
        n=4, m=4, total=331776, orbit_count=14491, transitive_count=14120,
        aut_weight=Fraction(54335, 4), aut_weight_all=Fraction(13824))
    assert perm_rep_census(5, 3) == CensusRow(
        n=5, m=3, total=1728000, orbit_count=14721, transitive_count=13753,
        aut_weight=Fraction(68641, 5), aut_weight_all=Fraction(14400))
    assert perm_rep_census(6, 2) == CensusRow(
        n=6, m=2, total=518400, orbit_count=901, transitive_count=624,
        aut_weight=Fraction(1149, 2), aut_weight_all=Fraction(720))


def test_census_state_is_linear_in_the_tuple_length():
    # each level keeps only the (orbit labels, stabiliser) counts of its
    # prefixes, so 6000 levels hold one key at a time
    tracemalloc.start()
    try:
        row = perm_rep_census(1, 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (row.orbit_count, row.transitive_count) == (1, 1)
    assert peak < 8 * 2 ** 20, peak


def test_census_checks_its_orbit_count_by_burnside(monkeypatch):
    # every split after the class list loses its last orbit, the top
    # key's too, so 5 of the 11 orbits of S_3 are swept
    real = fforacle._orbits
    calls = []

    def lossy(rows):
        calls.append(len(rows))
        return real(rows) if len(calls) == 1 else real(rows)[:-1]

    monkeypatch.setattr(fforacle, "_orbits", lossy)
    with pytest.raises(IdentityError, match=r"^swept 5 orbits, Burnside: 11$"):
        perm_rep_census(3, 2)
    calls.clear()
    checks = run_verification(2, dmax=1, primes=())
    census = next(c for c in checks if c.name == "permutation census")
    assert (census.passed, census.skipped) == (False, False)
    assert census.detail == "swept 0 orbits, Burnside: 1"


def test_census_checks_its_aut_weights_against_the_group_order(monkeypatch):
    # every orbit counted twice still passes Burnside inside the engine,
    # but its weights 1/|Aut| then sum to 2 * (n!)**(m-1)
    real = fforacle._orbit_levels

    def doubled(*args):
        return Counter({key: 2 * count
                        for key, count in real(*args).items()})

    monkeypatch.setattr(fforacle, "_orbit_levels", doubled)
    with pytest.raises(IdentityError, match=r"^weights 1/\|Aut\| sum to 12, "
                                            r"not to \(n!\)\*\*\(m-1\) = 6$"):
        perm_rep_census(3, 2)


def test_census_exponential_identities():
    # (3, 9) and (4, 8) are 9 levels over a 6**2 table and 8 over a 24**2;
    # (4, 34), (3, 555) and (2, 5000) are the largest m at which verify
    # reaches n = 4, 3 and 2
    for nmax, m in [(4, 2), (3, 9), (4, 8), (4, 34), (3, 555), (2, 5000)]:
        checks = census_series_checks(nmax, m)
        assert checks == {"weighted_exp": True, "plethystic_exp": True,
                          "weights_are_subgroup_counts": True}, (nmax, m)


def test_deep_census_weight_is_the_subgroup_count():
    # 282251 orbits, far past the visited-set sweep
    row = perm_rep_census(3, 8)
    assert row.orbit_count == 282251
    assert row.aut_weight == Fraction(subgroup_counts(8, 3)[2], 3)
    assert row.aut_weight_all == factorial(3) ** 7


def test_census_exponential_identities_need_a_degree():
    # with no degree to compare the three checks would hold vacuously
    for nmax in (0, -3):
        with pytest.raises(ValueError, match=r"^need nmax >= 1$"):
            census_series_checks(nmax, 2)


def test_size_guards():
    with pytest.raises(SizeGuardError):
        perm_rep_census(6, 8)
    # one generator still pays for the (n!)**2 conjugation table
    with pytest.raises(SizeGuardError, match=r"^census of S_7\^1 is too"):
        perm_rep_census(7, 1)
    with pytest.raises(SizeGuardError):
        connected_tuples(8, 3)
    # m levels over a table of one entry, for S_1
    with pytest.raises(SizeGuardError, match=r"^census of S_1\^4000001 "):
        perm_rep_census(1, 4_000_001)
    assert connected_tuples(1, 400_001) == [((0,),) * 400_000]
    with pytest.raises(SizeGuardError, match=r"^S_1\^400001 is too large"):
        connected_tuples(1, 400_002)
    # n! is never built: this one would take seconds
    with pytest.raises(SizeGuardError, match=r"^census of S_1000000\^1 "):
        perm_rep_census(1_000_000, 1)


def test_census_refuses_before_building_the_group(monkeypatch):
    def no_table(*args):
        raise AssertionError("group table built before the size guard")

    monkeypatch.setattr(fforacle, "_group_table", no_table)
    with pytest.raises(SizeGuardError, match=r"^census of S_7\^1 is too"):
        perm_rep_census(7, 1)


class _Admitted(Exception):
    """Raised in place of building the group table, past the guard."""


def _admits(monkeypatch, n, m):
    """Whether the census guard lets (n, m) through, at no cost."""
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(fforacle, "_group_table", admitted)
    try:
        perm_rep_census(n, m)
    except _Admitted:
        return True
    except SizeGuardError:
        return False
    raise AssertionError("the census ran without a group table")


def test_census_guard_bounds_the_levels_times_the_table(monkeypatch):
    # m levels, each of which may read the whole (n!)**2 table:
    # 7 * 720**2 = 3628800
    admitted = [(6, 7), (1, 4_000_000), (2, 1_000_000), (5, 277)]
    refused = [(6, 8), (1, 4_000_001), (2, 1_000_001), (5, 278), (7, 1),
               (1_000_000, 1), (1, 10 ** 100)]
    assert [_admits(monkeypatch, *box) for box in admitted + refused] == [
        True] * len(admitted) + [False] * len(refused)


def test_census_guard_admits_every_box_the_tuple_sweep_guard_did(
        monkeypatch):
    # the guard of the census that swept tuples: (n!)**max(m, 2) <= 4000000,
    # and m <= 4000000 for S_1
    def swept(n, m):
        return factorial(n) ** max(m, 2) <= 4_000_000 and m <= 4_000_000
    boxes = [(1, 4_000_000)] + [(n, m) for n in range(1, 8)
                                for m in range(1, 21) if swept(n, m)]
    assert {n for n, _ in boxes} == {1, 2, 3, 4, 5, 6} and len(boxes) > 40
    assert [box for box in boxes if not _admits(monkeypatch, *box)] == []


def test_census_guard_refuses_what_the_factor_by_factor_guard_did(
        monkeypatch):
    # the guard once multiplied m, 1..n and 1..n in one at a time, stopping
    # past the limit; m * (n!)**2 with n > 10 refused outright is the same
    def factor_by_factor(n, m):
        return arith._exceeds(
            itertools.chain((m,), range(1, n + 1), range(1, n + 1)), 1,
            4_000_000)
    boxes = []
    for n in range(1, 16):
        edge = 4_000_000 // factorial(n) ** 2
        boxes += [(n, m) for m in sorted({1, 2, 3, edge - 1, edge, edge + 1,
                                          10 ** 6, 10 ** 100}) if m >= 1]
    refused = [box for box in boxes if not _admits(monkeypatch, *box)]
    assert refused == [box for box in boxes if factor_by_factor(*box)]
    assert 0 < len(refused) < len(boxes) - 20

    # a large n is refused without building n!
    def small_factorial(k):
        if k > 10:
            raise AssertionError(f"built {k}!")
        return factorial(k)

    monkeypatch.setattr(fforacle, "factorial", small_factorial)
    for n, m in ((10 ** 6, 1), (11, 1), (10 ** 100, 10 ** 100)):
        with pytest.raises(SizeGuardError, match=rf"^census of S_{n}\^{m} "):
            perm_rep_census(n, m)


def test_exceeds_compares_the_power_without_building_it():
    for limit in (1, 2, 342, 343, 100_000):
        for base in range(1, 60):
            for length in range(1, 25):
                want = base ** length > limit or length > limit
                assert arith._exceeds(
                    (base,), length, limit) == want, (base, length, limit)
    assert arith._exceeds(range(1, 9), 1, 40_320) is False  # 8!
    assert arith._exceeds(range(1, 9), 1, 40_319) is True
    assert arith._exceeds(range(1, 10 ** 12), 10 ** 12, 10) is True
    assert arith._exceeds((1,) * 5, 200_000, 200_000) is False
    assert arith._exceeds((1,), 200_001, 200_000) is True
