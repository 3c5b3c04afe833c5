"""The aggregated consistency suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import charvar

from charvar import fforacle, verify
from charvar.cli import main
from charvar.arith import IdentityError, SizeGuardError
from charvar.verify import (CheckResult, all_passed, rank_two_closed_forms,
                            run_verification)
from charvar.qpoly import q
from charvar.tseries import TSeries


def test_suite_passes_for_two_generators():
    checks = run_verification(2, dmax=3)
    assert all_passed(checks)
    assert not any("skipped" in c.detail for c in checks)
    names = {c.name for c in checks}
    assert {"rank-1 counts", "permutation census",
            "finite field oracle p=2"} <= names


def test_suite_passes_for_three_generators():
    checks = run_verification(3, dmax=2, primes=(2, 367))
    assert all_passed(checks)
    # 3 levels over the 366**2 table of GL_1(F_367) make 401868: the size
    # guard refuses d = 1 already, so that oracle compared nothing and
    # must say so
    (item,) = [c for c in checks if c.name == "finite field oracle p=367"]
    assert item.detail.startswith("skipped: size guard")
    assert item.skipped and not item.passed
    assert [c.name for c in checks if c.skipped] == [item.name]


def test_single_generator_skips_quotient_items():
    checks = run_verification(1, dmax=2)
    assert all_passed(checks)
    skipped = {c.name for c in checks if c.detail.startswith("skipped")}
    assert "Euler characteristics" in skipped
    assert "quotient E-polynomials" in skipped
    assert skipped == {c.name for c in checks if c.skipped}
    assert not any(c.passed for c in checks if c.skipped)


def test_run_maps_guards_and_skip_details_to_skip():
    def guarded(m, dmax):
        raise SizeGuardError("too large")

    def broken(m, dmax):
        raise IdentityError("identity violated")

    assert verify._run("g", guarded, 2, 2) == CheckResult(
        "g", False, "skipped: too large", skipped=True)
    assert verify._run("s", lambda m, dmax: "skipped: needs m >= 2", 2, 2) \
        == CheckResult("s", False, "skipped: needs m >= 2", skipped=True)
    assert verify._run("b", broken, 2, 2) == CheckResult(
        "b", False, "identity violated")
    ok = verify._run("o", lambda m, dmax: "fine", 2, 2)
    assert ok == CheckResult("o", True, "fine")
    assert all_passed([ok, verify._run("g", guarded, 2, 2)])
    assert not all_passed([ok, verify._run("b", broken, 2, 2)])


def test_closed_forms_are_polynomials():
    forms = rank_two_closed_forms(3)
    assert forms["full2"] == forms["pgl2"] * (q - 1) ** 3
    assert forms["rank1"] == (q - 1) ** 3


def test_invalid_arguments():
    with pytest.raises(ValueError):
        run_verification(0)
    with pytest.raises(ValueError):
        run_verification(2, dmax=0)


def test_primes_are_checked_before_any_item(monkeypatch, capsys):
    def never(m, dmax):
        raise AssertionError("an item ran before the primes were checked")

    monkeypatch.setattr(verify, "_check_rank_one", never)
    for primes in [(2, 4), (1,), (0,), (-3,)]:
        with pytest.raises(ValueError, match=f"p = {primes[-1]} is not prime"):
            run_verification(3, primes=primes)
    assert main(["verify", "--m", "3", "--primes", "4"]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: p = 4 is not prime\n")


def test_check_result_shape():
    item = CheckResult("thing", True, "fine")
    assert item.passed and item.name == "thing"


def _optimized_runs(row):
    """run_verification(2, 2, ()) and its CLI under python -O, with A_2
    replaced by the expression row of its value c.

    python -O strips assert statements, not the checks.  The library run
    prints the names of the items that did not pass.
    """
    patch = ("import sys; from charvar import verify; "
             "from charvar.qpoly import q; "
             "real = verify.rep_counts; "
             "verify.rep_counts = lambda m, dmax: "
             f"[{row} if d == 2 else c for d, c in enumerate(real(m, dmax))]; ")
    library = patch + (
        "checks = verify.run_verification(2, 2, ()); "
        "print([c.name for c in checks if not c.passed])")
    command = patch + (
        "from charvar.cli import main; "
        "sys.exit(main(['verify', '--m', '2', '--dmax', '2', '--primes=']))")
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return [subprocess.run([sys.executable, "-O", "-c", script],
                           env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, text=True, timeout=60)
            for script in (library, command)]


def test_wrong_count_fails_under_optimize():
    # A_2 one too large
    runs = _optimized_runs("c + 1")
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == (
        "['rank-2 closed forms', 'semisimple decomposition']\n")
    assert runs[1].returncode == 3, runs[1].stderr
    assert "[FAIL] rank-2 closed forms: identity violated" in runs[1].stdout


def test_negative_s_coefficient_fails_under_optimize():
    # A_2 is divisible by (q-1)^2; less (q-1), its s^1 coefficient is -1
    runs = _optimized_runs("c - (q - 1)")
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == ("['rank-2 closed forms', "
                              "'semisimple decomposition', 's-positivity']\n")
    assert runs[1].returncode == 3, runs[1].stderr
    assert "[FAIL] s-positivity: A_2 is not in N[q-1]\n" in runs[1].stdout


@pytest.mark.parametrize("name", ["rep_series", "orbit_series"])
def test_exp_structure_fails_on_a_perturbed_series(monkeypatch, name):
    # the item compares the Exp-built pipeline with the Pow route from the
    # definitions; one coefficient off by one must make it fail
    real = getattr(verify, name)

    def perturbed(m, order):
        coeffs = real(m, order).coeffs
        return TSeries(order, [c + 1 if d == 2 else c
                               for d, c in enumerate(coeffs)])

    monkeypatch.setattr(verify, name, perturbed)
    checks = run_verification(2, dmax=3, primes=())
    (item,) = [c for c in checks if c.name == "exponential structure"]
    assert not item.passed and not item.skipped
    assert item.detail == "identity violated"


def _plus_one_each(real):
    return lambda *args: [c + 1 for c in real(*args)]


# (item, callee in charvar.verify, the callee's perturbed replacement)
FAULTS = [
    ("rank-1 counts", "rep_counts", _plus_one_each),
    ("plethystic roundtrip", "Exp", lambda real: lambda f: real(f) * 2),
    ("power product formula", "pow_product",
     lambda real: lambda f: real(f) * 2),
    ("connected tuple inversion", "connected_weight_poly",
     lambda real: lambda n, m: real(n, m) + 1),
    ("subgroup count routes", "hall_subgroup_counts", _plus_one_each),
    ("subgroup count limits", "limit_transform", _plus_one_each),
    ("permutation census", "census_series_checks",
     lambda real: lambda n, m: {**real(n, m), "plethystic_exp": False}),
    ("Euler characteristics", "euler_characteristics",
     lambda real: lambda m, d: tuple(chi + 1 for chi in real(m, d))),
    ("finite field oracle p=2", "orbit_census",
     lambda real: lambda d, p, m: (c := real(d, p, m))._replace(
         abs_ind=c.abs_ind + 1)),
    ("finite field oracle p=3", "orbit_census",
     lambda real: lambda d, p, m: (c := real(d, p, m))._replace(
         abs_ind=c.abs_ind + (p == 3))),
]


@pytest.mark.parametrize("name, callee, perturb", FAULTS,
                         ids=[fault[0] for fault in FAULTS])
def test_each_item_fails_on_a_perturbed_callee(capsys, monkeypatch, name,
                                               callee, perturb):
    monkeypatch.setattr(verify, callee, perturb(getattr(verify, callee)))
    checks = run_verification(2, dmax=2, primes=(2, 3))
    (item,) = [c for c in checks if c.name == name]
    assert item.passed is False and item.skipped is False
    assert main(["verify", "--m", "2", "--dmax", "2", "--primes", "2,3"]) == 3
    assert f"[FAIL] {name}: " in capsys.readouterr().out


def _mat_mul_without_last_term(a, b, d, p):
    """fforacle.mat_mul less the k = d - 1 term of every entry's sum."""
    fmt = fforacle._format(d, p)
    return fforacle._norm(sum(
        ((a >> col) & fmt.col_mask) * ((b >> row) & fmt.row_mask)
        for row, col in zip(fmt.rows[:-1], fmt.cols[:-1])), fmt)


def test_oracle_items_fail_on_a_kernel_that_drops_a_term(capsys,
                                                         monkeypatch):
    # at d = 1 the product is 0: GL_1(F_3) closes on {1, 0}, whose
    # generator never returns to one, and at d = 2 the pass over GL_2(F_2)
    # finds no group of order 6
    monkeypatch.setattr(fforacle, "mat_mul", _mat_mul_without_last_term)
    checks = run_verification(2, dmax=2, primes=(2, 3))
    oracle = [c for c in checks if c.name.startswith("finite field oracle")]
    assert [(c.name, c.passed, c.skipped) for c in oracle] == [
        ("finite field oracle p=2", False, False),
        ("finite field oracle p=3", False, False)]
    assert main(["verify", "--m", "2", "--dmax", "2", "--primes", "2,3"]) == 3
    out = capsys.readouterr().out
    assert "[FAIL] finite field oracle p=2: " in out
    assert "[FAIL] finite field oracle p=3: " in out
