"""The aggregated consistency suite."""

import pytest

from charvar.verify import (CheckResult, all_passed, rank_two_closed_forms,
                            run_verification)
from charvar.qpoly import q


def test_suite_passes_for_two_generators():
    checks = run_verification(2, dmax=3)
    assert all_passed(checks)
    assert not any("skipped" in c.detail for c in checks)
    names = {c.name for c in checks}
    assert {"rank-1 counts", "permutation census",
            "finite field oracle p=2"} <= names


def test_suite_passes_for_three_generators():
    checks = run_verification(3, dmax=2, primes=(2, 101))
    assert all_passed(checks)
    # |GL_1(F_101)|^3 = 10^6 tuples: the size guard refuses d = 1 already,
    # so that oracle compared nothing and must say so
    (item,) = [c for c in checks if c.name == "finite field oracle p=101"]
    assert item.detail.startswith("skipped: size guard")


def test_single_generator_skips_quotient_items():
    checks = run_verification(1, dmax=2)
    assert all_passed(checks)
    skipped = {c.name for c in checks if c.detail.startswith("skipped")}
    assert "Euler characteristics" in skipped
    assert "quotient E-polynomials" in skipped


def test_closed_forms_are_polynomials():
    forms = rank_two_closed_forms(3)
    assert forms["full2"] == forms["pgl2"] * (q - 1) ** 3
    assert forms["rank1"] == (q - 1) ** 3


def test_invalid_arguments():
    with pytest.raises(ValueError):
        run_verification(0)
    with pytest.raises(ValueError):
        run_verification(2, dmax=0)


def test_check_result_shape():
    item = CheckResult("thing", True, "fine")
    assert item.passed and item.name == "thing"
