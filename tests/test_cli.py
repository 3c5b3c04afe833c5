"""Command line interface: formats, exit codes, golden values."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import charvar
from charvar import cli, counting
from charvar.cli import build_parser, cmd_polys, main
from charvar.combinatorics import (connected_tuples, hall_subgroup_counts,
                                   inversions, weight_poly)
from charvar.counting import build_table
from charvar.qpoly import ExactDivisionError, PoleError

ROOT = Path(__file__).resolve().parents[1]

# exit codes under test: 0 ok, 2 usage, 3 identity failure, 4 size guard


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_polys_json_schema_and_values(capsys):
    code, out, err = run(capsys, "polys", "--m", "2", "--dmax", "2",
                         "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["m"] == 2
    assert [row["d"] for row in doc["rows"]] == [1, 2]
    row = doc["rows"][1]
    assert set(row) == {"d", "A", "A_irr", "A_ind", "M", "chi_pgl",
                        "chi_pgl_irr", "s_coeffs_A", "positive"}
    assert row["A"] == ["0", "0", "0", "1", "-2", "1"]
    assert row["A_irr"] == ["-1", "2", "-2", "3", "-3", "1"]
    assert row["chi_pgl"] == "1"
    assert row["chi_pgl_irr"] == "-1"
    assert row["s_coeffs_A"] == ["0", "0", "1", "3", "3", "1"]
    assert row["positive"] is True
    # round trip: parsing and re-serializing is the identity
    assert json.dumps(doc, indent=2) + "\n" == out


def test_polys_text_and_csv(capsys):
    code, out, _ = run(capsys, "polys", "--m", "2", "--dmax", "2")
    assert code == 0
    assert "q^5 - 2*q^4 + q^3" in out
    assert "positive = True" in out
    code, out, _ = run(capsys, "polys", "--m", "2", "--dmax", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("m,d,A,A_irr,A_ind,M,chi_pgl,chi_pgl_irr,"
                        "s_coeffs_A,positive")
    assert lines[2].startswith("2,2,0;0;0;1;-2;1,")
    assert lines[2].endswith("true")


POLYS_M2_D3_TEXT = """\
counting polynomials for m = 2, d <= 3

d = 1
  A     = q^2 - 2*q + 1
  A_irr = q^2 - 2*q + 1
  A_ind = q^2 - 2*q + 1
  M     = q^2 - 2*q + 1
  E(PGL)        = 1
  chi(PGL)      = 1
  chi(PGL irr)  = 1
  A in powers of (q-1): [0, 0, 1]  positive = True

d = 2
  A     = q^5 - 2*q^4 + q^3
  A_irr = q^5 - 3*q^4 + 3*q^3 - 2*q^2 + 2*q - 1
  A_ind = q^5 - 2*q^4 + 2*q^2 - q
  M     = q^5 - q^4 - 2*q^3 + 4*q^2 - 3*q + 1
  E(PGL)        = u^3*v^3
  chi(PGL)      = 1
  chi(PGL irr)  = -1
  A in powers of (q-1): [0, 0, 1, 3, 3, 1]  positive = True

d = 3
  A     = q^10 - 2*q^9 - 2*q^8 + 9*q^7 - 10*q^6 + 6*q^5 - 3*q^4 + 2*q^3 \
- 2*q^2 + q
  A_irr = q^10 - 2*q^9 - 2*q^8 + 8*q^7 - 6*q^6 - 2*q^5 + 6*q^4 - 5*q^3 \
+ 3*q^2 - q
  A_ind = q^10 - 2*q^9 + q^7 + q^6 - q^4 - 2*q^3 + 3*q^2 - q
  M     = q^10 - 2*q^9 + 2*q^7 - 2*q^6 + 3*q^5 + q^4 - 9*q^3 + 9*q^2 \
- 4*q + 1
  E(PGL)        = u^8*v^8 - 3*u^6*v^6 + 3*u^5*v^5 - u^4*v^4 + u^3*v^3 + u*v
  chi(PGL)      = 2
  chi(PGL irr)  = -1
  A in powers of (q-1): [0, 0, 2, 5, 10, 23, 39, 41, 25, 8, 1]  \
positive = True
"""


def test_polys_text_bytes_pinned(capsys):
    # every line of the text table, the u,v rendering of E(PGL) included
    code, out, err = run(capsys, "polys", "--m", "2", "--dmax", "3")
    assert code == 0 and err == ""
    assert out == POLYS_M2_D3_TEXT


def test_polys_m_one_has_null_chi(capsys):
    code, out, _ = run(capsys, "polys", "--m", "1", "--dmax", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["chi_pgl"] is None
    # the zero polynomial is the empty coefficient list
    assert doc["rows"][1]["A_irr"] == []
    assert doc["rows"][1]["A"] == ["0", "-1", "1"]


def test_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "polys", "--m", "0")
    assert code == 2 and "error" in err
    # a negative depth names its flag; depth 0 is an empty table
    assert run(capsys, "polys", "--m", "2", "--dmax", "-1") == (
        2, "", "error: need dmax >= 0\n")
    assert run(capsys, "subgroups", "--m", "2", "--nmax", "-1") == (
        2, "", "error: need nmax >= 0\n")
    assert run(capsys, "polys", "--m", "2", "--dmax", "0") == (
        0, "counting polynomials for m = 2, d <= 0\n", "")
    # --primes names itself when it cannot be read as integers
    assert run(capsys, "verify", "--m", "2", "--primes", "x") == (
        2, "", "error: --primes takes comma-separated integers, got 'x'\n")
    assert run(capsys, "verify", "--m", "2", "--primes", "2,3.5") == (
        2, "", "error: --primes takes comma-separated integers, got '2,3.5'\n")
    # an --output path that cannot be written is a usage error
    missing = tmp_path / "missing" / "table.json"
    assert run(capsys, "polys", "--m", "2", "--dmax", "1",
               "--output", str(missing)) == (
        2, "", f"error: cannot write {missing}: No such file or directory\n")
    code, out, err = run(capsys, "polys", "--m", "2", "--dmax", "1",
                         "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ")
    with pytest.raises(SystemExit) as exc:
        main(["polys"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    # the coefficient of t^d does not depend on a truncation order
    with pytest.raises(SystemExit) as exc:
        main(["polys", "--m", "2", "--order", "3"])
    assert exc.value.code == 2


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--m", "2", "--dmax", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["primes"] == [2, 3]
    names = [c["name"] for c in doc["checks"]]
    assert "plethystic roundtrip" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_runs_a_repeated_prime_once(capsys):
    # the JSON primes list and the oracle items name each prime once
    for form in ("text", "json"):
        once = run(capsys, "verify", "--m", "2", "--dmax", "2", "--primes",
                   "2", "--format", form)
        assert once[0] == 0
        assert run(capsys, "verify", "--m", "2", "--dmax", "2", "--primes",
                   "2,2", "--format", form) == once
    assert run(capsys, "verify", "--m", "2", "--dmax", "1", "--primes",
               "3,2,3", "--format", "json")[1] == run(
        capsys, "verify", "--m", "2", "--dmax", "1", "--primes", "3,2",
        "--format", "json")[1]


def test_verify_text_report(capsys):
    code, out, _ = run(capsys, "verify", "--m", "1", "--dmax", "2")
    assert code == 0
    assert "checks passed" in out
    assert "skipped: needs m >= 2" in out
    assert "FAIL" not in out


VERIFY_M1_D2_TEXT = """\
[ok ] rank-1 counts: all four d = 1 counts equal (q-1)^m
[ok ] rank-2 closed forms: single-generator degenerate values confirmed
[ok ] semisimple decomposition: d = 2 count splits into irreducibles plus \
sums of lines
[ok ] exponential structure: both count series are Exp of their building \
blocks to t^2
[ok ] plethystic roundtrip: Exp and Log invert each other on the pipeline \
series
[ok ] power product formula: product over Adams twists matches \
Pow(f, 1-q); counts positive
[skip] connected tuple inversion: skipped: needs m >= 2
[ok ] subgroup count routes: series route equals the recursive route for \
n <= 8
[skip] subgroup count limits: skipped: needs m >= 2
[ok ] permutation census: exponential identities hold in the census up to \
n = 4
[skip] Euler characteristics: skipped: needs m >= 2
[skip] quotient E-polynomials: skipped: needs m >= 2
[ok ] integrality: all coefficients are integers (certified during \
construction)
[ok ] s-positivity: A_d lies in N[q-1] for d <= 2
[ok ] finite field oracle p=2: brute force agrees at d in [1, 2]
[ok ] finite field oracle p=3: brute force agrees at d in [1, 2]
12/16 checks passed, 4 skipped
"""


VERIFY_M1_D2_JSON = """\
{
  "m": 1,
  "dmax": 2,
  "primes": [
    2,
    3
  ],
  "checks": [
    {
      "name": "rank-1 counts",
      "passed": true,
      "detail": "all four d = 1 counts equal (q-1)^m"
    },
    {
      "name": "rank-2 closed forms",
      "passed": true,
      "detail": "single-generator degenerate values confirmed"
    },
    {
      "name": "semisimple decomposition",
      "passed": true,
      "detail": "d = 2 count splits into irreducibles plus sums of lines"
    },
    {
      "name": "exponential structure",
      "passed": true,
      "detail": "both count series are Exp of their building blocks to t^2"
    },
    {
      "name": "plethystic roundtrip",
      "passed": true,
      "detail": "Exp and Log invert each other on the pipeline series"
    },
    {
      "name": "power product formula",
      "passed": true,
      "detail": "product over Adams twists matches Pow(f, 1-q); \
counts positive"
    },
    {
      "name": "connected tuple inversion",
      "passed": false,
      "skipped": true,
      "detail": "skipped: needs m >= 2"
    },
    {
      "name": "subgroup count routes",
      "passed": true,
      "detail": "series route equals the recursive route for n <= 8"
    },
    {
      "name": "subgroup count limits",
      "passed": false,
      "skipped": true,
      "detail": "skipped: needs m >= 2"
    },
    {
      "name": "permutation census",
      "passed": true,
      "detail": "exponential identities hold in the census up to n = 4"
    },
    {
      "name": "Euler characteristics",
      "passed": false,
      "skipped": true,
      "detail": "skipped: needs m >= 2"
    },
    {
      "name": "quotient E-polynomials",
      "passed": false,
      "skipped": true,
      "detail": "skipped: needs m >= 2"
    },
    {
      "name": "integrality",
      "passed": true,
      "detail": "all coefficients are integers (certified during \
construction)"
    },
    {
      "name": "s-positivity",
      "passed": true,
      "detail": "A_d lies in N[q-1] for d <= 2"
    },
    {
      "name": "finite field oracle p=2",
      "passed": true,
      "detail": "brute force agrees at d in [1, 2]"
    },
    {
      "name": "finite field oracle p=3",
      "passed": true,
      "detail": "brute force agrees at d in [1, 2]"
    }
  ],
  "all_passed": true
}
"""


def test_verify_skips_are_not_passes(capsys):
    code, out, err = run(capsys, "verify", "--m", "1", "--dmax", "2")
    assert code == 0 and err == ""
    assert out == VERIFY_M1_D2_TEXT
    code, out, err = run(capsys, "verify", "--m", "1", "--dmax", "2",
                         "--format", "json")
    assert code == 0 and err == ""
    assert out == VERIFY_M1_D2_JSON


def test_subgroups_golden(capsys):
    code, out, _ = run(capsys, "subgroups", "--m", "2", "--nmax", "5")
    assert code == 0
    assert "1,3,13,71,461" in out
    code, out, _ = run(capsys, "subgroups", "--m", "2", "--nmax", "5",
                       "--format", "json")
    assert json.loads(out)["counts"] == [1, 3, 13, 71, 461]


def test_permstats_listing(capsys):
    code, out, _ = run(capsys, "permstats", "--m", "2", "--n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["poly"] == ["0", "0", "2", "1"]
    assert len(doc["tuples"]) == 3
    assert doc["tuples"][0] == {"perms": [[1, 2, 0]], "inversions": 2}
    code, out, _ = run(capsys, "permstats", "--m", "2", "--n", "3")
    assert "q^3 + 2*q^2" in out


def test_oracle_output(capsys):
    code, out, _ = run(capsys, "oracle", "--d", "2", "--p", "2", "--m", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["orbits"], doc["abs_irr"], doc["abs_ind"]) == (11, 3, 6)
    code, out, _ = run(capsys, "oracle", "--d", "2", "--p", "2", "--m", "2",
                       "--format", "csv")
    assert out.splitlines()[1] == "2,2,2,6,11,3,6"


@pytest.fixture
def digit_cap():
    """CPython's default cap on the digits of an int written as text, set
    for the test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit cap")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_counts_past_the_int_digit_cap(capsys, digit_cap, fmt):
    # the orbit count has 4669 digits and the last subgroup count 46052;
    # main lifts the cap while it runs and puts it back
    m = 6000
    code, oracle, err = run(capsys, "oracle", "--d", "2", "--p", "2",
                            "--m", str(m), "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == digit_cap
    code, subgroups, err = run(capsys, "subgroups", "--m", "10000",
                               "--nmax", "8", "--format", fmt)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == digit_cap
    sys.set_int_max_str_digits(0)       # to read the counts back
    if fmt == "json":
        orbits = json.loads(oracle)["orbits"]
        counts = json.loads(subgroups)["counts"]
    elif fmt == "csv":
        assert oracle.startswith("d,p,m,group_order,orbits,abs_irr,abs_ind\n")
        orbits = int(oracle.splitlines()[1].split(",")[4])
        counts = [int(line.split(",")[1])
                  for line in subgroups.splitlines()[1:]]
    else:
        orbits = int(oracle.splitlines()[1].removeprefix("orbits: "))
        counts = [int(c) for c in subgroups.splitlines()[1].split(",")]
    # Burnside over GL_2(F_2) = S_3: classes with centralisers 6, 2, 3
    assert orbits == 6 ** (m - 1) + 3 ** (m - 1) + 2 ** (m - 1)
    assert counts == hall_subgroup_counts(10000, 8)


@pytest.mark.parametrize("error", [ExactDivisionError, PoleError],
                         ids=lambda e: e.__name__)
def test_internal_arithmetic_failures_exit_3(capsys, monkeypatch, error):
    # any ArithmeticError out of the library is an internal failure, not a
    # traceback
    def fail(*args, **kwargs):
        raise error("injected")
    monkeypatch.setattr(counting, "_div_by_s_power", fail)
    assert run(capsys, "polys", "--m", "2", "--dmax", "2") == (
        3, "", "error: internal identity failure: injected\n")


# sha256 of stdout; the oracle output is rendered from the OracleCensus
# fields, so renaming or reordering a field changes these bytes.  The 15
# oracle boxes run d = 1..3, p = 2..7 and m = 1..17, and include the
# largest boxes the size guard admits.  The polys CSV cells are the
# TableRow JSON values; --dmax 0 prints the header alone
OUTPUT_DIGESTS = {
    ("oracle", "--d", "1", "--p", "2", "--m", "1", "--format", "text"):
        "36f6607deb19830418cc176e98d07534bcff166713e3063934e73ba853bc4296",
    ("oracle", "--d", "1", "--p", "2", "--m", "1", "--format", "json"):
        "43f97252eee1235f77ed46cc012d1b6536ab113bb00380333ea7c78edcd37657",
    ("oracle", "--d", "1", "--p", "2", "--m", "1", "--format", "csv"):
        "d56b3a706b0371602eadefe36be8c41d76a32c87dcac03bd36d03f71be19a5b2",
    ("oracle", "--d", "1", "--p", "3", "--m", "17", "--format", "text"):
        "ea1dfe4511273646fd389f4ff6bd4ed5d6227680be999d0d84148fd97e687f00",
    ("oracle", "--d", "1", "--p", "3", "--m", "17", "--format", "json"):
        "4fc354794967185af0123db0d0068b8961494ae478f974030b303cb958510846",
    ("oracle", "--d", "1", "--p", "3", "--m", "17", "--format", "csv"):
        "f2fe5f2a3c77c1b8e60acf475e9d5b7a2fd116101b1e0faac1bcd5c31acd409c",
    ("oracle", "--d", "1", "--p", "5", "--m", "3", "--format", "text"):
        "d74d27ccbaf822d559e13c169bc223266ed27d3070e0f34a082b94ca08832d1b",
    ("oracle", "--d", "1", "--p", "5", "--m", "3", "--format", "json"):
        "c848e3e6cef5e3b79898a245ed471931aa72222e84e1b6e475d13ebc7b185f12",
    ("oracle", "--d", "1", "--p", "5", "--m", "3", "--format", "csv"):
        "83e4044df03629349929f74f44c161b5bb9c4c3d2795d9d60c27003ad7528472",
    ("oracle", "--d", "1", "--p", "7", "--m", "4", "--format", "text"):
        "a4a42deef48e14676bbc934b0409f9a9ffc196e593f8894cb027a88eb4380010",
    ("oracle", "--d", "1", "--p", "7", "--m", "4", "--format", "json"):
        "a942ec7c80c80dfb614cdc8bee7fc772a206d3625c1065ddbd5e9188374e0f4a",
    ("oracle", "--d", "1", "--p", "7", "--m", "4", "--format", "csv"):
        "c15c3d9c5fc2e7ed51d4ea956c687d7d68a4f19105f52cacb07a302760c60b4e",
    ("oracle", "--d", "2", "--p", "2", "--m", "1", "--format", "text"):
        "14879a7b5cf5fbf4a644657844f174d55560d78fb973b1e5406106d7507f822b",
    ("oracle", "--d", "2", "--p", "2", "--m", "1", "--format", "json"):
        "0d8d9d7e439f7424f56c151d58c59b693b6a1497e702884529e51f3bb9edec31",
    ("oracle", "--d", "2", "--p", "2", "--m", "1", "--format", "csv"):
        "dbe2fc309ef92c0937d095b218eec4f07adc286cdd97adb4323a95502a0552fc",
    ("oracle", "--d", "2", "--p", "2", "--m", "2", "--format", "text"):
        "0ed40e8dec214b2ac4a384c653e866374e97c4a26847f4bdbc3d15f2e56a8967",
    ("oracle", "--d", "2", "--p", "2", "--m", "2", "--format", "json"):
        "d23fa89da406e70816a49cd5570d8a69160df7bd27e09866941e820657928004",
    ("oracle", "--d", "2", "--p", "2", "--m", "2", "--format", "csv"):
        "de12081acbe3de5c172949096d1af9a0328ed74448af473f84aad7dc91fde44b",
    ("oracle", "--d", "2", "--p", "2", "--m", "3", "--format", "text"):
        "87e7c6bcef0bec2f071bb189b2706215626ae9fb0139c45a1ce3081e51448ed0",
    ("oracle", "--d", "2", "--p", "2", "--m", "3", "--format", "json"):
        "9cd65cdbcfc0a754c7319c4d254a6c3acd32935c9f91d31fcf5b3e2ca71eb04f",
    ("oracle", "--d", "2", "--p", "2", "--m", "3", "--format", "csv"):
        "cd3385e6f0f448e8ca0a75ed55181b19242c233cd0dce6290b981e851f58c9ba",
    ("oracle", "--d", "2", "--p", "2", "--m", "4", "--format", "text"):
        "29e99a36128a50f37db68c13285e03d1cb651a1bf3c56e9d2e6a3da5fd6c89c3",
    ("oracle", "--d", "2", "--p", "2", "--m", "4", "--format", "json"):
        "454d4b646816ecb2798cc1ad1a9a4256fc00d4ac0cfe1cae2dd3b91bb9f1aec2",
    ("oracle", "--d", "2", "--p", "2", "--m", "4", "--format", "csv"):
        "a4da0a06c54b35832881e7ec84059cf6992f9a5c0079210322f4441897958643",
    ("oracle", "--d", "2", "--p", "2", "--m", "5", "--format", "text"):
        "8472e1ae47a49b1d9e29e9eb20480773e529f484b4cfaf5f8f475fa335d287af",
    ("oracle", "--d", "2", "--p", "2", "--m", "5", "--format", "json"):
        "0db978e6963b0f91c7fb3cbb78de6f038e10cf431b7ae8b8b6ccdaac641ed779",
    ("oracle", "--d", "2", "--p", "2", "--m", "5", "--format", "csv"):
        "302806fc369435cf523e88a6f5a3e4a29e252822cad3b9204d875f770410ab97",
    ("oracle", "--d", "2", "--p", "2", "--m", "6", "--format", "text"):
        "04401ef42933600ec165ed0dbc3841e507737cc7dbb5ff84e7428a57cbcb542f",
    ("oracle", "--d", "2", "--p", "2", "--m", "6", "--format", "json"):
        "63d9db4ad583244268d2799d8fa7deb3463491f2b8bcb910e878034aaf337e53",
    ("oracle", "--d", "2", "--p", "2", "--m", "6", "--format", "csv"):
        "c8bf9d39e0290fe46acf74026e46162aa73a645ee7fcba2a32ed8ca3d1d5d938",
    ("oracle", "--d", "2", "--p", "3", "--m", "1", "--format", "text"):
        "d9b563ff1200b77025be26c76708a9e5972c4427534e61444d07a06e0ad935e5",
    ("oracle", "--d", "2", "--p", "3", "--m", "1", "--format", "json"):
        "e7f63128434a2a992861e095facd27743f38f4290f5af5856dbeea23e7c7eb8d",
    ("oracle", "--d", "2", "--p", "3", "--m", "1", "--format", "csv"):
        "f2eea00bf89d7465c32b77dc2d3d6ab2aa0098f9f3f0b1bf56cefd794ff421fa",
    ("oracle", "--d", "2", "--p", "3", "--m", "2", "--format", "text"):
        "4013019b780f594d0d98931fda1d25fcd8273565309e8ae0ea22cf51c91c484b",
    ("oracle", "--d", "2", "--p", "3", "--m", "2", "--format", "json"):
        "b6c5d3dec28128f0943f756eac4daa14c5989b2e8eecac2ebcf56a0ce3a3ed9b",
    ("oracle", "--d", "2", "--p", "3", "--m", "2", "--format", "csv"):
        "be23ba3ad6d540daea3c89196865d74af571aabf3a7a11506ecfca1bc6aadfc6",
    ("oracle", "--d", "2", "--p", "3", "--m", "3", "--format", "text"):
        "3674248e5d0d8c3ff874ee2af8b359a47b7b77ae77b6569075e58711e9552859",
    ("oracle", "--d", "2", "--p", "3", "--m", "3", "--format", "json"):
        "4a967775060a4964df5c0adfa1301ade6249f6631d9a5195c14b737c63e15128",
    ("oracle", "--d", "2", "--p", "3", "--m", "3", "--format", "csv"):
        "15aacec3a231873819b710c092e7c2db7a4cfad49398738199059d0cddbd4618",
    ("oracle", "--d", "3", "--p", "2", "--m", "1", "--format", "text"):
        "27ba5dd4d5e0d438fc3795eb74b066c3b8f65ed5c2d9037a7ae127e28f7fcf3b",
    ("oracle", "--d", "3", "--p", "2", "--m", "1", "--format", "json"):
        "0228487008097a30414827b0b29da31588ed99c9529116c139aaeeb0c8cc49e6",
    ("oracle", "--d", "3", "--p", "2", "--m", "1", "--format", "csv"):
        "e9f14b3a938a615a0d9754b24b28bc3bebbd0d2d8e628868dc135f3ca6b8aef1",
    ("oracle", "--d", "3", "--p", "2", "--m", "2", "--format", "text"):
        "d645ed7033e796b8abe85539398f5f3c5b3e5b4fcff8ed48ad7167d3667bcb93",
    ("oracle", "--d", "3", "--p", "2", "--m", "2", "--format", "json"):
        "df0a07b276b0ad0d8da99e31b002299cc9f3854bfcfb00c47c216271305458b4",
    ("oracle", "--d", "3", "--p", "2", "--m", "2", "--format", "csv"):
        "cfd161da3270e27779b34ab3373651958c7c6d5d44fb1066718deeb1d3fdf82a",
    ("permstats", "--m", "2", "--n", "3", "--format", "text"):
        "d607fb23a7166118c17549c97056e07880141a2277b892d8c4f2782d52f7c7d5",
    ("permstats", "--m", "2", "--n", "3", "--format", "json"):
        "e7a95c03bdb8343e07a2bdd8e3708a48bd69abf70264ee2bf85f9ca948e6f1c6",
    ("permstats", "--m", "2", "--n", "3", "--format", "csv"):
        "0ee4ef720fd809f05faba78c7ceabfed641f2a0cb67faa11e858fc8f2c61409e",
    ("polys", "--m", "1", "--dmax", "3", "--format", "csv"):
        "05f861a066d1cbc2727003f6ba7226d2b7611c30d601f0ddb8aa2696b4acc901",
    ("polys", "--m", "2", "--dmax", "4", "--format", "csv"):
        "1e2ec44664e78fa63a21eb79e32c1786b37f12cf1aaa004047cc5fe8e78df484",
    ("polys", "--m", "3", "--dmax", "3", "--format", "csv"):
        "16eb838755e5e78bf4dbe56b1712a70e8054ce16e66b20236e04cb830398cefa",
    ("polys", "--m", "2", "--dmax", "0", "--format", "csv"):
        "ec3404d358b98c5c6a5c4ecd140a020c5cfacdc487a8e846b4f5b640cb4bf094",
    ("subgroups", "--m", "2", "--nmax", "8", "--format", "text"):
        "671f715212c88b087a7bb7259d0723b36bc24fedc331f95615852a0dcea549bd",
    ("subgroups", "--m", "2", "--nmax", "8", "--format", "json"):
        "bfa6b02d678a5cc01745ca64662b458e22d43e6b2de6e61a27aaada6f7479d7d",
    ("subgroups", "--m", "2", "--nmax", "8", "--format", "csv"):
        "682d286386ae903e9d7b0a2318b5232713349ccae6d053d64d980882093ea27f",
    ("verify", "--m", "1", "--dmax", "2", "--format", "csv"):
        "cc550d9ab025e721124e7f3cb3c55dff66bfec7c652eb7fa659f983f7b2afc20",
    ("verify", "--m", "2", "--primes", "", "--format", "csv"):
        "9451508ceb371d0fa70a57a22d9d9359a9831857935c532823bbf227bbc1f84e",
}


@pytest.mark.parametrize("argv", list(OUTPUT_DIGESTS), ids=" ".join)
def test_oracle_and_permstats_bytes_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        OUTPUT_DIGESTS[argv]


# sha256 of verify's JSON report; both runs include the permutation census,
# the first is the benchmark's verify-suite command
VERIFY_DIGESTS = {
    ("verify", "--m", "2", "--dmax", "16", "--primes", "", "--format",
     "json"):
        "0af0b43c5c4df88a7a9227d1934e6b8e43c55370028877e2e0b5a1e62e6aca74",
    ("verify", "--m", "3", "--format", "json"):
        "d9d3a9c9d7dd8f6025f34f2328ba621fbfd10162e5a1c6962ce01d3c3e67bcad",
}


@pytest.mark.parametrize("argv", list(VERIFY_DIGESTS), ids=" ".join)
def test_verify_bytes_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        VERIFY_DIGESTS[argv]


def _cli_command(*argv, setup=""):
    """Command line and environment of the CLI in a fresh interpreter.

    `setup` is Python that runs before charvar.cli is imported.
    """
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return ([sys.executable, "-c", f"{setup}\nimport sys\n"
             "from charvar.cli import main\nsys.exit(main(sys.argv[1:]))",
             *argv], {**os.environ, "PYTHONPATH": path})


def _cli(*argv, timeout=60):
    """Run the CLI in a fresh interpreter; a hang fails by timeout."""
    command, env = _cli_command(*argv)
    return subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_large_p_is_sized_before_its_primality_is_decided():
    # trial division of this prime would not end; the size guard comes first
    big = "100000000000000000039"
    done = _cli("oracle", "--d", "1", "--p", big, "--m", "1")
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == f"error: enumerating {big}**1 matrices is too much\n"
    done = _cli("oracle", "--d", "1", "--p", "1000000", "--m", "1")
    assert done.returncode == 4, done.stderr
    # a p past the bound, prime or not, skips its oracle item
    done = _cli("verify", "--m", "1", "--dmax", "1", "--primes",
                f"{big},1000000", "--format", "json")
    assert done.returncode == 0, done.stderr
    oracle = json.loads(done.stdout)["checks"][-2:]
    assert [c["name"] for c in oracle] == [
        f"finite field oracle p={big}", "finite field oracle p=1000000"]
    assert all(c["skipped"] and not c["passed"] for c in oracle)
    assert oracle[0]["detail"] == (
        f"skipped: size guard at d = 1: enumerating {big}**1 matrices is "
        "too much")


@pytest.mark.parametrize("argv, err", [
    ("oracle --d 2 --p 3 --m 10000000",
     "10000000 levels over a 48**2 table"),
    ("oracle --d 2 --p 3 --m 100000000",
     "100000000 levels over a 48**2 table"),
    ("permstats --m 10000000 --n 3", "S_3^9999999"),
    ("permstats --m 100000000 --n 3", "S_3^99999999"),
    ("permstats --m 2 --n 1000000", "S_1000000^1"),
    # a group of order 1 is bounded by the tuple length alone
    ("oracle --d 1 --p 2 --m 400001", "400001 levels over a 1**2 table"),
    ("permstats --n 1 --m 400002", "S_1^400001"),
])
def test_size_guards_never_build_the_bounded_number(argv, err):
    done = _cli(*argv.split(), timeout=20)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr == f"error: {err} is too " + (
        "much\n" if argv.startswith("oracle") else "large to enumerate\n")


def test_size_guard_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "--d", "3", "--p", "5", "--m", "2")
    assert code == 4 and "error" in err
    code, _, err = run(capsys, "oracle", "--d", "2", "--p", "4", "--m", "2")
    assert code == 2


def test_oracle_refusal_states_the_guarded_count(capsys):
    # the guard is on m levels over the |G|**2 conjugation table
    code, out, err = run(capsys, "oracle", "--d", "2", "--p", "5", "--m", "2")
    assert code == 4 and out == ""
    assert err == "error: 2 levels over a 480**2 table is too much\n"
    code, out, err = run(capsys, "oracle", "--d", "2", "--p", "7", "--m", "1")
    assert code == 4 and out == ""
    assert err == "error: 1 level over a 2016**2 table is too much\n"


def test_output_file_and_determinism(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run(capsys, "polys", "--m", "3", "--dmax", "2",
                       "--format", "json", "--output", str(target))
    assert code == 0 and out == ""
    first = target.read_text(encoding="utf-8")
    code, second, _ = run(capsys, "polys", "--m", "3", "--dmax", "2",
                          "--format", "json")
    assert first == second


def test_polys_json_matches_benchmark_digests(capsys, monkeypatch):
    # the benchmark pins these two tables byte for byte; check them here too
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for label, (m, dmax) in (("polys-deep", (2, 20)), ("polys-wide", (8, 12))):
        code, out, err = run(capsys, "polys", "--m", str(m), "--dmax",
                             str(dmax), "--format", "json")
        assert code == 0 and err == ""
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == workloads.POLYS_DIGESTS[label], label


def _modules_added(statement):
    """The modules a fresh interpreter holds after running statement and
    a bare one does not, so that what site loads at start-up is left out."""
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def loaded(statement):
        done = subprocess.run(
            [sys.executable, "-c",
             statement + "\nimport sys\nprint(*sys.modules, sep='\\n')"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=60, check=True)
        return set(done.stdout.split())

    return loaded(statement) - loaded("pass")


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command is a cold process that pays for what charvar.cli
    # imports
    added = _modules_added("import charvar.cli")
    assert "charvar.cli" in added
    assert not added & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ("oracle", "--d", "2", "--p", "2", "--m", "2"),
    ("polys", "--m", "2", "--dmax", "3")], ids=["oracle", "polys"])
def test_a_text_command_loads_neither_json_nor_csv(argv):
    # the JSON and CSV writers import their modules when they run, so a
    # text command's cold process pays for neither
    added = _modules_added(
        "from charvar.cli import main\n"
        f"assert main({list(argv)!r} + ['--output', {os.devnull!r}]) == 0")
    assert "charvar.cli" in added
    assert not added & {"json", "csv", "_json", "_csv"}, sorted(added)
    # the JSON writer loads json when it runs
    assert "json" in _modules_added(
        "from charvar.cli import main\n"
        f"main({list(argv)!r} + ['--format', 'json', '--output', "
        f"{os.devnull!r}])")


@pytest.mark.parametrize("m, dmax", [(2, 0), (1, 2), (2, 3)],
                         ids=["no rows", "null chi and zero poly", "m=2"])
def test_streamed_polys_json_is_the_one_shot_json(capsys, m, dmax):
    code, out, err = run(capsys, "polys", "--m", str(m), "--dmax", str(dmax),
                         "--format", "json")
    assert (code, err) == (0, "")
    rows = [row.to_json_dict() for row in build_table(m, dmax).rows]
    assert out == json.dumps({"m": m, "rows": rows}, indent=2) + "\n"


@pytest.mark.parametrize("empty", [True, False], ids=["empty", "listing"])
def test_streamed_permstats_json_is_the_one_shot_json(capsys, monkeypatch,
                                                      empty):
    # every (n, m) the command admits has a connected tuple, an n-cycle
    tuples = [] if empty else connected_tuples(3, 3)
    if empty:
        monkeypatch.setattr(cli, "connected_tuples", lambda n, m: [])
    code, out, err = run(capsys, "permstats", "--m", "3", "--n", "3",
                         "--format", "json")
    assert (code, err) == (0, "")
    weights = [sum(map(inversions, tup)) for tup in tuples]
    payload = {"m": 3, "n": 3,
               "poly": [str(c) for c in weight_poly(weights).coeffs],
               "tuples": [{"perms": [list(p) for p in tup], "inversions": w}
                          for tup, w in zip(tuples, weights)]}
    assert out == json.dumps(payload, indent=2) + "\n"
    assert len(payload["tuples"]) == (0 if empty else 29)


class _Sink:
    """A text handle that keeps only the number of characters written."""

    def __init__(self):
        self.length = 0

    def write(self, text):
        self.length += len(text)


def test_polys_json_render_holds_less_than_half_its_output():
    # the rows of this table are small next to the whole (the largest is a
    # tenth of it); holding the whole table as text, or as its row dicts,
    # takes more than the output's length
    args = build_parser().parse_args(["polys", "--m", "2", "--dmax", "30",
                                      "--format", "json"])
    cmd_polys(args)                 # builds and caches the series
    code, write = cmd_polys(args)
    sink = _Sink()
    tracemalloc.start()
    try:
        write(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.length > 1_000_000
    assert peak < sink.length / 2, (peak, sink.length)


def _fail(*args, **kwargs):
    raise ExactDivisionError("injected")


@pytest.mark.parametrize("code, argv, patch", [
    (3, "polys --m 2 --dmax 2", (counting, "_div_by_s_power")),
    # E(PGL) of the text table is computed before the first line is written
    (3, "polys --m 2 --dmax 2", (cli, "e_polynomial")),
    (4, "oracle --d 2 --p 5 --m 3", None),
    (2, "polys --m 0", None),
], ids=["identity", "text E(PGL)", "size guard", "usage"])
def test_a_failed_command_writes_nothing(capsys, monkeypatch, tmp_path, code,
                                         argv, patch):
    if patch:
        monkeypatch.setattr(*patch, _fail)
    argv = argv.split()
    kept = tmp_path / "kept.txt"
    kept.write_bytes(b"an earlier table\n")
    fresh = tmp_path / "fresh.txt"
    assert run(capsys, *argv)[:2] == (code, "")
    assert run(capsys, *argv, "--output", str(kept))[:2] == (code, "")
    assert run(capsys, *argv, "--output", str(fresh))[:2] == (code, "")
    assert kept.read_bytes() == b"an earlier table\n"
    assert not fresh.exists()


# verify whose suite reports a failed item, so that it exits 3 with output
_FAILING_VERIFY = ("from charvar import verify\n"
                   "verify.all_passed = lambda checks: False")


@pytest.mark.parametrize("code, argv, setup", [
    (0, "polys --m 2 --dmax 3", ""),
    (3, "verify --m 1 --dmax 1 --primes=", _FAILING_VERIFY),
], ids=["ok", "failed verify"])
def test_a_reader_closed_before_the_first_byte(code, argv, setup):
    # no traceback, nothing on stderr, and the command's own exit code
    command, env = _cli_command(*argv.split(), setup=setup)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(command, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, b"")


def test_a_reader_closed_in_mid_output():
    # the table is about 1.1 MB, far more than a pipe holds, so the writer
    # is still writing when the reader goes
    command, env = _cli_command("polys", "--m", "8", "--dmax", "12",
                                "--format", "json")
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(11) == b'{\n  "m": 8,'
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")
