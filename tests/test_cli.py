"""Command line interface: formats, exit codes, golden values."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charvar
from charvar.cli import main

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
[ok ] finite field oracle p=2: brute force agrees at d in [1, 2]
[ok ] finite field oracle p=3: brute force agrees at d in [1, 2]
11/15 checks passed, 4 skipped
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


def test_size_guard_exit_code(capsys):
    code, _, err = run(capsys, "oracle", "--d", "3", "--p", "5", "--m", "2")
    assert code == 4 and "error" in err
    code, _, err = run(capsys, "oracle", "--d", "2", "--p", "4", "--m", "2")
    assert code == 2


def test_oracle_refusal_states_the_guarded_count(capsys):
    # with one matrix the guard is on the |G|**2 conjugation table
    code, out, err = run(capsys, "oracle", "--d", "2", "--p", "5", "--m", "1")
    assert code == 4 and out == ""
    assert err == "error: sweeping 480**2 tuples is too much\n"
    code, _, err = run(capsys, "oracle", "--d", "2", "--p", "5", "--m", "2")
    assert code == 4
    assert err == "error: sweeping 480**2 tuples is too much\n"
    code, _, err = run(capsys, "oracle", "--d", "2", "--p", "3", "--m", "4")
    assert code == 4
    assert err == "error: sweeping 48**4 tuples is too much\n"


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command is a cold process that pays for what charvar.cli
    # imports; only modules beyond a bare interpreter's count, so what
    # site loads at start-up does not
    src = str(Path(charvar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def loaded(statement):
        done = subprocess.run(
            [sys.executable, "-c",
             statement + "\nimport sys\nprint(*sys.modules, sep='\\n')"],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            text=True, timeout=60, check=True)
        return set(done.stdout.split())

    added = loaded("import charvar.cli") - loaded("pass")
    assert "charvar.cli" in added
    assert not added & {"dataclasses", "inspect"}
