"""The result records: immutable, keyword-built, compared by value."""

import hashlib
import json
from fractions import Fraction

import pytest

from charvar.counting import CharVarTable, TableRow, build_table, s_positive
from charvar.fforacle import CensusRow, OracleCensus
from charvar.qpoly import expand_in_s, q
from charvar.verify import CheckResult


ROW_FIELDS = dict(d=1, rep_count=(q - 1) ** 2, abs_irr=(q - 1) ** 2,
                  abs_ind=(q - 1) ** 2, orbits=(q - 1) ** 2,
                  chi_pgl=Fraction(1), chi_pgl_irr=Fraction(-1, 2),
                  s_coeffs=(0, 0, 1), positive=True)


def sample_row():
    return TableRow(**ROW_FIELDS)


RECORDS = [
    (CensusRow, dict(n=2, m=2, total=4, orbit_count=4, transitive_count=3,
                     aut_weight=Fraction(3, 2), aut_weight_all=Fraction(2))),
    (TableRow, ROW_FIELDS),
    (CharVarTable, dict(m=2, dmax=1, rows=(sample_row(),))),
    (OracleCensus, dict(d=1, p=3, m=2, group_order=2, orbits=4, abs_irr=4,
                        abs_ind=4)),
    (CheckResult, dict(name="rank-1 counts", passed=True, detail="ok",
                       skipped=False)),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        assert getattr(record, name) == value
    twin = cls(**fields)
    assert record == twin and hash(record) == hash(twin)
    name = next(iter(fields))
    assert record != cls(**{**fields, name: "other"})
    with pytest.raises(AttributeError):
        setattr(record, name, "other")
    assert getattr(record, name) == fields[name]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_tuples(cls, fields):
    record = cls(**fields)
    values = tuple(fields.values())
    assert tuple(record) == values and record == values
    assert record[0] == values[0] and len(record) == len(fields)
    assert record._asdict() == fields
    name = next(iter(fields))
    assert record._replace(**{name: "other"}) == ("other",) + values[1:]


def test_check_result_defaults():
    check = CheckResult(name="integrality", passed=False)
    assert check.detail == "" and check.skipped is False
    assert check == CheckResult(name="integrality", passed=False, detail="",
                                skipped=False)


def test_record_repr():
    row = CensusRow(n=2, m=2, total=4, orbit_count=4, transitive_count=3,
                    aut_weight=Fraction(3, 2), aut_weight_all=Fraction(2))
    assert repr(row) == ("CensusRow(n=2, m=2, total=4, orbit_count=4, "
                         "transitive_count=3, aut_weight=Fraction(3, 2), "
                         "aut_weight_all=Fraction(2, 1))")


def _irr_witness(rows):
    # the first negative s-coefficient of an absolutely irreducible count
    return next(((row.d, k, c) for row in rows
                 for k, c in enumerate(expand_in_s(row.abs_irr)) if c < 0),
                None)


def test_all_positive():
    rows = build_table(1, 4).rows
    assert all(row.positive for row in rows) and _irr_witness(rows) is None
    rows = build_table(2, 5).rows
    assert all(row.positive for row in rows)
    assert _irr_witness(rows) == (2, 2, -1)
    assert _irr_witness(build_table(3, 4).rows) == (2, 3, -2)
    # the flag is s_positive of A_d, which a negative s-coefficient fails
    assert [s_positive(p) for p in ((q - 1) ** 2, q * (q - 1) - 1)] == [
        True, False]


def test_to_json_dict_bytes():
    assert sample_row().to_json_dict() == {
        "d": 1, "A": ["1", "-2", "1"], "A_irr": ["1", "-2", "1"],
        "A_ind": ["1", "-2", "1"], "M": ["1", "-2", "1"], "chi_pgl": "1",
        "chi_pgl_irr": "-1/2", "s_coeffs_A": ["0", "0", "1"],
        "positive": True}
    # the document `polys --format json` writes
    rows = [row.to_json_dict() for row in build_table(2, 3).rows]
    text = json.dumps({"m": 2, "rows": rows}, indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "1ed8177477c58df06175723d69ae4f5bce63812500f012d9c34bab0768c38dd3")
